"""Dirichlet and bidisc shift constructors and the closed-form condition."""

import numpy as np
import pytest

from twoiso import (
    Op,
    apply,
    defect_quadratic,
    polarized_defect_form,
    theorem_verdict,
)
from twoiso.function_spaces import (
    PolyCoeffs,
    bidisc_example_problem,
    bidisc_shift,
    constant_perturbed_dirichlet,
    dirichlet_admissibility_residual,
    dirichlet_perturbation_problem,
    dirichlet_shift,
    perturbed_dirichlet,
)
from helpers import adjoint, bidisc_shift_by_labels, dirichlet_shift_by_labels, window_basis


# ---------------------------------------------------------------------------
# PolyCoeffs


def test_poly_degree_ignores_trailing_zeros():
    assert PolyCoeffs((1.0, 0.0, 0.0)).degree == 1
    assert PolyCoeffs((0.0, 2.0)).degree == 2
    assert PolyCoeffs(()).degree == 0
    assert PolyCoeffs((0.0,)).is_zero


def test_poly_to_vector_respects_truncation():
    space = dirichlet_shift(4).space
    with pytest.raises(ValueError, match="degree"):
        PolyCoeffs((0.0, 0.0, 0.0, 0.0, 1.0)).to_vector(space)


# ---------------------------------------------------------------------------
# Dirichlet shift


def test_dirichlet_shift_column_of_z():
    op = dirichlet_shift(3)
    assert np.allclose(apply(op, op.space.monomial((1,))), op.space.monomial((2,)))


def test_dirichlet_shift_defect_on_z_small_truncation():
    # weights 2, 3, 4 around degree one: 2 - 2*3 + 4 = 0
    op = dirichlet_shift(3)
    z = op.space.monomial((1,))
    assert defect_quadratic(op, z) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("N", [2, 6, 18])
def test_shift_matrices_match_the_label_by_label_build(N):
    assert np.array_equal(dirichlet_shift(N).matrix, dirichlet_shift_by_labels(N))
    for axis in (1, 2):
        assert np.array_equal(bidisc_shift(N, axis).matrix, bidisc_shift_by_labels(N, axis))


def test_dirichlet_shift_needs_two_degrees():
    with pytest.raises(ValueError):
        dirichlet_shift(1)


def test_dirichlet_shift_top_monomial_unsafe():
    op = dirichlet_shift(3)
    assert not op.window.contains(op.space.monomial((3,)))


def test_dirichlet_shift_is_two_isometry_on_safe_window():
    op = dirichlet_shift(9)
    assert polarized_defect_form(op).max_residual <= 1e-12


# ---------------------------------------------------------------------------
# perturbed Dirichlet shift


def test_perturbed_dirichlet_action_on_constant():
    op = perturbed_dirichlet(6, PolyCoeffs((-2.0,)))
    one = op.space.basis_vector(0)
    z = op.space.monomial((1,))
    assert np.allclose(apply(op, one), -z)


def test_perturbed_dirichlet_zero_polynomial_is_plain_shift():
    assert np.allclose(
        perturbed_dirichlet(6, PolyCoeffs(())).matrix, dirichlet_shift(6).matrix
    )
    assert np.allclose(
        perturbed_dirichlet(6, PolyCoeffs((0.0, 0.0))).matrix,
        dirichlet_shift(6).matrix,
    )


def test_perturbed_dirichlet_annihilates_orthogonal_part():
    op = perturbed_dirichlet(6, PolyCoeffs((1.0, 2.0)))
    z = op.space.monomial((1,))
    assert np.allclose(apply(op, z), op.space.monomial((2,)))


def test_perturbed_dirichlet_degree_guard():
    with pytest.raises(ValueError, match="too large"):
        perturbed_dirichlet(4, PolyCoeffs((0.0, 0.0, 0.0, 1.0)))


def test_perturbed_dirichlet_growth():
    assert perturbed_dirichlet(8, PolyCoeffs((1.0,))).degree_growth == 1
    assert perturbed_dirichlet(8, PolyCoeffs((0.0, 0.0, 1.0))).degree_growth == 3


def test_constant_perturbation_matrix():
    op = constant_perturbed_dirichlet(4, 2.0j)
    assert op.matrix[0, 0] == 2.0j
    assert np.allclose(constant_perturbed_dirichlet(4, 0.0).matrix, dirichlet_shift(4).matrix)


# ---------------------------------------------------------------------------
# admissibility residual


def test_admissibility_residual_values():
    assert dirichlet_admissibility_residual(PolyCoeffs((-2.0,))) == pytest.approx(0.0)
    theta = np.pi / 3
    alpha = np.exp(1j * theta) - 1.0
    assert abs(dirichlet_admissibility_residual(PolyCoeffs((alpha,)))) <= 1e-12
    assert dirichlet_admissibility_residual(PolyCoeffs((0.0, 1.0))) == pytest.approx(2.0)
    assert dirichlet_admissibility_residual(PolyCoeffs(())) == 0.0


def test_admissibility_residual_is_circle_distance():
    rng = np.random.default_rng(60)
    for _ in range(50):
        alpha = complex(rng.uniform(-3, 1), rng.uniform(-2, 2))
        resid = dirichlet_admissibility_residual(PolyCoeffs((alpha,)))
        assert resid == pytest.approx(abs(alpha + 1.0) ** 2 - 1.0, abs=1e-12)


def test_admissibility_matches_oracle_on_linear_family():
    rng = np.random.default_rng(61)
    thetas = rng.uniform(0.05, 2 * np.pi - 0.05, 15)
    for theta in thetas:
        alpha = np.exp(1j * theta) - 1.0
        report = theorem_verdict(dirichlet_perturbation_problem(12, PolyCoeffs((alpha,))))
        assert report.verdict_theorem and report.verdict_oracle
    for _ in range(15):
        deg = int(rng.integers(1, 6))
        a = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        p = PolyCoeffs(tuple(a))
        if abs(dirichlet_admissibility_residual(p)) < 1e-4:
            continue
        report = theorem_verdict(dirichlet_perturbation_problem(12, p))
        assert not report.verdict_theorem
        assert not report.verdict_oracle


def test_defect_on_constant_identity():
    rng = np.random.default_rng(62)
    N = 12
    for _ in range(25):
        deg = int(rng.integers(1, N - 1))
        a = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        p = PolyCoeffs(tuple(a))
        op = perturbed_dirichlet(N, p)
        one = op.space.basis_vector(0)
        assert defect_quadratic(op, one) == pytest.approx(
            -dirichlet_admissibility_residual(p), abs=1e-10
        )


def test_branch_consistency_of_constructed_problems():
    problem = dirichlet_perturbation_problem(10, PolyCoeffs((0.5j,)))
    assert theorem_verdict(problem).branch == "I"
    assert theorem_verdict(bidisc_example_problem(6)).branch == "II"


# ---------------------------------------------------------------------------
# bidisc shifts


def test_bidisc_shift_action():
    op = bidisc_shift(3, axis=1)
    z2 = op.space.monomial((0, 1))
    assert np.allclose(apply(op, z2), op.space.monomial((1, 1)))


def test_bidisc_shift_axis_two():
    op = bidisc_shift(3, axis=2)
    z1 = op.space.monomial((1, 0))
    assert np.allclose(apply(op, z1), op.space.monomial((1, 1)))


def test_bidisc_shift_is_isometry_on_safe_vectors():
    op = bidisc_shift(4, axis=1)
    rng = np.random.default_rng(63)
    E = window_basis(op.space, op.window.idx)
    for _ in range(10):
        c = rng.standard_normal(E.shape[1]) + 1j * rng.standard_normal(E.shape[1])
        f = E @ c
        assert op.space.norm(apply(op, f)) == pytest.approx(op.space.norm(f), abs=1e-12)


def test_bidisc_shift_adjoint_kills_constant():
    op = bidisc_shift(3, axis=1)
    one = op.space.monomial((0, 0))
    assert np.allclose(apply(adjoint(op), one), 0)


def test_bidisc_shift_validation():
    with pytest.raises(ValueError):
        bidisc_shift(1, axis=1)
    with pytest.raises(ValueError):
        bidisc_shift(3, axis=3)


def test_bidisc_shift_two_isometry_on_safe_window():
    for axis in (1, 2):
        op = bidisc_shift(5, axis=axis)
        assert polarized_defect_form(op).max_residual <= 1e-12


# ---------------------------------------------------------------------------
# the bidisc example operator, M_{z1} + (-z1^2 + z2)⊗z1


def test_bidisc_example_maps_z1_to_z2():
    op = bidisc_example_problem(6).perturbed()
    z1 = op.space.monomial((1, 0))
    z2 = op.space.monomial((0, 1))
    assert np.allclose(apply(op, z1), z2)


def test_bidisc_example_square_on_z1():
    op = bidisc_example_problem(6).perturbed()
    z1 = op.space.monomial((1, 0))
    z1z2 = op.space.monomial((1, 1))
    assert np.allclose(apply(op, apply(op, z1)), z1z2)


def test_bidisc_example_on_z2():
    op = bidisc_example_problem(6).perturbed()
    z2 = op.space.monomial((0, 1))
    assert np.allclose(apply(op, z2), op.space.monomial((1, 1)))


def test_bidisc_example_growth_and_window():
    # The scanned growth is 1; declaring 2, the degree of u's range, gives
    # the window of degree <= N - 4 that `reproduce bidisc` checks.
    perturbed = bidisc_example_problem(6).perturbed()
    assert perturbed.degree_growth == 1
    op = Op(perturbed.space, perturbed.matrix, degree_growth=2)
    assert int(op.space.degrees[op.window.idx].max()) <= 2
    assert polarized_defect_form(op).max_residual <= 1e-10


@pytest.mark.parametrize("coeffs", [(0.0,), (0.0, 0.0, 0.0)])
def test_dirichlet_problem_refuses_the_zero_polynomial(coeffs):
    with pytest.raises(ValueError, match="zero polynomial"):
        dirichlet_perturbation_problem(6, PolyCoeffs(coeffs))
