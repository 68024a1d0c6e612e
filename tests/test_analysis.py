"""The branch decision, gamma, condition residuals, and the verdict report."""

import dataclasses
import itertools
from fractions import Fraction
import sys
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest

from twoiso import (
    DEFAULT_RANK_TOL,
    Op,
    PerturbationProblem,
    TruncationError,
    apply,
    condition_iia_residual,
    condition_iib_residual,
    defect_apply_in_window,
    defect_quadratic,
    gamma_coefficient,
    kernel_condition_residual,
    make_coordinate_space,
    make_dirichlet_space,
    perturb,
    polarized_defect_form,
    theorem_verdict,
    weighted_gram_schmidt,
    witness_vector,
)
from twoiso import analysis, operators
from twoiso.cli import main
from twoiso.function_spaces import (
    PolyCoeffs,
    bidisc_example_problem,
    bidisc_shift,
    dirichlet_perturbation_problem,
    dirichlet_shift,
)
from twoiso.sampling import (
    isometric_correction_pair,
    random_complex_vector,
    random_unitary,
)
from twoiso.spaces import pow2_scale
import cases
from helpers import (
    add,
    adjoint,
    brute_force_adjoint,
    complex_path_oracle,
    defect_image_by_entries,
    dense_perturbed_form,
    exact_kernel_image,
    exact_sqrt,
    identity,
    orthogonal_complement,
    polarized_form_by_entries,
    project,
    random_op,
    random_vec,
    random_weighted_space,
    rank_one,
    stage_problem,
    stable_kernel_block_residual,
    stable_kernel_referee,
    window_basis,
)


# ---------------------------------------------------------------------------
# normalization of (u, v) by PerturbationProblem


def normalized_pair(space, u, v):
    """(u, v) as PerturbationProblem stores them, over the identity base."""
    problem = PerturbationProblem(base=identity(space), u=u, v=v)
    return problem.u, problem.v, problem.v_was_normalized


def test_normalize_pair_scales_u_by_norm_of_v():
    space = make_coordinate_space(3)
    rng = np.random.default_rng(50)
    u = random_vec(space, rng)
    vhat = random_vec(space, rng)
    vhat = vhat / space.norm(vhat)
    u2, v2, normalized = normalized_pair(space, u, 2.0 * vhat)
    assert np.allclose(u2, 2.0 * u)
    assert np.allclose(v2, vhat)
    assert normalized is True


def test_normalize_pair_fixed_point():
    space = make_coordinate_space(2)
    v = space.basis_vector(1)
    u = space.basis_vector(0)
    u2, v2, normalized = normalized_pair(space, u, v)
    assert np.array_equal(u2, u)
    assert np.array_equal(v2, v)
    assert normalized is False


def test_normalize_pair_canonical_example():
    space = make_coordinate_space(2)
    u2, v2, _ = normalized_pair(space, space.basis_vector(0), 3.0 * space.basis_vector(1))
    assert np.allclose(u2, 3.0 * space.basis_vector(0))
    assert np.allclose(v2, space.basis_vector(1))


def test_normalize_pair_preserves_rank_one_operator():
    rng = np.random.default_rng(51)
    space = make_coordinate_space(4)
    for _ in range(20):
        u, v = random_vec(space, rng), random_vec(space, rng)
        problem = PerturbationProblem(base=identity(space), u=u, v=v)
        assert abs(space.norm(problem.v) - 1.0) <= 1e-12
        lhs = rank_one(space, u, v).matrix
        rhs = rank_one(space, problem.u, problem.v).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_normalize_pair_rejects_zero():
    space = make_coordinate_space(2)
    with pytest.raises(ValueError, match="not rank one"):
        normalized_pair(space, space.zeros(), space.basis_vector(0))
    with pytest.raises(ValueError, match="not rank one"):
        normalized_pair(space, space.basis_vector(0), space.zeros())


# ---------------------------------------------------------------------------
# stable kernel and witness vector


def test_stable_kernel_swap_case_is_trivial():
    # v = e2 and T*v = e1 span C^2, so nothing is left of the stable kernel.
    problem = cases.problem("c2-swap")
    assert theorem_verdict(problem).s_dim_evaluated == 0
    Q = stable_kernel_referee(problem.base, problem.v, np.arange(2), DEFAULT_RANK_TOL)
    assert Q.shape == (2, 2)


def test_stable_kernel_bidisc_case():
    problem = cases.problem("bidisc-6")
    space = problem.space
    safe = problem.perturbed().window.idx
    report = theorem_verdict(problem)
    assert report.safe_dim == safe.size
    assert report.s_dim_evaluated == safe.size - 2
    Q = stable_kernel_referee(problem.base, problem.v, safe, DEFAULT_RANK_TOL)
    assert Q.shape == (safe.size, 2)
    assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-12)
    # v = z1 and T*v = 1: the stable kernel, the complement of Q, is
    # orthogonal to 1 and z1 exactly when their window coordinates lie in
    # the span of Q.
    E = window_basis(space, safe)
    for label in ((0, 0), (1, 0)):
        c = E.conj().T @ (space.weight_array * space.monomial(label))
        assert np.linalg.norm(c - Q @ (Q.conj().T @ c)) <= 1e-12


def test_stable_kernel_uses_the_branch_rank_tolerance():
    # At tol_rank 1e-12 the witness is nonzero (branch II), so the stable
    # kernel must lose both v and T*v.
    problem = cases.problem("c3-tight-rank")
    report = theorem_verdict(problem)
    assert report.branch == "II"
    assert report.s_dim_evaluated == problem.space.dim - 2


def test_witness_vector_swap_case():
    space = make_coordinate_space(2)
    base = Op.from_exact_matrix(space, [[0.0, 1.0], [1.0, 0.0]])
    x = witness_vector(stage_problem(base, space.basis_vector(1)))
    assert np.allclose(x, space.basis_vector(0))


def test_witness_vector_bidisc_case():
    from twoiso.function_spaces import bidisc_shift

    base = bidisc_shift(3, axis=1)
    x = witness_vector(stage_problem(base, base.space.monomial((1, 0))))
    assert np.allclose(x, base.space.monomial((0, 0)))


def test_witness_vector_parallel_case_is_none():
    space = make_coordinate_space(3)
    rng = np.random.default_rng(53)
    v = random_vec(space, rng)
    v = v / space.norm(v)
    assert witness_vector(stage_problem(identity(space), v)) is None


def test_witness_vector_matches_adjoint_route_on_weighted_spaces():
    # Non-unit weights: the one-product T*v against the adjoint matrix and
    # against the adjoint solved from its defining equations. Every third
    # T has T*v = conj(c) v (branch I): T = c I + b⊗a with b orthogonal to v.
    rng = np.random.default_rng(56)
    branches = set()
    trials = 0
    while trials < 60:
        space = random_weighted_space(rng, max_dim=6)
        if space.dim < 2:
            continue
        v = random_vec(space, rng)
        v = v / space.norm(v)
        if trials % 3 == 0:
            b = random_vec(space, rng)
            b = b - space.inner(b, v) * v
            c = complex(rng.standard_normal(), rng.standard_normal())
            T = add(
                Op.from_exact_matrix(space, c * np.eye(space.dim)),
                rank_one(space, b, random_vec(space, rng)),
            )
        else:
            T = random_op(space, rng)
        x = witness_vector(stage_problem(T, v))
        for tstar in (adjoint(T).matrix, brute_force_adjoint(T)):
            tstar_v = tstar @ v
            ref = tstar_v - space.inner(tstar_v, v) * v
            if space.norm(ref) <= DEFAULT_RANK_TOL:
                assert x is None
            else:
                assert x is not None
                assert space.norm(x - ref) <= 1e-12 * space.norm(ref)
        branches.add(x is None)
        trials += 1
    assert branches == {True, False}


def test_witness_vector_dirichlet_z():
    # T*z = 2 on the Dirichlet space (weights k + 1), so for v = z / ||z||
    # the witness is sqrt(2) times the constant: branch II.
    T = dirichlet_shift(12)
    z = T.space.monomial((1,))
    v = z / T.space.norm(z)
    x = witness_vector(stage_problem(T, v))
    assert x is not None
    assert np.count_nonzero(x) == 1
    assert abs(x[0] - np.sqrt(2.0)) <= 2 * np.spacing(np.sqrt(2.0))
    report = theorem_verdict(
        PerturbationProblem(base=T, u=-T.space.monomial((2,)), v=v)
    )
    assert report.branch == "II"


def test_witness_denominator_positivity():
    # <T*v, x> is real, positive, and equals ||x||^2 for the witness.
    rng = np.random.default_rng(54)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        space = make_coordinate_space(dim)
        T = Op.from_exact_matrix(space, random_unitary(dim, rng))
        v = random_complex_vector(dim, rng)
        v = v / space.norm(v)
        x = witness_vector(stage_problem(T, v))
        if x is None:
            continue
        val = space.inner(apply(adjoint(T), v), x)
        assert abs(val.imag) <= 1e-10
        assert val.real > 0
        assert val.real == pytest.approx(space.norm(x) ** 2, abs=1e-10)


# ---------------------------------------------------------------------------
# branch classification


def test_branch_I_for_perturbed_dirichlet_setup():
    problem = dirichlet_perturbation_problem(8, PolyCoeffs((-2.0,)))
    assert witness_vector(problem) is None
    assert theorem_verdict(problem).branch == "I"


def test_branch_II_for_bidisc_setup():
    assert theorem_verdict(cases.problem("bidisc-6")).branch == "II"


def test_branch_II_for_swap_setup():
    problem = cases.problem("c2-swap")
    assert witness_vector(problem) is not None
    assert theorem_verdict(problem).branch == "II"


def test_branch_consistency_two_computations():
    # witness-norm criterion vs max |<T s, v>| over an orthonormal basis of
    # the kernel of the perturbation: the two must always agree.
    rng = np.random.default_rng(55)
    tol = 1e-9
    for trial in range(40):
        dim = int(rng.integers(2, 7))
        space = make_coordinate_space(dim)
        if trial % 3 == 0:
            T = identity(space)
            v = random_complex_vector(dim, rng)
        else:
            T = Op.from_exact_matrix(space, random_unitary(dim, rng))
            v = random_complex_vector(dim, rng)
        v = v / space.norm(v)

        by_witness = witness_vector(stage_problem(T, v, tol_rank=tol)) is None
        kernel = orthogonal_complement(space, weighted_gram_schmidt(space, [v], tol), tol=tol)
        worst = 0.0
        for s in kernel.T:
            worst = max(worst, abs(space.inner(apply(T, s), v)))
        by_invariance = worst <= tol
        assert by_witness == by_invariance


# ---------------------------------------------------------------------------
# gamma


def test_gamma_zero_for_swap_example():
    problem = cases.problem("c2-swap")
    x = witness_vector(problem)
    g = gamma_coefficient(problem, x)
    assert g == pytest.approx(0.0, abs=1e-12)


def test_gamma_zero_for_bidisc_example():
    problem = cases.problem("bidisc-6")
    x = witness_vector(problem)
    g = gamma_coefficient(problem, x)
    assert g == pytest.approx(0.0, abs=1e-12)


def test_gamma_scaling_invariance():
    rng = np.random.default_rng(56)
    count = 0
    while count < 100:
        dim = int(rng.integers(2, 7))
        space = make_coordinate_space(dim)
        T = Op.from_exact_matrix(space, random_unitary(dim, rng))
        u = random_complex_vector(dim, rng)
        v = random_complex_vector(dim, rng)
        v = v / space.norm(v)
        problem = stage_problem(T, v, u)
        x = witness_vector(problem)
        if x is None:
            continue
        c = complex(rng.uniform(0.1, 3.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g1 = gamma_coefficient(problem, x)
        g2 = gamma_coefficient(problem, c * x)
        assert abs(g1 - g2) <= 1e-12 * max(1.0, abs(g1))
        count += 1


def test_gamma_forward_formula_matches_adjoint_route():
    # On exact spaces the folded formula Re(<u,TPTx>/<v,Tx>) must agree with
    # the literal Re(<T* P T* u, x> / <T*v, x>).
    rng = np.random.default_rng(57)
    count = 0
    while count < 30:
        dim = int(rng.integers(2, 7))
        space = make_coordinate_space(dim)
        T = Op.from_exact_matrix(space, random_unitary(dim, rng))
        u = random_complex_vector(dim, rng)
        v = random_complex_vector(dim, rng)
        v = v / space.norm(v)
        problem = stage_problem(T, v, u)
        x = witness_vector(problem)
        if x is None:
            continue
        Ts = adjoint(T)
        w = apply(Ts, u)
        w = w - space.inner(w, v) * v
        w = apply(Ts, w)
        literal = np.real(space.inner(w, x) / space.inner(apply(Ts, v), x))
        folded = gamma_coefficient(problem, x)
        assert folded == pytest.approx(float(literal), abs=1e-10)
        count += 1


def test_gamma_degenerate_denominator():
    space = make_coordinate_space(3)
    T = identity(space)
    u = space.basis_vector(0)
    v = space.basis_vector(1)
    x = space.basis_vector(2)  # orthogonal to T*v = v
    with pytest.raises(ValueError, match="degenerate denominator"):
        gamma_coefficient(stage_problem(T, v, u), x)


def test_gamma_guard_does_not_depend_on_the_scale_of_x():
    # The guard compares |<T*v, x>| with tol_rank ||x||: 1e-10 times the unit
    # witness gives the gamma of the unit witness, and an x orthogonal to
    # T*v raises at every scale.
    problem = cases.problem("bidisc-6")
    space = problem.space
    x = witness_vector(problem)
    xhat = x / space.norm(x)
    assert gamma_coefficient(problem, 1e-10 * xhat) == pytest.approx(
        gamma_coefficient(problem, xhat), abs=1e-12)
    ortho = space.basis_vector(space.dim - 1)
    assert space.inner(apply(adjoint(problem.base), problem.v), ortho) == 0
    for scale in (1e-10, 1.0, 1e10):
        with pytest.raises(ValueError, match="degenerate denominator"):
            gamma_coefficient(problem, scale * ortho)


# ---------------------------------------------------------------------------
# condition residuals


def test_condition_iib_swap_numbers():
    # ||u||^2 = 4, <u, Tv> = -2, gamma = 0: residual |4 + 2(0 - 2)| = 0
    problem = cases.problem("c2-swap")
    assert condition_iib_residual(problem, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_condition_iib_scaled_u_breaks_balance():
    # doubling u gives |16 + 2(0 - 4)| = 8
    problem = cases.problem("c2-swap-2u")
    assert condition_iib_residual(problem, 0.0) == pytest.approx(8.0, abs=1e-12)


def test_condition_iia_zero_for_bidisc():
    problem = cases.problem("bidisc-6")
    report = theorem_verdict(problem)
    assert report.cond_iia_residual <= 1e-12


def test_condition_iia_over_stable_kernel_only_branch_I():
    # For an admissible polynomial perturbation the perturbed defect kills
    # the whole kernel of the perturbation, so the invariance residual over
    # the stable kernel alone vanishes. In branch I, T*v is parallel to v,
    # so the stable kernel is the complement of v in the window.
    problem = dirichlet_perturbation_problem(10, PolyCoeffs((-2.0,)))
    Tt = problem.perturbed()
    safe = Tt.window.idx
    c_v = np.sqrt(problem.space.weight_array[safe]) * problem.v[safe]
    Q = (c_v / np.linalg.norm(c_v))[:, None]
    G = polarized_defect_form(Tt).defect_matrix
    resid = stable_kernel_block_residual(G, Q)
    assert resid <= 1e-10


def test_condition_iia_zero_while_verdict_false():
    # Scaled swap correction: the invariance condition still holds (the
    # stable kernel is trivial and the defect preserves the witness line)
    # while the kernel condition and the norm balance fail.
    problem = cases.problem("c2-swap-2u")
    report = theorem_verdict(problem)
    assert report.cond_iia_residual <= 1e-12
    assert report.kernel_residual == pytest.approx(8.0, abs=1e-12)
    assert report.cond_iib_residual == pytest.approx(8.0, abs=1e-12)
    assert not report.verdict_theorem
    assert not report.verdict_oracle


def test_condition_iia_residual_finite_when_its_squares_overflow():
    # The window image of the witness has entries past 1e154; an unscaled
    # norm of it overflowed to inf while every other residual stayed finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = theorem_verdict(cases.problem("c4-huge-u"))
    assert report.branch == "II"
    assert 1e200 < report.cond_iia_residual < np.inf
    assert 1e200 < report.kernel_residual < np.inf
    assert 1e200 < report.oracle_defect < np.inf
    assert not report.verdict_theorem and not report.verdict_oracle


def test_condition_iia_bidisc_large_window():
    # N = 18: a 153-dimensional safe window and a 151-dimensional stable
    # kernel, read off the window Gram matrix in one block product.
    report = theorem_verdict(cases.problem("bidisc-18"))
    assert report.branch == "II"
    assert report.safe_dim == 153
    assert report.s_dim_evaluated == 151
    assert report.cond_iia_residual <= 1e-12
    assert report.verdict_theorem and report.verdict_oracle


# Branch II cases with a stable kernel inside a small window.
_IIA_REFEREE = ["bidisc-8-off-example", "bidisc-8-v-mass-above-window", "bidisc-8-v-off-unit",
                "c3-tight-rank", "weighted-c6-false", "weighted-c6-true"]


@pytest.mark.parametrize("case", _IIA_REFEREE)
def test_condition_iia_matches_polarization_referee(case):
    # Polarization builds G one entry at a time, independent of the Gram
    # products that the report reads condition (a) from, and the referee
    # spans v and T*v from the adjoint by Gram-Schmidt, not from the witness.
    problem = cases.problem(case)
    report = theorem_verdict(problem)
    assert report.branch == "II"
    Tt = problem.perturbed()
    safe = Tt.window.idx
    G_pol = polarized_form_by_entries(Tt, safe)
    Q = stable_kernel_referee(problem.base, problem.v, safe, problem.tol_rank)
    r, k = Q.shape
    assert report.s_dim_evaluated == r - 2 == r - k
    block = Q.conj().T @ G_pol @ (np.eye(r) - Q @ Q.conj().T)
    assert block.shape == (k, r)
    block_norm = float(np.linalg.norm(block, 2))
    x = witness_vector(problem)
    space = problem.space
    c_x = window_basis(space, safe).conj().T @ (space.weight_array * x) / space.norm(x)
    img = G_pol @ c_x
    witness = float(np.linalg.norm(img - np.vdot(c_x, img) * c_x))
    # cond_iia_residual is the witness-line residual, read off the Gram G;
    # the block on the stable kernel is the test helper's referee.
    form = polarized_defect_form(Tt)
    G = form.defect_matrix
    tol = 1e-12 * max(1.0, float(np.linalg.norm(G, 2)))
    assert abs(block_norm - stable_kernel_block_residual(G, Q)) <= tol
    assert abs(witness - condition_iia_residual(form, c_x)) <= tol
    assert abs(witness - report.cond_iia_residual) <= tol


@pytest.mark.parametrize("case", _IIA_REFEREE)
def test_condition_iia_spectral_norm_within_basis_max_bounds(case):
    # The former residual: the largest leftover norm of a defect image over
    # a Gram-Schmidt basis of the stable kernel S, each image from
    # polarization. The spectral norm of the block is at least every column
    # norm and at most the Frobenius norm: old <= block <= sqrt(dim S) old,
    # up to round-off. S is built in Euclidean window coordinates
    # c = E^H W x. The reported witness-line residual is within the kernel
    # residual of the block.
    problem = cases.problem(case)
    Tt = problem.perturbed()
    safe = Tt.window.idx
    space = problem.space
    E = window_basis(space, safe)
    coords = E.conj().T * space.weight_array
    window = make_coordinate_space(safe.size)
    gens = weighted_gram_schmidt(
        window,
        [coords @ problem.v, coords @ apply(adjoint(problem.base), problem.v)],
        problem.tol_rank,
    )
    stable = orthogonal_complement(window, gens, tol=problem.tol_rank)
    old = 0.0
    for c in stable.T:
        img = coords @ defect_image_by_entries(Tt, E @ c)
        old = max(old, window.norm(img - project(window, stable, img)))
    G = polarized_defect_form(Tt).defect_matrix
    Q = stable_kernel_referee(problem.base, problem.v, safe, problem.tol_rank)
    block = stable_kernel_block_residual(G, Q)
    report = theorem_verdict(problem)
    dim_s = stable.shape[1]
    assert dim_s == safe.size - Q.shape[1] == report.s_dim_evaluated
    assert old - 1e-12 <= block <= np.sqrt(dim_s) * old + 1e-12
    slack = 1e-12 * max(1.0, float(np.linalg.norm(G, 2)))
    assert abs(report.cond_iia_residual - block) <= report.kernel_residual + slack


def _verdicts_with_block(problem: PerturbationProblem, report) -> tuple:
    """Branch and both verdicts with condition (a) read as the larger of the
    block on the stable kernel, Q from a QR of the window coordinates of v
    and the unit witness, and the witness-line residual."""
    tol = problem.tol_defect
    Tt = problem.perturbed()
    oracle = polarized_defect_form(Tt)
    x = witness_vector(problem)
    if x is None:
        return "I", report.kernel_residual <= tol, oracle.max_residual <= tol
    space = problem.space
    safe = Tt.window.idx
    pair = np.stack([problem.v, x / space.norm(x)], 1)[safe]
    Q = np.linalg.qr(np.sqrt(space.weight_array[safe, None]) * pair)[0]
    iia = max(stable_kernel_block_residual(oracle.defect_matrix, Q), report.cond_iia_residual)
    theorem = max(report.kernel_residual, iia, report.cond_iib_residual) <= tol
    return "II", theorem, oracle.max_residual <= tol


@pytest.mark.parametrize(
    "family, seed, trials",
    [("criterion-6", 20261019, 600), ("bidisc-8-near-tolerance", 63, 52)],
    ids=["c2-c6-criterion-6", "bidisc-8-near-tolerance"],
)
def test_witness_line_verdicts_match_the_block_formulation(family, seed, trials):
    # Condition (a) on the witness line alone gives the same branch and
    # verdicts as the larger of it and the stable-kernel block: the two
    # differ by at most the kernel residual, which the verdict also bounds.
    seen = set()
    for problem in cases.FAMILIES[family](seed, trials):
        report = theorem_verdict(problem)
        got = (report.branch, report.verdict_theorem, report.verdict_oracle)
        assert got == _verdicts_with_block(problem, report)
        seen.add(got)
    # Both verdicts occur, so the comparison is not vacuous.
    assert {v[1] for v in seen} == {True, False}


@pytest.mark.parametrize("case", [
    "bidisc-8-off-example", "bidisc-8-v-mass-above-window", "bidisc-8-v-off-unit",
    "dirichlet-24-cubic", "dirichlet-24-cubic-v-mass-above-band", "dirichlet-24-iz",
    "dirichlet-n0-alpha-1e50", "weighted-c6-false", "weighted-c6-true"])
def test_kernel_residual_matches_entrywise_polarization(case):
    # The base's defect row plus the rank-4 update, read over the whole window,
    # against the scalar referee, which polarizes one window entry of
    # T + u⊗v at a time.
    problem = cases.problem(case)
    Tt = problem.perturbed()
    image = defect_image_by_entries(Tt, problem.v)
    referee = problem.space.norm(image)
    value = kernel_condition_residual(problem)
    assert abs(value - referee) <= 1e-12 * max(1.0, referee)
    batched = defect_apply_in_window(Tt, problem.v)
    assert problem.space.norm(batched - image) <= 1e-12 * max(1.0, referee)
    # The same residual off the direct build of G~: for a truncation-safe v
    # with window coordinates c_v, E^H W D v = G c_v. Its norm is taken after
    # the power-of-two scaling of the library's norms, so 1e200 stays finite.
    idx = Tt.window.idx
    c_v = np.sqrt(problem.space.weight_array[idx]) * problem.v[idx]
    g_image = polarized_defect_form(Tt).defect_matrix @ c_v
    scale = pow2_scale(g_image)
    via_g = float(np.linalg.norm(g_image * scale)) / scale
    assert abs(via_g - value) <= 1e-14 * max(1.0, value)


@pytest.mark.parametrize("case", [*cases.LADDER, "dirichlet-24-cubic",
                                  "dirichlet-24-cubic-v-mass-above-band",
                                  "bidisc-8-off-example", "weighted-c4"])
def test_kernel_residual_is_one_window_call(monkeypatch, case):
    # One defect_quadratic call, on the base, whose labels are the whole
    # window of T + u⊗v.
    if case == "weighted-c4":
        rng = np.random.default_rng(71)
        space = make_coordinate_space(4, weights=tuple(rng.uniform(0.5, 3.0, size=4)))
        T = Op.from_exact_matrix(space, random_unitary(4, rng))
        problem = stage_problem(T, random_vec(space, rng), random_vec(space, rng))
    else:
        problem = cases.problem(case)
    calls = []

    def recording(T, x, idx=None):
        calls.append((T, idx))
        return defect_quadratic(T, x, idx)

    monkeypatch.setattr(analysis, "defect_quadratic", recording)
    kernel_condition_residual(problem)
    assert len(calls) == 1
    assert calls[0][0] is problem.base
    assert np.array_equal(calls[0][1], problem.window.idx)


@pytest.mark.parametrize("case", ["dirichlet-12", "bidisc-6"])
def test_one_verdict_builds_each_operators_window_once(monkeypatch, case):
    # The base builds its window through safe_subspace when the problem
    # validates it, and the problem builds the window of T + u⊗v from the
    # growth when the verdict reads it; no T + u⊗v and so no window of it is
    # built. The form, the kernel residual and the witness read the cached
    # windows.
    built, windows = [], []
    build, init = operators.safe_subspace, operators.Window.__init__
    monkeypatch.setattr(operators, "safe_subspace", lambda T: built.append(T) or build(T))
    monkeypatch.setattr(operators.Window, "__init__",
                        lambda self, *args: windows.append(self) or init(self, *args))
    problem = cases.problem(case)
    report = theorem_verdict(problem)
    assert built == [problem.base]
    assert windows == [problem.base.window, problem.window]
    assert report.safe_dim == problem.window.idx.size


def test_verdict_refuses_an_empty_perturbed_window():
    # M_z on Dirichlet N = 3 has growth 1 and the window {1, z}; z^3 ⊗ 1 has
    # growth 3, so T + u⊗v has no label of degree <= 3 - 6.
    base = dirichlet_shift(3)
    problem = PerturbationProblem(base, base.space.monomial((3,)), base.space.basis_vector(0))
    assert base.window.idx.size == 2
    with pytest.raises(TruncationError, match="truncation too small: no labels of degree <= -3"):
        theorem_verdict(problem)


def test_perturbed_window_at_max_dim_reads_the_supports_in_little_memory():
    # Seeded normals times 2^-k, k < 2000, keep about 1,075 nonzeros each:
    # a scan of the products u_i w_j conj(v_j) built their 1,075^2 block and
    # its mask and peaked at 40 MiB, only to refuse an empty window. The
    # growth reads the top degree of u and the lowest of v.
    base = dirichlet_shift(1999)
    rng = np.random.default_rng(1999)
    u, v = (rng.standard_normal(2000) * 2.0 ** -rng.integers(0, 2000, 2000) for _ in "uv")
    problem = PerturbationProblem(base, u, v)
    degs = base.space.degrees
    top, low = degs[problem.u != 0].max(), degs[problem.v != 0].min()
    assert 1000 < np.count_nonzero(problem.u) and 1000 < np.count_nonzero(problem.v)
    assert _traced_peak(lambda: problem.window) < 2**20
    assert problem.window.cutoff == base.space.max_degree - 2 * (top - low)
    assert not problem.window.idx.size


def test_kernel_residual_refuses_its_own_overflow_without_a_warning():
    # ||u||^2 = 2e320 overflows and so does the update's core M, while the
    # base's row is finite: the kernel residual's own check raises, with no
    # RuntimeWarning. A verdict refuses the problem earlier, at the oracle.
    base = dirichlet_shift(12)
    problem = PerturbationProblem(base, 1e160 * base.space.monomial((1,)),
                                  base.space.basis_vector(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the defect overflows"):
            kernel_condition_residual(problem)
        with pytest.raises(ValueError, match="^the defect form overflows"):
            theorem_verdict(problem)


# The real cases small enough for rational arithmetic whose defect is finite:
# both exactly zero and nonzero kernel images occur among them. The last one
# is 2 M_z on Dirichlet N = 24 at v = 1 + 1e-14 z^10, whose image at z^10 is
# 1.23e-12 / 11: the four-term polarization referee reads it 1e-3 off.
_SMALL_ENTRY = "dirichlet-24-2mz-small-entry"
_EXACT_CASES = [name for name in cases.names(field="real")
                if cases.CASES[name].verdicts is not None
                and cases.problem(name).space.dim <= 45] + [_SMALL_ENTRY]
_EXACT_GAP = 4  # multiples of eps * scale; the worst case reads 0.79


@pytest.mark.parametrize("case", _EXACT_CASES)
def test_kernel_residual_matches_the_exact_rational_image(case):
    # The kernel image of the stored floats of T + u⊗v in exact rational
    # arithmetic: an entry that is exactly zero is read as exactly zero, each
    # entry is within _EXACT_GAP eps of its own scale, the entry of the image
    # of |T + u⊗v| and |v| with the three terms added, and the norm is within
    # _EXACT_GAP eps of the norm of that scale. The verdict's kernel residual
    # reads the base's row plus the rank-4 update, so its referee is the image
    # of the problem's own floats, T + u⊗v added exactly: within the same gap,
    # and exactly zero where that image is.
    if case == _SMALL_ENTRY:
        shift = dirichlet_shift(24)
        Tt = Op(shift.space, 2.0 * shift.matrix, degree_growth=1)
        v = shift.space.basis_vector(0) + 1e-14 * shift.space.monomial((10,))
        problem = None
    else:
        problem = cases.problem(case)
        Tt, v = problem.perturbed(), problem.v
    idx = Tt.window.idx
    weights = [Fraction(w) for w in Tt.space.weight_array[idx].tolist()]
    exact = exact_kernel_image(Tt, v)
    scales = exact_kernel_image(Tt, v, absolute=True)
    image = defect_apply_in_window(Tt, v)[idx]
    assert not image.imag.any()
    assert all(image[i] == 0 for i, value in enumerate(exact) if value == 0)
    eps = Fraction(np.finfo(float).eps)
    for entry, value, scale, w in zip(image.real.tolist(), exact, scales, weights):
        assert abs(Fraction(entry) - value / w) <= _EXACT_GAP * eps * scale / w

    def norm(values):
        return exact_sqrt(sum((value * value / w for value, w in zip(values, weights)),
                              Fraction(0)))

    value = Tt.space.norm(defect_apply_in_window(Tt, v))
    assert abs(value - norm(exact)) <= _EXACT_GAP * np.finfo(float).eps * norm(scales)
    assert (value == 0) == (not any(exact))
    if problem is None:
        return
    assert np.array_equal(problem.window.idx, idx)
    exact = exact_kernel_image(problem.base, v, u=problem.u, idx=idx)
    scales = exact_kernel_image(problem.base, v, absolute=True, u=problem.u, idx=idx)
    value = kernel_condition_residual(problem)
    assert abs(value - norm(exact)) <= _EXACT_GAP * np.finfo(float).eps * norm(scales)
    assert (value == 0) == (not any(exact))


def _traced_peak(fn, *args) -> int:
    """Peak bytes that numpy and Python allocate while fn(*args) runs."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not outer:
            tracemalloc.stop()


def test_kernel_residual_peak_memory_within_the_oracle_form():
    # The kernel residual reads one defect row of length dim and the update's
    # five rows, not a block of the window. The yardstick is the dense real
    # form.
    problem = cases.problem("bidisc-18-dense")
    kernel = _traced_peak(kernel_condition_residual, problem)
    assert kernel <= _traced_peak(polarized_defect_form, problem.perturbed())


def test_kernel_condition_residuals():
    assert kernel_condition_residual(cases.problem("bidisc-6")) <= 1e-12
    assert kernel_condition_residual(cases.problem("c2-swap")) <= 1e-14
    shift = dirichlet_shift(10)
    one = shift.space.basis_vector(0)
    assert kernel_condition_residual(PerturbationProblem(shift, one, one)) >= 0.9


# ---------------------------------------------------------------------------
# the oracle as the base form plus a rank-4 update


_UPDATE_REFEREE = [*cases.LADDER, "dirichlet-12-z3", "dirichlet-40-z3",
                   "dirichlet-12-0.3iz-0.2z3", "dirichlet-40-0.3iz-0.2z3",
                   "dirichlet-12-z3-reversed-labels", "bidisc-8-off-example",
                   "non-2-isometric-base", "dirichlet-n0-alpha-1e50"]


def _update_id(name: str) -> str:
    return f"ladder-{name}" if name in cases.LADDER else name


def _assert_verdict_form_matches_direct_build(monkeypatch, problems) -> int:
    """Run theorem_verdict on each problem, catching the form that it reads,
    and compare that form and the report's oracle_defect with the direct
    build of G(T + u⊗v), and the base's cached form with a fresh build of
    G(T); returns how many problems changed the window."""
    forms = []
    update = analysis._perturbed_defect_form
    monkeypatch.setattr(
        analysis, "_perturbed_defect_form", lambda *args: forms.append(update(*args)) or forms[-1]
    )
    shrunk = 0
    for problem in problems:
        report = theorem_verdict(problem)
        direct = polarized_defect_form(problem.perturbed())
        G, H = forms.pop().defect_matrix, direct.defect_matrix
        assert G.shape == H.shape == (report.safe_dim,) * 2
        slack = 1e-13 * max(1.0, direct.max_residual)
        assert float(np.max(np.abs(G - H))) <= slack
        assert abs(report.oracle_defect - direct.max_residual) <= slack
        base_form = problem.base.defect_form.defect_matrix
        assert np.array_equal(base_form, polarized_defect_form(problem.base).defect_matrix)
        shrunk += report.safe_dim < base_form.shape[0]
    return shrunk


@pytest.mark.parametrize("case", _UPDATE_REFEREE, ids=_update_id)
def test_oracle_update_matches_the_direct_build(monkeypatch, case):
    # The direct build of the perturbed form is the referee of the rank-4
    # update; where u⊗v grows degree more than T, the window shrinks.
    problem = cases.problem(case)
    shrunk = _assert_verdict_form_matches_direct_build(monkeypatch, [problem])
    assert shrunk == ("z3" in case)


def test_oracle_update_matches_the_direct_build_weighted_spread(monkeypatch):
    _assert_verdict_form_matches_direct_build(monkeypatch, cases.weighted_spread(65, 200))


def test_gamma_and_condition_iib_match_the_apply_referee():
    # The report reads gamma and (b) off the oracle update's rows; the
    # referee folds gamma to Re(<u, T P T x> / <v, T x>) and takes <u, Tv>,
    # each from forward applications of T, independent of those rows.
    verdicts = set()
    for problem in itertools.chain(
            cases.criterion_6(20261020, 200),
            map(cases.problem, ("weighted-c4-true", "weighted-c4-false")),
            cases.bidisc_near_tolerance(63, 52),
            [cases.problem("dirichlet-12-z-reversed-labels")]):
        report = theorem_verdict(problem)
        if report.branch == "I":
            continue
        space, T, u, v = problem.space, problem.base, problem.u, problem.v
        x = witness_vector(problem)
        tx = apply(T, x / space.norm(x))
        ptx = tx - space.inner(tx, v) * v
        gamma = float(np.real(space.inner(u, apply(T, ptx)) / space.inner(v, tx)))
        nu2 = space.norm(u) ** 2
        iib = abs(nu2 + 2.0 * (gamma + np.real(space.inner(u, apply(T, v)))))
        assert abs(report.gamma - gamma) <= 1e-12 * max(1.0, abs(gamma))
        assert abs(report.cond_iib_residual - iib) <= 1e-12 * max(1.0, nu2)
        verdicts.add(report.verdict_theorem)
    assert verdicts == {True, False}


def test_verdict_makes_no_apply_call(monkeypatch):
    # The witness, gamma and (b) read the rows that the oracle update builds,
    # so a verdict applies no operator to a vector on its own.
    calls = []
    real = operators.apply

    def counted(A, x):
        calls.append(A)
        return real(A, x)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "twoiso"]:
        if getattr(module, "apply", None) is real:
            monkeypatch.setattr(module, "apply", counted)
    for name in ("bidisc-8", "c2-swap", "dirichlet-12-z-reversed-labels", "weighted-c6-false",
                 "dirichlet-12"):
        theorem_verdict(cases.problem(name))
    assert calls == []
    operators.apply(cases.problem("c2-swap").base, [1.0, 0.0])
    assert len(calls) == 1


def test_verdict_builds_no_perturbed_operator(monkeypatch):
    # The window of T + u⊗v comes from the growth, the oracle and condition
    # (a) from the base form and the update's rows, and the kernel residual
    # from the base's defect row: a verdict calls no perturb and constructs
    # no Op.
    problems = [cases.problem(name) for name in (*cases.LADDER, "c2-swap", "weighted-c6-false",
                                                 "dirichlet-24-complex-p", "bidisc-18-dense")]
    perturbs, ops = [], []
    real, init = operators.perturb, Op.__post_init__
    for module in (operators, analysis):
        monkeypatch.setattr(module, "perturb", lambda *args: perturbs.append(args) or real(*args))
    monkeypatch.setattr(Op, "__post_init__", lambda self: ops.append(self) or init(self))
    for problem in problems:
        theorem_verdict(problem)
    assert perturbs == [] and ops == []
    problems[0].perturbed()
    assert len(perturbs) == len(ops) == 1


@pytest.mark.parametrize("case", cases.LADDER)
def test_ladder_update_lives_on_one_or_two_labels(case):
    # M_z - 2z⊗1 with v = 1 moves the form at the constant alone; the bidisc
    # example M_z1 + (-z1^2 + z2)⊗z1 at 1 and z1.
    form = analysis._perturbed_defect_form(cases.problem(case))
    assert form.diagonal is not None
    assert form.support.size == (1 if case.startswith("dirichlet") else 2)
    assert form.block.shape == (form.support.size,) * 2


@pytest.mark.parametrize("case", [name for name in cases.CASES
                                  if cases.CASES[name].verdicts is not None])
def test_oracle_defect_is_the_largest_entry_of_the_dense_form(case):
    # The dense build of G~ is the referee of the support path: the report's
    # oracle_defect is its largest entry within 4 ulp, and the form that the
    # verdict reads, built as a dense matrix for this check, is that matrix.
    problem = cases.problem(case)
    report = theorem_verdict(problem)
    dense = dense_perturbed_form(problem)
    largest = float(np.abs(dense).max())
    assert abs(report.oracle_defect - largest) <= 4 * np.spacing(largest)
    form = analysis._perturbed_defect_form(problem)
    assert form.defect_matrix.dtype == dense.dtype
    assert float(np.abs(form.defect_matrix - dense).max()) <= 4 * np.spacing(largest)


def test_update_rows_are_built_once_per_problem_and_read_only(monkeypatch):
    builds = []
    build = PerturbationProblem.__dict__["update"].func
    counted = cached_property(lambda self: builds.append(self) or build(self))
    counted.__set_name__(PerturbationProblem, "update")
    monkeypatch.setattr(PerturbationProblem, "update", counted)
    problem = cases.problem("bidisc-8")
    first = theorem_verdict(problem)
    x = witness_vector(problem)
    condition_iib_residual(problem, gamma_coefficient(problem, x))
    assert theorem_verdict(problem) == first
    assert len(builds) == 1 and builds[0] is problem
    R, M = problem.update
    assert R.shape == (5, problem.space.dim) and M.shape == (5, 5)
    assert np.array_equal(M, M.conj().T)
    for arr in (R, M):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    theorem_verdict(PerturbationProblem(base=problem.base, u=problem.u, v=problem.v))
    assert len(builds) == 2


def _count_defect_form_builds(monkeypatch) -> list:
    calls = []
    direct = operators.polarized_defect_form
    monkeypatch.setattr(
        operators, "polarized_defect_form", lambda T: calls.append(T) or direct(T)
    )
    return calls


def test_one_full_defect_form_per_problem(monkeypatch):
    # The base form is built once, to validate the base, and cached on it;
    # the perturbed form is read off it, and a second problem on the same
    # base builds nothing.
    calls = _count_defect_form_builds(monkeypatch)
    for name in ("bidisc-8", "c2-swap", "dirichlet-12-z3"):
        calls.clear()
        problem = cases.problem(name)
        theorem_verdict(problem)
        assert len(calls) == 1
        again = PerturbationProblem(base=problem.base, u=2.0 * problem.u, v=problem.v)
        theorem_verdict(again)
        assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["reproduce", "dirichlet-pper", "--format", "json"],
    ["search", "c2-rankone", "--trials", "8", "--format", "json"],
])
def test_one_full_defect_form_per_command_base(monkeypatch, capsys, argv):
    # dirichlet-pper runs three problems on one shift, and the c2-rankone
    # search runs every trial on one swap.
    calls = _count_defect_form_builds(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_problem_is_frozen_so_its_base_form_stays_the_bases():
    # A base swapped in, or a base matrix rescaled, after construction would
    # leave the kept form stale, and the oracle would read the old base's
    # form with the new matrix: 2.25 against 1.5625 from a direct build.
    problem = cases.problem("bidisc-8")
    with pytest.raises(AttributeError):
        problem.base = Op(problem.space, 1.5 * problem.base.matrix, degree_growth=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.base.matrix = 1.5 * problem.base.matrix
    report = theorem_verdict(problem)
    direct = polarized_defect_form(problem.perturbed()).max_residual
    assert abs(report.oracle_defect - direct) <= 1e-13 * max(1.0, direct)


def test_oracle_update_peak_memory_below_the_direct_build():
    # On a dense base the update allocates r x r and (5, r) arrays; the
    # direct dense build holds two (dim, r) buffers as well. A real A enters
    # the update's rows through real products, with no complex dim x dim copy.
    problem = cases.problem("bidisc-18-dense")
    update = _traced_peak(analysis._perturbed_defect_form, problem)
    assert update < _traced_peak(polarized_defect_form, problem.perturbed())


def test_base_form_and_verdict_peak_at_one_and_two_window_matrices_at_dirichlet_400():
    # The shift's base form is its diagonal: the scan of its nonzeros holds a
    # boolean dim x dim mask, 1/8 of an r x r float64 matrix (it kept the
    # r x r matrix, within 1.1, before). The verdict, real or complex
    # (p = (e^{i pi/3} - 1) z), builds no T + u⊗v and no r x r matrix: the
    # oracle is the |S| x |S| block and the update's rows (within 2.2 and
    # 5.5 before). The same at MAX_DIM; there the kernel residual of each
    # reads one defect row, within 0.05 window matrices.
    for N in (400, 1999):
        T = dirichlet_shift(N)
        window = 8 * (N - 1) ** 2
        one = T.space.basis_vector(0)
        assert _traced_peak(lambda: T.defect_form) <= 0.25 * window
        problems = [PerturbationProblem(T, p * T.space.basis_vector(1), one)
                    for p in (-2.0, np.exp(1j * np.pi / 3) - 1)]
        for problem in problems:
            assert _traced_peak(theorem_verdict, problem) <= 0.25 * window
    for problem in problems:
        assert _traced_peak(kernel_condition_residual, problem) <= 0.05 * window


# ---------------------------------------------------------------------------
# the field of the problem


def _verdict_forms(monkeypatch) -> list:
    """Collects (problem, window labels, oracle form) of every verdict run
    after the call."""
    seen = []
    form = analysis._perturbed_defect_form

    def kept(problem):
        report = form(problem)
        seen.append((problem, problem.window.idx, report))
        return report

    monkeypatch.setattr(analysis, "_perturbed_defect_form", kept)
    return seen


# The declared field of each verdict that _ladder_and_reproduce_forms sees:
# the ladder, then reproduce all's c2-example, dirichlet-pper's p = -2z,
# (e^{i pi/3} - 1) z and i z, dirichlet-n0 at alpha = 1 and bidisc.
_REPRODUCE_FIELDS = ["real", "real", "complex", "complex", "real", "real"]


def _ladder_and_reproduce_forms(monkeypatch, capsys) -> list:
    seen = _verdict_forms(monkeypatch)
    for name in cases.LADDER:
        theorem_verdict(cases.problem(name))
    assert main(["reproduce", "all", "--format", "json"]) == 0
    capsys.readouterr()
    return seen


def test_real_problems_build_rows_and_oracle_in_float64(monkeypatch, capsys):
    # Every ladder rung is real, and so are the reproduce cases c2-example,
    # dirichlet-pper's p = -2z, dirichlet-n0 at alpha = 1 and bidisc;
    # dirichlet-pper's (e^{i pi/3} - 1) z and i z have a complex u.
    seen = _ladder_and_reproduce_forms(monkeypatch, capsys)
    fields = [cases.CASES[name].field for name in cases.LADDER] + _REPRODUCE_FIELDS
    assert len(seen) == len(fields)
    for (problem, _, G), field in zip(seen, fields):
        R, M = problem.update
        assert R.dtype == M.dtype == G.block.dtype == cases.DTYPES[field]


def test_real_oracle_matches_the_complex_path(monkeypatch, capsys):
    fields = [cases.CASES[name].field for name in cases.LADDER] + _REPRODUCE_FIELDS
    seen = [case for case, field in zip(_ladder_and_reproduce_forms(monkeypatch, capsys), fields)
            if field == "real"]
    assert len(seen) == 12
    for problem, idx, G in seen:
        referee = complex_path_oracle(problem, idx)
        scale = max(1.0, float(np.abs(referee).max()))
        assert float(np.abs(G.defect_matrix - referee).max()) <= 1e-15 * scale


def test_complex_u_or_base_keeps_complex_rows_and_oracle(monkeypatch):
    # p = (e^{i pi/3} - 1) z on the real Dirichlet shift, and a C^2 unitary
    # with an isometric correction: both stay in complex arithmetic.
    rng = np.random.default_rng(2501)
    U = random_unitary(2, rng)
    u, v = isometric_correction_pair(U, random_complex_vector(2, rng), 0.7)
    unitary = Op.from_exact_matrix(make_coordinate_space(2), U)
    seen = _verdict_forms(monkeypatch)
    for problem in (cases.problem("dirichlet-24-complex-p"), PerturbationProblem(unitary, u, v)):
        report = theorem_verdict(problem)
        assert report.verdict_theorem and report.verdict_oracle
    assert [p.base.matrix.dtype for p, _, _ in seen] == [np.float64, np.complex128]
    for problem, idx, G in seen:
        R, M = problem.update
        assert R.dtype == M.dtype == G.block.dtype == np.complex128
        referee = complex_path_oracle(problem, idx)
        scale = max(1.0, float(np.abs(referee).max()))
        assert float(np.abs(G.defect_matrix - referee).max()) <= 1e-15 * scale


# ---------------------------------------------------------------------------
# T + u⊗v in one pass


def _assert_perturb_matches_add_of_rank_one(T: Op, u, v) -> Op:
    """perturb(T, u, v) against the two-step build add(T, rank_one(u, v)):
    the same matrix bit for bit and the same degree growth."""
    got = perturb(T, u, v)
    referee = add(T, rank_one(T.space, u, v))
    assert np.array_equal(got.matrix, referee.matrix)
    assert got.degree_growth == referee.degree_growth
    return got


@pytest.mark.parametrize("case", _UPDATE_REFEREE, ids=_update_id)
def test_perturb_matches_add_of_rank_one(case):
    # The ladder rungs, the reversed-label Dirichlet basis and the off-example
    # bidisc problem are among the cases.
    problem = cases.problem(case)
    _assert_perturb_matches_add_of_rank_one(problem.base, problem.u, problem.v)


def test_perturb_matches_add_of_rank_one_weighted_spread():
    problems = list(cases.weighted_spread(65, 200))
    assert {p.space.dim for p in problems} == {2, 3, 4, 5, 6}
    for problem in problems:
        _assert_perturb_matches_add_of_rank_one(problem.base, problem.u, problem.v)


def test_perturb_growth_is_read_off_the_supports():
    # u_5 w_0 conj(v_0) = 1e-200 * 1e-200 underflows to 0, so column 0 of the
    # rounded u⊗v has no entry in row 5. The growth is read off the supports,
    # deg 5 - deg 0, a bound on u⊗v itself, not the 1 that the referee's scan
    # of the rounded entries reads; the matrix is the referee's bit for bit.
    space = make_dirichlet_space(8)
    T = Op(space, np.eye(space.dim), degree_growth=0)
    u = 1e-200 * space.basis_vector(5) + space.basis_vector(1)
    v = 1e-200 * space.basis_vector(0) + space.basis_vector(4)
    got = perturb(T, u, v)
    referee = add(T, rank_one(space, u, v))
    assert np.array_equal(got.matrix, referee.matrix)
    assert got.matrix[5, 0] == 0 and got.matrix[1, 0] != 0
    assert (got.degree_growth, referee.degree_growth) == (5, 1)
    assert perturb(Op(space, np.eye(space.dim)), u, v).degree_growth is None
    # Growth 5 leaves T + u⊗v no label of degree <= 8 - 10: the problem's
    # window, read off the same supports, is empty and the verdict refuses it.
    problem = PerturbationProblem(T, u, v)
    assert problem.window.cutoff == got.window.cutoff == -2
    with pytest.raises(TruncationError, match="truncation too small: no labels of degree <= -2"):
        theorem_verdict(problem)


def test_perturb_refuses_a_zero_direction():
    T = dirichlet_shift(6)
    one = T.space.basis_vector(0)
    for u, v in ((T.space.zeros(), one), (one, T.space.zeros())):
        with pytest.raises(ValueError, match="not rank one"):
            perturb(T, u, v)


def test_shift_and_perturb_peak_at_one_float_matrix_at_dirichlet_1999():
    # The shift's builder fills one float64 matrix, which its Op keeps, and
    # perturb makes one copy, in the field of the sum. A complex fill and
    # the complex copy that Op made of it peaked at four float64 matrices.
    one_matrix = 8 * 2000**2
    assert _traced_peak(dirichlet_shift, 1999) <= 1.1 * one_matrix
    T = dirichlet_shift(1999)
    one = T.space.basis_vector(0)
    assert _traced_peak(perturb, T, -2.0 * T.space.basis_vector(1), one) <= 1.1 * one_matrix


def test_exact_matrix_scan_peaks_near_one_float_matrix_at_dirichlet_1999():
    # from_exact_matrix copies the matrix once, into its field, and reads the
    # growth off the nonzeros: a boolean mask and index arrays of the
    # nonzeros, no int64 dim x dim array of degrees (2.1 matrices).
    T = dirichlet_shift(1999)
    peak = _traced_peak(Op.from_exact_matrix, T.space, T.matrix)
    assert peak <= 1.2 * 8 * 2000**2
    assert Op.from_exact_matrix(T.space, T.matrix).degree_growth == 1


@pytest.mark.parametrize("case", [
    "dirichlet-n0-alpha-1e50", "dirichlet-n0-alpha-1e76", "dirichlet-n0-alpha-1e77",
    "dirichlet-n0-alpha-1e78", "c2-identity-1e150", "c2-identity-1e154",
# The ids are the names the suite has always reported for these cases.
], ids=[f"_dirichlet_n0_problem-1e+{e}-{e == 78}" for e in (50, 76, 77, 78)]
    + [f"_c2_identity_problem-1e+{e}-{e == 154}" for e in (150, 154)])
def test_oracle_update_overflows_with_the_direct_build(case):
    # Near the top of the float range the update and the direct build raise
    # the same ValueError or agree, and neither warns; the cases that declare
    # no verdict overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = cases.problem(case)
        Tt = problem.perturbed()
        if cases.CASES[case].verdicts is None:
            for form in (lambda: analysis._perturbed_defect_form(problem),
                         lambda: polarized_defect_form(Tt)):
                with pytest.raises(ValueError, match="the defect form overflows"):
                    form()
            return
        direct = polarized_defect_form(Tt)
        update = analysis._perturbed_defect_form(problem)
    slack = 1e-13 * direct.max_residual
    assert float(np.max(np.abs(update.defect_matrix - direct.defect_matrix))) <= slack
    assert abs(update.max_residual - direct.max_residual) <= slack


# ---------------------------------------------------------------------------
# problem construction


def test_problem_normalizes_v():
    space = make_coordinate_space(2)
    base = Op.from_exact_matrix(space, [[0.0, 1.0], [1.0, 0.0]])
    problem = PerturbationProblem(
        base=base, u=-1.0 * space.basis_vector(0), v=2.0 * space.basis_vector(1)
    )
    assert problem.v_was_normalized
    assert space.norm(problem.v) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(problem.u, -2.0 * space.basis_vector(0))
    reference = rank_one(space, -1.0 * space.basis_vector(0), 2.0 * space.basis_vector(1))
    assert np.allclose(rank_one(space, problem.u, problem.v).matrix, reference.matrix)


def test_problem_rejects_non_2_isometric_base():
    space = make_coordinate_space(1)
    base = Op.from_exact_matrix(space, [[2.0]])
    with pytest.raises(ValueError, match="not a 2-isometry"):
        PerturbationProblem(base=base, u=space.basis_vector(0), v=space.basis_vector(0))
    problem = PerturbationProblem(
        base=base,
        u=space.basis_vector(0),
        v=space.basis_vector(0),
        allow_non_2_isometric_base=True,
    )
    assert problem.base_defect == pytest.approx(9.0, abs=1e-12)


def test_problem_rejects_zero_vectors_and_bad_tolerances():
    space = make_coordinate_space(2)
    base = identity(space)
    with pytest.raises(ValueError, match="not rank one"):
        PerturbationProblem(base=base, u=space.zeros(), v=space.basis_vector(0))
    with pytest.raises(ValueError, match="positive"):
        PerturbationProblem(
            base=base,
            u=space.basis_vector(0),
            v=space.basis_vector(1),
            tol_defect=0.0,
        )


@pytest.mark.parametrize("which", ["u", "v"])
@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf),
            complex(0, -np.inf)],
    ids=["nan", "inf", "-inf", "nan-imag", "inf-imag", "-inf-imag"],
)
def test_problem_rejects_non_finite_vectors(which, bad):
    # A NaN used to be reported as an overflow of the defect form or of
    # ||v||^2, and an infinity escaped as a warning from the norm.
    space = make_coordinate_space(2)
    vecs = {"u": space.basis_vector(0), "v": space.basis_vector(1)}
    vecs[which][0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^u and v must be finite$"):
            PerturbationProblem(base=identity(space), **vecs)


@pytest.mark.parametrize("key", ["tol_rank", "tol_defect"])
@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        True,
        pytest.param(np.bool_(True), id="np-True"),
        "1e-8",
        None,
        pytest.param(10**400, id="int-1e400"),
    ],
)
def test_problem_rejects_non_finite_tolerances(key, value):
    # a NaN tol_defect fails every comparison (both verdicts of this true
    # 2-isometry would read False), and an infinite tol_rank hides the branch
    # II witness; a boolean, a string or None is not a real number, and an
    # int beyond the float range is not finite as a float
    with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
        bidisc_example_problem(6, **{key: value})


def test_problem_stores_tolerances_as_floats():
    problem = bidisc_example_problem(6, tol_rank=np.float32(1e-9), tol_defect=1)
    assert type(problem.tol_rank) is float and type(problem.tol_defect) is float
    assert problem.tol_defect == 1.0


# ---------------------------------------------------------------------------
# the verdict


def test_verdict_swap_example():
    report = theorem_verdict(cases.problem("c2-swap"))
    assert report.branch == "II"
    assert report.gamma == pytest.approx(0.0, abs=1e-12)
    assert report.cond_iib_residual <= 1e-12
    assert report.kernel_residual <= 1e-12
    assert report.verdict_theorem and report.verdict_oracle


def test_verdict_dirichlet_admissible():
    report = theorem_verdict(cases.problem("dirichlet-12"))
    assert report.branch == "I"
    assert report.verdict_theorem and report.verdict_oracle
    assert report.oracle_defect <= 1e-10
    assert report.gamma is None
    assert report.cond_iia_residual is None
    assert report.cond_iib_residual is None


def test_verdict_dirichlet_inadmissible():
    report = theorem_verdict(cases.problem("dirichlet-12-iz"))
    assert report.branch == "I"
    assert not report.verdict_theorem
    assert not report.verdict_oracle


@pytest.mark.parametrize(
    "build, N",
    [
        (lambda N: dirichlet_perturbation_problem(N, PolyCoeffs((-2.0,))), 12),
        (lambda N: dirichlet_perturbation_problem(N, PolyCoeffs((1j,))), 12),
        (bidisc_example_problem, 6),
    ],
    ids=["dirichlet-minus-2z", "dirichlet-iz", "bidisc"],
)
def test_verdict_agrees_between_two_truncations(build, N):
    low, high = theorem_verdict(build(N)), theorem_verdict(build(N + 2))
    assert high.safe_dim > low.safe_dim
    assert (high.branch, high.verdict_theorem, high.verdict_oracle) == (
        low.branch,
        low.verdict_theorem,
        low.verdict_oracle,
    )
    assert abs(high.oracle_defect - low.oracle_defect) <= 1e-10


def test_identity_plus_rank_one_phase_rotation():
    # I + (e^{i theta} - 1) v (x) v rotates span{v}, hence stays unitary.
    rng = np.random.default_rng(58)
    space = make_coordinate_space(3)
    v = random_complex_vector(3, rng)
    v = v / space.norm(v)
    u = (np.exp(1j * 0.9) - 1.0) * v
    report = theorem_verdict(PerturbationProblem(base=identity(space), u=u, v=v))
    assert report.branch == "I"
    assert report.verdict_theorem and report.verdict_oracle


def test_report_verdict_recomputable_from_fields():
    problems = [
        cases.problem("c2-swap"),
        cases.problem("c2-swap-2u"),
        dirichlet_perturbation_problem(10, PolyCoeffs((-2.0,))),
        dirichlet_perturbation_problem(10, PolyCoeffs((1j,))),
        cases.problem("bidisc-6"),
    ]
    for problem in problems:
        report = theorem_verdict(problem)
        if report.branch == "I":
            expected = report.kernel_residual <= report.tol_defect
        else:
            expected = (
                report.kernel_residual <= report.tol_defect
                and report.cond_iia_residual <= report.tol_defect
                and report.cond_iib_residual <= report.tol_defect
            )
        assert report.verdict_theorem == expected


def test_report_to_dict_contract():
    report = theorem_verdict(cases.problem("bidisc-6"))
    doc = report.to_dict()
    assert doc["paper_branch"] == "(ii)"
    assert doc["branch"] == "II"
    assert set(doc) == {
        "branch",
        "paper_branch",
        "kernel_residual",
        "gamma",
        "cond_iia_residual",
        "cond_iib_residual",
        "oracle_defect",
        "verdict_theorem",
        "verdict_oracle",
        "tol_rank",
        "tol_defect",
        "safe_dim",
        "s_dim_evaluated",
        "v_was_normalized",
        "base_defect",
        "space",
    }
    assert doc["space"] == report.space.to_dict()
    for key in ("kernel_residual", "gamma", "cond_iia_residual", "cond_iib_residual"):
        assert type(doc[key]) is float
    report_i = theorem_verdict(dirichlet_perturbation_problem(10, PolyCoeffs((-2.0,))))
    doc_i = report_i.to_dict()
    assert doc_i["paper_branch"] == "(i)"
    assert set(doc_i) == set(doc)
    for key in ("gamma", "cond_iia_residual", "cond_iib_residual", "s_dim_evaluated"):
        assert doc_i[key] is None
    for d in (doc, doc_i):
        for key in ("verdict_theorem", "verdict_oracle", "v_was_normalized"):
            assert type(d[key]) is bool
        assert type(d["safe_dim"]) is int
        assert type(d["oracle_defect"]) is float


def test_mixed_degree_zero_residual_polynomial_is_not_two_isometric():
    # p = -z + (1/sqrt 2) z^2 zeroes the closed-form residual, but the
    # defect applied to the constant function keeps a component along z
    # (equal to -2 a_2 against the unit monomial), so both the theorem
    # verdict and the oracle reject it, and they agree.
    p = PolyCoeffs((-1.0, 1.0 / np.sqrt(2.0)))
    from twoiso.function_spaces import dirichlet_admissibility_residual

    assert abs(dirichlet_admissibility_residual(p)) <= 1e-12
    report = theorem_verdict(dirichlet_perturbation_problem(12, p))
    assert report.kernel_residual == pytest.approx(1.0, abs=1e-10)
    assert not report.verdict_theorem
    assert not report.verdict_oracle


def test_theorem_oracle_equivalence_stratified():
    # Smaller in-suite version of the acceptance trial set.
    n_true = 0
    for problem in cases.criterion_6(59, 60):
        report = theorem_verdict(problem)
        assert report.verdict_theorem == report.verdict_oracle
        n_true += report.verdict_theorem
    assert n_true >= 10
    assert n_true <= 50
