"""The branch decision, gamma, condition residuals, and the verdict report."""

import dataclasses
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
    WeightedSpace,
    apply,
    condition_iia_residual,
    condition_iib_residual,
    defect_apply_in_window,
    defect_quadratic,
    gamma_coefficient,
    kernel_condition_residual,
    make_bidisc_space,
    make_coordinate_space,
    make_dirichlet_space,
    perturb,
    polarized_defect_form,
    safe_subspace,
    theorem_verdict,
    truncation_cutoff,
    truncation_safe,
    weighted_gram_schmidt,
    witness_vector,
)
from twoiso import analysis, operators
from twoiso.cli import main
from twoiso.function_spaces import (
    PolyCoeffs,
    bidisc_example_problem,
    bidisc_shift,
    constant_perturbed_dirichlet,
    dirichlet_perturbation_problem,
    dirichlet_shift,
)
from twoiso.sampling import (
    invariant_kernel_pair,
    isometric_correction_pair,
    random_complex_vector,
    random_unitary,
)
from twoiso.spaces import pow2_scale
from helpers import (
    add,
    adjoint,
    bidisc_off_example_problem,
    brute_force_adjoint,
    defect_image_by_entries,
    huge_u_c4_case,
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


def swap_problem(scale_u: float = 1.0, **kwargs) -> PerturbationProblem:
    """The C^2 swap unitary with the rank-one correction -2 e1 (x) e2."""
    space = make_coordinate_space(2)
    base = Op.from_exact_matrix(space, [[0.0, 1.0], [1.0, 0.0]])
    return PerturbationProblem(
        base=base,
        u=-2.0 * scale_u * space.basis_vector(0),
        v=space.basis_vector(1),
        **kwargs,
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
    problem = swap_problem()
    assert theorem_verdict(problem).s_dim_evaluated == 0
    Q = stable_kernel_referee(problem.base, problem.v, np.arange(2), DEFAULT_RANK_TOL)
    assert Q.shape == (2, 2)


def test_stable_kernel_bidisc_case():
    problem = bidisc_example_problem(6)
    space = problem.space
    safe = safe_subspace(problem.perturbed())
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


def _c3_tight_rank_problem() -> PerturbationProblem:
    """T turns e0 towards e1 by 1e-11 on C^3; branch II only at tol_rank 1e-12."""
    space = make_coordinate_space(3)
    t = 1e-11
    rot = [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    return PerturbationProblem(
        base=Op.from_exact_matrix(space, rot),
        u=0.3 * space.basis_vector(2),
        v=space.basis_vector(0),
        tol_rank=1e-12,
    )


def test_stable_kernel_uses_the_branch_rank_tolerance():
    # At tol_rank 1e-12 the witness is nonzero (branch II), so the stable
    # kernel must lose both v and T*v.
    problem = _c3_tight_rank_problem()
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
    assert theorem_verdict(bidisc_example_problem(6)).branch == "II"


def test_branch_II_for_swap_setup():
    problem = swap_problem()
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
    problem = swap_problem()
    x = witness_vector(problem)
    g = gamma_coefficient(problem, x)
    assert g == pytest.approx(0.0, abs=1e-12)


def test_gamma_zero_for_bidisc_example():
    problem = bidisc_example_problem(6)
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
    problem = bidisc_example_problem(6)
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
    problem = swap_problem()
    assert condition_iib_residual(problem, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_condition_iib_scaled_u_breaks_balance():
    # doubling u gives |16 + 2(0 - 4)| = 8
    problem = swap_problem(scale_u=2.0, allow_non_2_isometric_base=False)
    assert condition_iib_residual(problem, 0.0) == pytest.approx(8.0, abs=1e-12)


def test_condition_iia_zero_for_bidisc():
    problem = bidisc_example_problem(6)
    report = theorem_verdict(problem)
    assert report.cond_iia_residual <= 1e-12


def test_condition_iia_over_stable_kernel_only_branch_I():
    # For an admissible polynomial perturbation the perturbed defect kills
    # the whole kernel of the perturbation, so the invariance residual over
    # the stable kernel alone vanishes. In branch I, T*v is parallel to v,
    # so the stable kernel is the complement of v in the window.
    problem = dirichlet_perturbation_problem(10, PolyCoeffs((-2.0,)))
    Tt = problem.perturbed()
    safe = safe_subspace(Tt)
    c_v = np.sqrt(problem.space.weight_array[safe]) * problem.v[safe]
    Q = (c_v / np.linalg.norm(c_v))[:, None]
    G = polarized_defect_form(Tt).defect_matrix
    resid = stable_kernel_block_residual(G, Q)
    assert resid <= 1e-10


def test_condition_iia_zero_while_verdict_false():
    # Scaled swap correction: the invariance condition still holds (the
    # stable kernel is trivial and the defect preserves the witness line)
    # while the kernel condition and the norm balance fail.
    problem = swap_problem(scale_u=2.0)
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
        report = theorem_verdict(PerturbationProblem(*huge_u_c4_case()))
    assert report.branch == "II"
    assert 1e200 < report.cond_iia_residual < np.inf
    assert 1e200 < report.kernel_residual < np.inf
    assert 1e200 < report.oracle_defect < np.inf
    assert not report.verdict_theorem and not report.verdict_oracle


def test_condition_iia_bidisc_large_window():
    # N = 18: a 153-dimensional safe window and a 151-dimensional stable
    # kernel, read off the window Gram matrix in one block product.
    report = theorem_verdict(bidisc_example_problem(18))
    assert report.branch == "II"
    assert report.safe_dim == 153
    assert report.s_dim_evaluated == 151
    assert report.cond_iia_residual <= 1e-12
    assert report.verdict_theorem and report.verdict_oracle


def _weighted_unitary_problem(scale: float, dim: int = 6) -> PerturbationProblem:
    """A weighted-unitary base on weighted C^dim with an isometric correction
    scaled by ``scale``: a true branch II instance at 1, a false one at 1.7.

    With S = diag(sqrt(w)), S^-1 U S is unitary for the weighted inner
    product, and the Euclidean pair (u', v') for U maps to (S^-1 u', S^-1 v').
    """
    rng = np.random.default_rng(61)
    w = rng.uniform(0.5, 3.0, size=dim)
    s = np.sqrt(w)
    U = random_unitary(dim, rng)
    space = make_coordinate_space(dim, weights=tuple(w))
    base = Op.from_exact_matrix(space, U * s[None, :] / s[:, None])
    u0, v0 = isometric_correction_pair(
        U, random_complex_vector(dim, rng), rng.uniform(0.0, 2.0 * np.pi)
    )
    return PerturbationProblem(base=base, u=scale * u0 / s, v=v0 / s)


def _bidisc_v_off_unit_problem() -> PerturbationProblem:
    """The off-example bidisc problem with ||v|| = 1 + 5e-13: within round-off
    of 1, so v is not renormalized and the witness is orthogonal to it only
    up to round-off."""
    problem = bidisc_off_example_problem()
    out = PerturbationProblem(base=problem.base, u=problem.u, v=(1 + 5e-13) * problem.v)
    assert not out.v_was_normalized
    return out


def _bidisc_v_mass_above_window_problem() -> PerturbationProblem:
    """The off-example bidisc problem with 1e-14 of v on z1 z2^7, above the
    safe window but within the round-off that truncation_safe forgives; T*v
    carries it to z2^7, also above the window."""
    problem = bidisc_off_example_problem()
    v = problem.v + 1e-14 * problem.space.monomial((1, 7))
    out = PerturbationProblem(base=problem.base, u=problem.u, v=v)
    Tt = out.perturbed()
    assert truncation_safe(Tt, out.v)
    assert np.any(out.v[Tt.space.degrees > truncation_cutoff(Tt)])
    return out


_IIA_REFEREE_CASES = {
    "weighted-c6-true": lambda: _weighted_unitary_problem(1.0),
    "weighted-c6-false": lambda: _weighted_unitary_problem(1.7),
    "bidisc-8-off-example": bidisc_off_example_problem,
    "bidisc-8-v-off-unit": _bidisc_v_off_unit_problem,
    "bidisc-8-v-mass-above-window": _bidisc_v_mass_above_window_problem,
    "c3-tight-rank": _c3_tight_rank_problem,
}


@pytest.mark.parametrize("case", sorted(_IIA_REFEREE_CASES))
def test_condition_iia_matches_polarization_referee(case):
    # Polarization builds G one entry at a time, independent of the Gram
    # products that the report reads condition (a) from, and the referee
    # spans v and T*v from the adjoint by Gram-Schmidt, not from the witness.
    problem = _IIA_REFEREE_CASES[case]()
    report = theorem_verdict(problem)
    assert report.branch == "II"
    Tt = problem.perturbed()
    safe = safe_subspace(Tt)
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
    G = polarized_defect_form(Tt).defect_matrix
    tol = 1e-12 * max(1.0, float(np.linalg.norm(G, 2)))
    assert abs(block_norm - stable_kernel_block_residual(G, Q)) <= tol
    assert abs(witness - condition_iia_residual(G, c_x)) <= tol
    assert abs(witness - report.cond_iia_residual) <= tol


@pytest.mark.parametrize("case", sorted(_IIA_REFEREE_CASES))
def test_condition_iia_spectral_norm_within_basis_max_bounds(case):
    # The former residual: the largest leftover norm of a defect image over
    # a Gram-Schmidt basis of the stable kernel S, each image from
    # polarization. The spectral norm of the block is at least every column
    # norm and at most the Frobenius norm: old <= block <= sqrt(dim S) old,
    # up to round-off. S is built in Euclidean window coordinates
    # c = E^H W x. The reported witness-line residual is within the kernel
    # residual of the block.
    problem = _IIA_REFEREE_CASES[case]()
    Tt = problem.perturbed()
    safe = safe_subspace(Tt)
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
    safe = safe_subspace(Tt)
    pair = np.stack([problem.v, x / space.norm(x)], 1)[safe]
    Q = np.linalg.qr(np.sqrt(space.weight_array[safe, None]) * pair)[0]
    iia = max(stable_kernel_block_residual(oracle.defect_matrix, Q), report.cond_iia_residual)
    theorem = max(report.kernel_residual, iia, report.cond_iib_residual) <= tol
    return "II", theorem, oracle.max_residual <= tol


def _criterion_6_problems(seed: int, trials: int):
    """Unitary bases on C^2..C^6 with the four kinds of criterion 6: an
    isometric correction, an invariant kernel, a correction scaled by 1.7,
    and a random pair."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        dim = 2 + trial % 5
        V = random_unitary(dim, rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        kind = trial % 4
        if kind in (0, 2):
            u, v = isometric_correction_pair(V, random_complex_vector(dim, rng), theta)
            u = 1.7 * u if kind == 2 else u
        elif kind == 1:
            u, v = invariant_kernel_pair(V, theta, which=trial % dim)
        else:
            u, v = random_complex_vector(dim, rng), random_complex_vector(dim, rng)
        base = Op.from_exact_matrix(make_coordinate_space(dim), V)
        yield PerturbationProblem(base=base, u=u, v=v, tol_defect=1e-8)


def _bidisc_near_tolerance_problems():
    """The bidisc N = 8 true case with u -> (1 + delta) u and u + delta w,
    w two seeded unit vectors of total degree <= 2, delta in [1e-11, 1e-6]:
    around tol_defect 1e-8 the residuals straddle the tolerance."""
    problem = bidisc_example_problem(8)
    space = problem.space
    rng = np.random.default_rng(63)
    directions = []
    for _ in range(2):
        w = np.where(space.degrees <= 2, random_complex_vector(space.dim, rng), 0.0)
        directions.append(w / space.norm(w))
    for delta in np.logspace(-11, -6, 52):
        for u in [(1.0 + delta) * problem.u] + [problem.u + delta * w for w in directions]:
            yield PerturbationProblem(base=problem.base, u=u, v=problem.v)


@pytest.mark.parametrize(
    "family",
    [lambda: _criterion_6_problems(20261019, 600), _bidisc_near_tolerance_problems],
    ids=["c2-c6-criterion-6", "bidisc-8-near-tolerance"],
)
def test_witness_line_verdicts_match_the_block_formulation(family):
    # Condition (a) on the witness line alone gives the same branch and
    # verdicts as the larger of it and the stable-kernel block: the two
    # differ by at most the kernel residual, which the verdict also bounds.
    seen = set()
    for problem in family():
        report = theorem_verdict(problem)
        got = (report.branch, report.verdict_theorem, report.verdict_oracle)
        assert got == _verdicts_with_block(problem, report)
        seen.add(got)
    # Both verdicts occur, so the comparison is not vacuous.
    assert {v[1] for v in seen} == {True, False}


def _dirichlet_cubic_problem() -> PerturbationProblem:
    """M_z + (i z + 0.3 z^3)⊗1 on Dirichlet N = 24: degree growth 3, so the
    band that D 1 can reach is degree <= 6 inside a window of degree <= 18."""
    return dirichlet_perturbation_problem(24, PolyCoeffs((1j, 0.0, 0.3)))


def _dirichlet_cubic_v_mass_above_band_problem() -> PerturbationProblem:
    """The cubic Dirichlet problem with 1e-14 of v on z^10, above the band
    of the constant alone: u⊗v then sends z^10 to degrees 1 and 3, a drop
    of 9, so the band is the whole window."""
    problem = _dirichlet_cubic_problem()
    v = problem.v + 1e-14 * problem.space.monomial((10,))
    return PerturbationProblem(base=problem.base, u=problem.u, v=v)


def _dirichlet_n0_problem(alpha: float = 1e50) -> PerturbationProblem:
    """M_z + (alpha 1)⊗1 on Dirichlet N = 12: at alpha = 1e50 the defect form
    has entries near 1e200, so the squares of the defect image overflow
    unless scaled."""
    base = dirichlet_shift(12)
    one = base.space.basis_vector(0)
    return PerturbationProblem(base=base, u=alpha * one, v=one)


_KERNEL_REFEREE_CASES = {
    "bidisc-8-off-example": bidisc_off_example_problem,
    "bidisc-8-v-mass-above-window": _bidisc_v_mass_above_window_problem,
    "bidisc-8-v-off-unit": _bidisc_v_off_unit_problem,
    "weighted-c6-true": lambda: _weighted_unitary_problem(1.0),
    "weighted-c6-false": lambda: _weighted_unitary_problem(1.7),
    "dirichlet-24-iz": lambda: dirichlet_perturbation_problem(24, PolyCoeffs((1j,))),
    "dirichlet-24-cubic": _dirichlet_cubic_problem,
    "dirichlet-24-cubic-v-mass-above-band": _dirichlet_cubic_v_mass_above_band_problem,
    "dirichlet-n0-alpha-1e50": _dirichlet_n0_problem,
}


@pytest.mark.parametrize("case", sorted(_KERNEL_REFEREE_CASES))
def test_kernel_residual_matches_entrywise_polarization(case):
    # One call of the defect form on the band's basis against the scalar
    # referee, which polarizes one window entry at a time.
    problem = _KERNEL_REFEREE_CASES[case]()
    Tt = problem.perturbed()
    image = defect_image_by_entries(Tt, problem.v)
    referee = problem.space.norm(image)
    value = kernel_condition_residual(Tt, problem.v)
    assert abs(value - referee) <= 1e-12 * max(1.0, referee)
    batched = defect_apply_in_window(Tt, problem.v)
    assert problem.space.norm(batched - image) <= 1e-12 * max(1.0, referee)
    # The same residual off the oracle's G: for a truncation-safe v with
    # window coordinates c_v, E^H W D v = G c_v. Its norm is taken after the
    # power-of-two scaling of the library's norms, so 1e200 stays finite.
    idx = safe_subspace(Tt)
    c_v = np.sqrt(problem.space.weight_array[idx]) * problem.v[idx]
    g_image = polarized_defect_form(Tt).defect_matrix @ c_v
    scale = pow2_scale(g_image)
    via_g = float(np.linalg.norm(g_image * scale)) / scale
    assert abs(via_g - value) <= 1e-14 * max(1.0, value)


def _kernel_block_widths(monkeypatch, Tt, v) -> list:
    """Column counts of the blocks y that the kernel residual passes to
    defect_quadratic: one block, the basis of the band."""
    widths = []

    def recording(T, x, y=None):
        widths.append(np.shape(y)[1])
        return defect_quadratic(T, x, y)

    monkeypatch.setattr(operators, "defect_quadratic", recording)
    kernel_condition_residual(Tt, v)
    return widths


_BAND_CASES = {
    # Degree growth 1, no column lowers degree, v = 1: the labels of degree
    # <= 2 of the n - 1 window labels.
    **{
        f"dirichlet-{n}": (
            lambda n=n: dirichlet_perturbation_problem(n, PolyCoeffs((-2.0,))), 3, n - 1
        )
        for n in (12, 24, 48, 96)
    },
    # Degree growth 1, no column lowers degree, v = z1: the labels of degree
    # <= 3 of the (n - 1) n / 2 window labels.
    **{
        f"bidisc-{n}": (lambda n=n: bidisc_example_problem(n), 10, (n - 1) * n // 2)
        for n in (6, 10, 14, 18)
    },
    "dirichlet-24-cubic": (_dirichlet_cubic_problem, 7, 19),
    "dirichlet-24-cubic-v-mass-above-band": (_dirichlet_cubic_v_mass_above_band_problem, 19, 19),
    # The seeded direction has a constant term, so the perturbed column of
    # z1 lowers degree by 1: degree <= 1 + 2 (1 + 1) of the window's <= 6.
    "bidisc-8-off-example": (bidisc_off_example_problem, 21, 28),
}


@pytest.mark.parametrize("case", list(_BAND_CASES))
def test_kernel_residual_polarizes_only_the_band(monkeypatch, case):
    make, width, window = _BAND_CASES[case]
    problem = make()
    Tt = problem.perturbed()
    assert safe_subspace(Tt).size == window
    assert _kernel_block_widths(monkeypatch, Tt, problem.v) == [width]


def _band_width_by_dense_scan(T: Op, x) -> int:
    """Width of the band that the kernel residual reads, with the most a
    column lowers degree taken from a dim x dim ``np.where`` scan of the
    matrix: the referee of the scan over its nonzeros."""
    degs = T.space.degrees
    band = int(degs[x != 0].max(initial=-1)) + 2 * T.degree_growth
    if band < truncation_cutoff(T):
        low = np.where(T.matrix != 0, degs[:, None], degs.max()).min(axis=0)
        band += 2 * int(np.max(degs - low, initial=0))
    return int(np.count_nonzero(degs[safe_subspace(T)] <= band))


def _random_sparse_op(space, rng, lowering: int, field) -> Op:
    """Nonzeros at random that raise degree by 0 or 1, and fewer that lower
    it by up to ``lowering``; many columns stay zero."""
    rise = space.degrees[:, None] - space.degrees[None, :]
    draw = rng.random(rise.shape)
    keep = ((rise >= 0) & (rise <= 1) & (draw < 0.2)) | (
        (rise < 0) & (rise >= -lowering) & (draw < 0.02))
    mat = np.where(keep, rng.standard_normal(rise.shape), 0.0)
    if field is complex:
        mat = mat * np.exp(2j * np.pi * rng.random(rise.shape))
    return Op(space, mat, degree_growth=1)


def test_kernel_residual_band_matches_the_dense_scan(monkeypatch):
    # The lowest degree of each column is read off the matrix's nonzeros;
    # the band must be the one that the dense scan of every entry gives.
    cases = [(dirichlet_shift(12), None), (bidisc_shift(8, axis=1), None),
             (bidisc_shift(8, axis=2), None)]
    for make in (_dirichlet_cubic_problem, bidisc_off_example_problem,
                 _bidisc_v_off_unit_problem):
        problem = make()
        cases.append((problem.perturbed(), problem.v))
    rng = np.random.default_rng(74)
    for space in (make_dirichlet_space(24), make_bidisc_space(10)):
        for lowering in (0, 2, 6):
            for field in (float, complex):
                cases.append((_random_sparse_op(space, rng, lowering, field), None))
    widths = set()
    for T, v in cases:
        degs = T.space.degrees
        if v is None:
            v = np.where(degs <= 1, random_vec(T.space, rng), 0.0)
        width = _band_width_by_dense_scan(T, v)
        widths.add(width)
        assert _kernel_block_widths(monkeypatch, T, v) == [width]
    assert len(widths) > 5


def test_kernel_residual_keeps_the_whole_weighted_c4_window(monkeypatch):
    # Every label of C^4 has degree 1, so the band is the whole window.
    rng = np.random.default_rng(71)
    space = make_coordinate_space(4, weights=tuple(rng.uniform(0.5, 3.0, size=4)))
    Tt = Op.from_exact_matrix(space, random_unitary(4, rng))
    assert _kernel_block_widths(monkeypatch, Tt, random_vec(space, rng)) == [4]


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


def _dense_bidisc_18() -> PerturbationProblem:
    """The bidisc example at N = 18 with u moved by a real vector on degrees
    1 and 2. The example itself sends each label to one label, so its form
    is read off the diagonal; the move puts several entries in the column of
    z1, so the form is dense, and keeps the degree growth and the band of
    the kernel residual: no column lowers degree."""
    problem = bidisc_example_problem(18)
    degs = problem.space.degrees
    u = problem.u + 1e-3 * ((degs >= 1) & (degs <= 2))
    return PerturbationProblem(base=problem.base, u=u, v=problem.v)


def test_kernel_residual_peak_memory_within_the_oracle_form():
    # The kernel residual reads the form on one (dim, b) block, the basis of
    # the band of b labels that D v can reach, not of the whole window of r
    # labels. The yardstick is the dense real form.
    problem = _dense_bidisc_18()
    Tt = problem.perturbed()
    kernel = _traced_peak(kernel_condition_residual, Tt, problem.v)
    assert kernel <= _traced_peak(polarized_defect_form, Tt)


def test_kernel_condition_residuals():
    assert kernel_condition_residual(
        bidisc_example_problem(6).perturbed(), bidisc_example_problem(6).v
    ) <= 1e-12
    problem = swap_problem()
    assert kernel_condition_residual(problem.perturbed(), problem.v) <= 1e-14

    op = constant_perturbed_dirichlet(10, 1.0)
    one = op.space.basis_vector(0)
    assert kernel_condition_residual(op, one) >= 0.9


# ---------------------------------------------------------------------------
# the oracle as the base form plus a rank-4 update


def _non_2_isometric_base_problem() -> PerturbationProblem:
    """A seeded random operator on weighted C^5, far from a 2-isometry, so
    that the base form G(T) that the update starts from is not zero."""
    rng = np.random.default_rng(64)
    space = make_coordinate_space(5, weights=tuple(rng.uniform(0.5, 3.0, size=5)))
    problem = PerturbationProblem(
        base=random_op(space, rng),
        u=random_vec(space, rng),
        v=random_vec(space, rng),
        allow_non_2_isometric_base=True,
    )
    assert problem.base_defect > 1.0
    return problem


def _reversed_labels(problem: PerturbationProblem, scale: float = 1.0) -> PerturbationProblem:
    """``problem`` with its basis listed in reverse order and its base scaled
    by ``scale``."""
    space = problem.space
    rev = np.arange(space.dim)[::-1]
    flipped = WeightedSpace(space.labels[::-1], space.weights[::-1], kind=space.kind)
    base = Op(flipped, scale * problem.base.matrix[np.ix_(rev, rev)],
              degree_growth=problem.base.degree_growth)
    return PerturbationProblem(
        base=base, u=problem.u[rev], v=problem.v[rev], allow_non_2_isometric_base=True
    )


def _dirichlet_z3_reversed_labels_problem() -> PerturbationProblem:
    """1.1 M_z + z^3⊗1 on Dirichlet N = 12 with the basis listed from z^12
    down to 1: the window of T + u⊗v (degree <= 6) is not a leading block of
    the base's window (degree <= 10), and the base form, which is not zero,
    differs from one degree to the next."""
    return _reversed_labels(dirichlet_perturbation_problem(12, PolyCoeffs((0.0, 0.0, 1.0))), 1.1)


def _dirichlet_z_reversed_labels_problem() -> PerturbationProblem:
    """M_z - z^2⊗z on Dirichlet N = 12 with the basis listed from z^12 down
    to 1: branch II, with the constant as its witness."""
    T = dirichlet_shift(12)
    z, z2 = T.space.monomial((1,)), T.space.monomial((2,))
    return _reversed_labels(PerturbationProblem(base=T, u=-z2, v=z))


_UPDATE_REFEREE_CASES = {
    **{f"ladder-dirichlet-{N}": (lambda N=N: dirichlet_perturbation_problem(N, PolyCoeffs((-2.0,))))
       for N in (12, 24, 48, 96)},
    **{f"ladder-bidisc-{N}": (lambda N=N: bidisc_example_problem(N)) for N in (6, 10, 14, 18)},
    **{f"dirichlet-{N}-z3": (lambda N=N: dirichlet_perturbation_problem(N, PolyCoeffs((0.0, 0.0, 1.0))))
       for N in (12, 40)},
    **{f"dirichlet-{N}-0.3iz-0.2z3": (
        lambda N=N: dirichlet_perturbation_problem(N, PolyCoeffs((0.3j, 0.0, -0.2))))
       for N in (12, 40)},
    "dirichlet-12-z3-reversed-labels": _dirichlet_z3_reversed_labels_problem,
    "bidisc-8-off-example": bidisc_off_example_problem,
    "non-2-isometric-base": _non_2_isometric_base_problem,
    "dirichlet-n0-alpha-1e50": _dirichlet_n0_problem,
}


def _weighted_spread_problems(seed: int, trials: int):
    """Weighted-unitary bases on weighted C^2..C^6 with an isometric
    correction or a random pair, ||u|| spread over 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        dim = 2 + trial % 5
        w = rng.uniform(0.5, 3.0, size=dim)
        s = np.sqrt(w)
        U = random_unitary(dim, rng)
        if trial % 2 == 0:
            u, v = isometric_correction_pair(
                U, random_complex_vector(dim, rng), rng.uniform(0.0, 2.0 * np.pi)
            )
        else:
            u, v = random_complex_vector(dim, rng), random_complex_vector(dim, rng)
        u = 10.0 ** rng.uniform(-3.0, 3.0) * u / np.linalg.norm(u)
        space = make_coordinate_space(dim, weights=tuple(w))
        base = Op.from_exact_matrix(space, U * s[None, :] / s[:, None])
        yield PerturbationProblem(base=base, u=u / s, v=v / s)


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


@pytest.mark.parametrize("case", list(_UPDATE_REFEREE_CASES))
def test_oracle_update_matches_the_direct_build(monkeypatch, case):
    # The direct build of the perturbed form is the referee of the rank-4
    # update; where u⊗v grows degree more than T, the window shrinks.
    problem = _UPDATE_REFEREE_CASES[case]()
    shrunk = _assert_verdict_form_matches_direct_build(monkeypatch, [problem])
    assert shrunk == ("z3" in case)


def test_oracle_update_matches_the_direct_build_weighted_spread(monkeypatch):
    _assert_verdict_form_matches_direct_build(monkeypatch, _weighted_spread_problems(65, 200))


def _condition_iib_referee_problems():
    yield from _criterion_6_problems(20261020, 200)
    yield _weighted_unitary_problem(1.0, dim=4)
    yield _weighted_unitary_problem(1.7, dim=4)
    yield from _bidisc_near_tolerance_problems()
    yield _dirichlet_z_reversed_labels_problem()


def test_gamma_and_condition_iib_match_the_apply_referee():
    # The report reads gamma and (b) off the oracle update's rows; the
    # referee folds gamma to Re(<u, T P T x> / <v, T x>) and takes <u, Tv>,
    # each from forward applications of T, independent of those rows.
    verdicts = set()
    for problem in _condition_iib_referee_problems():
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
    for build in (lambda: bidisc_example_problem(8), swap_problem, _dirichlet_z_reversed_labels_problem,
                  lambda: _weighted_unitary_problem(1.7),
                  lambda: dirichlet_perturbation_problem(12, PolyCoeffs((-2.0,)))):
        theorem_verdict(build())
    assert calls == []
    operators.apply(swap_problem().base, [1.0, 0.0])
    assert len(calls) == 1


def test_update_rows_are_built_once_per_problem_and_read_only(monkeypatch):
    builds = []
    build = PerturbationProblem.__dict__["update"].func
    counted = cached_property(lambda self: builds.append(self) or build(self))
    counted.__set_name__(PerturbationProblem, "update")
    monkeypatch.setattr(PerturbationProblem, "update", counted)
    problem = bidisc_example_problem(8)
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
    for build in (lambda: bidisc_example_problem(8), swap_problem,
                  lambda: dirichlet_perturbation_problem(12, PolyCoeffs((0.0, 0.0, 1.0)))):
        calls.clear()
        problem = build()
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
    problem = bidisc_example_problem(8)
    with pytest.raises(AttributeError):
        problem.base = Op(problem.space, 1.5 * problem.base.matrix, degree_growth=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.base.matrix = 1.5 * problem.base.matrix
    report = theorem_verdict(problem)
    direct = polarized_defect_form(problem.perturbed()).max_residual
    assert abs(report.oracle_defect - direct) <= 1e-13 * max(1.0, direct)


def test_oracle_update_peak_memory_below_the_direct_build():
    # The update allocates r x r and (5, r) arrays; the direct dense build
    # holds two (dim, r) buffers as well. A real A enters the update's rows
    # through real products, with no complex dim x dim copy.
    problem = _dense_bidisc_18()
    Tt = problem.perturbed()
    idx = safe_subspace(Tt)
    update = _traced_peak(analysis._perturbed_defect_form, problem, idx)
    assert update < _traced_peak(polarized_defect_form, Tt)


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


@pytest.mark.parametrize("case", list(_UPDATE_REFEREE_CASES))
def test_perturb_matches_add_of_rank_one(case):
    # The ladder rungs, the reversed-label Dirichlet basis and the off-example
    # bidisc problem are among the cases.
    problem = _UPDATE_REFEREE_CASES[case]()
    _assert_perturb_matches_add_of_rank_one(problem.base, problem.u, problem.v)


def test_perturb_matches_add_of_rank_one_weighted_spread():
    problems = list(_weighted_spread_problems(65, 200))
    assert {p.space.dim for p in problems} == {2, 3, 4, 5, 6}
    for problem in problems:
        _assert_perturb_matches_add_of_rank_one(problem.base, problem.u, problem.v)


def test_perturb_growth_skips_entries_that_underflow():
    # u_5 w_0 conj(v_0) = 1e-200 * 1e-200 underflows to 0, so column 0 grows
    # degree by 1 (from u_1), not by 5; the block scan reads the same 1 as
    # the scan of the whole rank-one matrix.
    space = make_dirichlet_space(8)
    T = Op(space, np.eye(space.dim), degree_growth=0)
    u = 1e-200 * space.basis_vector(5) + space.basis_vector(1)
    v = 1e-200 * space.basis_vector(0) + space.basis_vector(4)
    got = _assert_perturb_matches_add_of_rank_one(T, u, v)
    assert got.matrix[5, 0] == 0 and got.matrix[1, 0] != 0
    assert got.degree_growth == 1
    assert perturb(Op(space, np.eye(space.dim)), u, v).degree_growth is None


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


def _c2_identity_problem(a: float) -> PerturbationProblem:
    space = make_coordinate_space(2)
    return PerturbationProblem(
        base=identity(space), u=a * space.basis_vector(0), v=space.basis_vector(1)
    )


@pytest.mark.parametrize(
    "build, scale, overflows",
    [(_dirichlet_n0_problem, alpha, alpha > 1e77) for alpha in (1e50, 1e76, 1e77, 1e78)]
    + [(_c2_identity_problem, a, a > 1e150) for a in (1e150, 1e154)],
)
def test_oracle_update_overflows_with_the_direct_build(build, scale, overflows):
    # Near the top of the float range the update and the direct build raise
    # the same ValueError or agree, and neither warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = build(scale)
        Tt = problem.perturbed()
        if overflows:
            for form in (lambda: analysis._perturbed_defect_form(problem, safe_subspace(Tt)),
                         lambda: polarized_defect_form(Tt)):
                with pytest.raises(ValueError, match="the defect form overflows"):
                    form()
            return
        direct = polarized_defect_form(Tt)
        update = analysis._perturbed_defect_form(problem, safe_subspace(Tt))
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
    report = theorem_verdict(swap_problem())
    assert report.branch == "II"
    assert report.gamma == pytest.approx(0.0, abs=1e-12)
    assert report.cond_iib_residual <= 1e-12
    assert report.kernel_residual <= 1e-12
    assert report.verdict_theorem and report.verdict_oracle


def test_verdict_dirichlet_admissible():
    report = theorem_verdict(dirichlet_perturbation_problem(12, PolyCoeffs((-2.0,))))
    assert report.branch == "I"
    assert report.verdict_theorem and report.verdict_oracle
    assert report.oracle_defect <= 1e-10
    assert report.gamma is None
    assert report.cond_iia_residual is None
    assert report.cond_iib_residual is None


def test_verdict_dirichlet_inadmissible():
    report = theorem_verdict(dirichlet_perturbation_problem(12, PolyCoeffs((1j,))))
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
        swap_problem(),
        swap_problem(scale_u=2.0),
        dirichlet_perturbation_problem(10, PolyCoeffs((-2.0,))),
        dirichlet_perturbation_problem(10, PolyCoeffs((1j,))),
        bidisc_example_problem(6),
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
    report = theorem_verdict(bidisc_example_problem(6))
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
    rng = np.random.default_rng(59)
    n_true = 0
    for trial in range(60):
        dim = 2 + trial % 5
        space = make_coordinate_space(dim)
        V = random_unitary(dim, rng)
        base = Op.from_exact_matrix(space, V)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        kind = trial % 4
        if kind == 0:
            u, v = isometric_correction_pair(V, random_complex_vector(dim, rng), theta)
        elif kind == 1:
            u, v = invariant_kernel_pair(V, theta, which=trial % dim)
        elif kind == 2:
            u, v = isometric_correction_pair(V, random_complex_vector(dim, rng), theta)
            u = 1.7 * u
        else:
            u = random_complex_vector(dim, rng)
            v = random_complex_vector(dim, rng)
        report = theorem_verdict(
            PerturbationProblem(base=base, u=u, v=v, tol_defect=1e-8)
        )
        assert report.verdict_theorem == report.verdict_oracle
        n_true += report.verdict_theorem
    assert n_true >= 10
    assert n_true <= 50
