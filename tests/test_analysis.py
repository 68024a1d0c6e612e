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
    safe_subspace,
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
    constant_perturbed_dirichlet,
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
    # One defect row read over the whole window against the scalar referee,
    # which polarizes one window entry at a time.
    problem = cases.problem(case)
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


@pytest.mark.parametrize("case", [*cases.LADDER, "dirichlet-24-cubic",
                                  "dirichlet-24-cubic-v-mass-above-band",
                                  "bidisc-8-off-example", "weighted-c4"])
def test_kernel_residual_is_one_window_call(monkeypatch, case):
    # One defect_quadratic call, whose labels are the whole safe window.
    if case == "weighted-c4":
        rng = np.random.default_rng(71)
        space = make_coordinate_space(4, weights=tuple(rng.uniform(0.5, 3.0, size=4)))
        Tt, v = Op.from_exact_matrix(space, random_unitary(4, rng)), random_vec(space, rng)
    else:
        problem = cases.problem(case)
        Tt, v = problem.perturbed(), problem.v
    calls = []

    def recording(T, x, idx=None):
        calls.append(idx)
        return defect_quadratic(T, x, idx)

    monkeypatch.setattr(operators, "defect_quadratic", recording)
    kernel_condition_residual(Tt, v)
    assert len(calls) == 1
    assert np.array_equal(calls[0], safe_subspace(Tt))


# The real cases small enough for rational arithmetic whose defect is finite:
# both exactly zero and nonzero kernel images occur among them.
_EXACT_CASES = [name for name in cases.names(field="real")
                if cases.CASES[name].verdicts is not None and cases.problem(name).space.dim <= 45]
_EXACT_GAP = 4  # multiples of eps * scale; the worst case reads 0.77


@pytest.mark.parametrize("case", _EXACT_CASES)
def test_kernel_residual_matches_the_exact_rational_image(case):
    # The kernel image of the stored floats in exact rational arithmetic: an
    # entry that is exactly zero is read as exactly zero, and the residual is
    # within _EXACT_GAP eps of the scale, the norm of the image of |T| and |v|
    # with the three terms added.
    problem = cases.problem(case)
    Tt, v = problem.perturbed(), problem.v
    idx = safe_subspace(Tt)
    weights = [Fraction(w) for w in problem.space.weight_array[idx].tolist()]
    exact = exact_kernel_image(Tt, v)
    image = defect_apply_in_window(Tt, v)[idx]
    assert all(image[i] == 0 for i, value in enumerate(exact) if value == 0)

    def norm(values):
        return exact_sqrt(sum((value * value / w for value, w in zip(values, weights)),
                              Fraction(0)))

    scale = norm(exact_kernel_image(Tt, v, absolute=True))
    value = kernel_condition_residual(Tt, v)
    assert abs(value - norm(exact)) <= _EXACT_GAP * np.finfo(float).eps * scale
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
    # The kernel residual reads one defect row of length dim, not a block of
    # the window. The yardstick is the dense real form.
    problem = cases.problem("bidisc-18-dense")
    Tt = problem.perturbed()
    kernel = _traced_peak(kernel_condition_residual, Tt, problem.v)
    assert kernel <= _traced_peak(polarized_defect_form, Tt)


def test_kernel_condition_residuals():
    assert kernel_condition_residual(
        cases.problem("bidisc-6").perturbed(), cases.problem("bidisc-6").v
    ) <= 1e-12
    problem = cases.problem("c2-swap")
    assert kernel_condition_residual(problem.perturbed(), problem.v) <= 1e-14

    op = constant_perturbed_dirichlet(10, 1.0)
    one = op.space.basis_vector(0)
    assert kernel_condition_residual(op, one) >= 0.9


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
    # The update allocates r x r and (5, r) arrays; the direct dense build
    # holds two (dim, r) buffers as well. A real A enters the update's rows
    # through real products, with no complex dim x dim copy.
    problem = cases.problem("bidisc-18-dense")
    Tt = problem.perturbed()
    idx = safe_subspace(Tt)
    update = _traced_peak(analysis._perturbed_defect_form, problem, idx)
    assert update < _traced_peak(polarized_defect_form, Tt)


def test_base_form_and_verdict_peak_at_one_and_two_window_matrices_at_dirichlet_400():
    # The shift's base form is one r x r matrix, and the verdict holds T + u⊗v
    # and the oracle form, made once and in float64 for this real problem. An
    # abs temporary in the report and a complex oracle built as a sum peaked
    # at 2.0 and 4.1 window matrices.
    T = dirichlet_shift(400)
    window = 8 * 399**2
    assert _traced_peak(lambda: T.defect_form) <= 1.1 * window
    problem = PerturbationProblem(T, -2.0 * T.space.basis_vector(1), T.space.basis_vector(0))
    assert _traced_peak(theorem_verdict, problem) <= 2.2 * window


# ---------------------------------------------------------------------------
# the field of the problem


def _verdict_forms(monkeypatch) -> list:
    """Collects (problem, window, oracle matrix) of every verdict run after
    the call."""
    seen = []
    form = analysis._perturbed_defect_form

    def kept(problem, idx):
        report = form(problem, idx)
        seen.append((problem, idx, report.defect_matrix))
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
        assert R.dtype == M.dtype == G.dtype == cases.DTYPES[field]


def test_real_oracle_matches_the_complex_path(monkeypatch, capsys):
    fields = [cases.CASES[name].field for name in cases.LADDER] + _REPRODUCE_FIELDS
    seen = [case for case, field in zip(_ladder_and_reproduce_forms(monkeypatch, capsys), fields)
            if field == "real"]
    assert len(seen) == 12
    for problem, idx, G in seen:
        referee = complex_path_oracle(problem, idx)
        scale = max(1.0, float(np.abs(referee).max()))
        assert float(np.abs(G - referee).max()) <= 1e-15 * scale


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
        assert R.dtype == M.dtype == G.dtype == np.complex128
        referee = complex_path_oracle(problem, idx)
        assert float(np.abs(G - referee).max()) <= 1e-15 * max(1.0, float(np.abs(referee).max()))


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
