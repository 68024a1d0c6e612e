"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from twoiso import (
    Op,
    apply,
    defect_quadratic,
    gamma_coefficient,
    make_coordinate_space,
    polarized_defect_form,
    theorem_verdict,
    witness_vector,
)
from twoiso.cli import search_dirichlet_alpha
from twoiso.function_spaces import (
    PolyCoeffs,
    constant_perturbed_dirichlet,
    dirichlet_admissibility_residual,
    dirichlet_perturbation_problem,
    perturbed_dirichlet,
)
from twoiso.sampling import random_complex_vector, random_unitary
import cases
from helpers import (
    adjoint,
    compose,
    defect_operator,
    random_op,
    random_vec,
    random_weighted_space,
    rank_one,
    stage_problem,
)


def _report(number: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    return ok


def _unit_disc_sample(rng: np.random.Generator) -> complex:
    r = np.sqrt(rng.uniform(0.0, 1.0))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


def _random_inadmissible(rng: np.random.Generator) -> PolyCoeffs:
    while True:
        deg = int(rng.integers(1, 6))
        coeffs = tuple(_unit_disc_sample(rng) for _ in range(deg))
        p = PolyCoeffs(coeffs)
        if p.degree >= 1 and abs(dirichlet_admissibility_residual(p)) > 1e-4:
            return p


def test_criterion_1_c2_example():
    problem = cases.problem("c2-swap")
    report = theorem_verdict(problem)
    full_defect = float(np.max(np.abs(defect_operator(problem.perturbed()).matrix)))

    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        theorem_verdict(problem)
        times.append(time.perf_counter() - t0)
    median_ms = sorted(times)[len(times) // 2] * 1e3

    ok = (
        full_defect <= 1e-12
        and report.branch == "II"
        and abs(report.gamma) <= 1e-12
        and report.cond_iib_residual <= 1e-12
        and report.verdict_theorem
        and report.verdict_oracle
        and median_ms < 1.0
    )
    assert _report(
        1,
        ok,
        f"C^2 swap correction: defect matrix max {full_defect:.1e}, branch "
        f"{report.branch}, gamma {report.gamma:.1e}, iib "
        f"{report.cond_iib_residual:.1e}, verdicts "
        f"({report.verdict_theorem}, {report.verdict_oracle}), "
        f"median runtime {median_ms:.3f} ms",
    )


def test_criterion_2_polynomial_perturbations_match_closed_form():
    rng = np.random.default_rng(202)
    N = 12
    t0 = time.perf_counter()

    cases = []
    for j in range(20):
        theta = 2.0 * np.pi * (j + 0.5) / 20.0
        cases.append(PolyCoeffs((np.exp(1j * theta) - 1.0,)))
    for _ in range(100):
        cases.append(_random_inadmissible(rng))

    mismatches = 0
    for p in cases:
        admissible = abs(dirichlet_admissibility_residual(p)) <= 1e-12
        report = theorem_verdict(dirichlet_perturbation_problem(N, p))
        if report.verdict_theorem != admissible or report.verdict_oracle != admissible:
            mismatches += 1
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 5.0
    assert _report(
        2,
        ok,
        f"120 polynomial perturbations at N={N}: {mismatches} verdict "
        f"mismatches vs the closed-form condition, {elapsed:.2f} s total",
    )


def test_criterion_3_defect_on_constant_identity():
    rng = np.random.default_rng(203)
    N = 12
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(1, N - 1))
        coeffs = tuple(_unit_disc_sample(rng) for _ in range(deg))
        p = PolyCoeffs(coeffs)
        op = perturbed_dirichlet(N, p)
        one = op.space.basis_vector(0)
        closed = -2.0 * np.real(p.a[0] if p.a else 0.0) - sum(
            (i + 1) * abs(c) ** 2 for i, c in enumerate(p.a)
        )
        worst = max(worst, abs(defect_quadratic(op, one) - closed))
    ok = worst <= 1e-10
    assert _report(
        3,
        ok,
        f"defect at the constant vs -2 Re(a1) - sum i |a_i|^2 over 100 "
        f"random polynomials: worst deviation {worst:.2e}",
    )


def test_criterion_4_monomial_locus():
    grid = dict(re_range=(-3.0, 1.0), im_range=(-3.0, 1.0), step=0.05, N=12, tol=1e-8)

    hits_n1 = search_dirichlet_alpha(n=1, **grid)
    hits_n0 = search_dirichlet_alpha(n=0, **grid)
    hits_n2 = search_dirichlet_alpha(n=2, **grid)

    circle_ok = bool(hits_n1) and all(h["circle_residual"] <= 1e-7 for h in hits_n1)

    worst_n0 = 0.0
    for re in np.linspace(-3.0, 1.0, 9):
        for im in np.linspace(-3.0, 1.0, 9):
            alpha = complex(re, im)
            if alpha == 0:
                continue
            op = constant_perturbed_dirichlet(12, alpha)
            measured = defect_quadratic(op, op.space.basis_vector(0))
            worst_n0 = max(worst_n0, abs(measured - abs(alpha) ** 4))

    ok = circle_ok and not hits_n0 and not hits_n2 and worst_n0 <= 1e-10
    assert _report(
        4,
        ok,
        f"alpha z^n scan: n=1 gives {len(hits_n1)} hits, all on |alpha+1|=1; "
        f"n=0 gives {len(hits_n0)}, n=2 gives {len(hits_n2)}; measured n=0 "
        f"defect matches |alpha|^4 within {worst_n0:.2e}",
    )


def test_criterion_5_bidisc_example():
    problem = cases.problem("bidisc-6")
    report = theorem_verdict(problem)
    norm_u_sq = problem.space.norm(problem.u) ** 2
    tv = apply(problem.base, problem.v)
    balance = norm_u_sq + 2.0 * (
        report.gamma + np.real(problem.space.inner(problem.u, tv))
    )

    # Degree growth 2, the degree of u's range, instead of the scanned 1:
    # the window stops at degree N - 4 = 2.
    op = Op(problem.space, problem.perturbed().matrix, degree_growth=2)
    window_defect = polarized_defect_form(op).max_residual

    ok = (
        report.kernel_residual <= 1e-12
        and report.cond_iia_residual <= 1e-12
        and abs(report.gamma) <= 1e-12
        and abs(norm_u_sq - 2.0) <= 1e-12
        and abs(balance) <= 1e-12
        and window_defect <= 1e-10
        and report.verdict_theorem
        and report.verdict_oracle
    )
    assert _report(
        5,
        ok,
        f"bidisc shift correction at N=6: kernel {report.kernel_residual:.1e}, "
        f"iia {report.cond_iia_residual:.1e}, ||u||^2 {norm_u_sq:.12g}, "
        f"balance {balance:.1e} with gamma {report.gamma:.1e}, polarized "
        f"defect on degree <= 2 is {window_defect:.1e}",
    )


def test_criterion_6_theorem_oracle_equivalence():
    n_true = 0
    mismatches = 0
    for problem in cases.criterion_6(20260810, 200):
        report = theorem_verdict(problem)
        if report.verdict_theorem != report.verdict_oracle:
            mismatches += 1
        n_true += report.verdict_theorem

    ok = mismatches == 0 and n_true >= 10
    assert _report(
        6,
        ok,
        f"200 exact-dimension trials with unitary bases: {mismatches} "
        f"theorem/oracle mismatches, {n_true} true verdicts",
    )


def test_criterion_7_algebraic_identities():
    rng = np.random.default_rng(207)
    tol = 1e-10

    worst_adjoint = 0.0
    for _ in range(100):
        space = random_weighted_space(rng)
        A = random_op(space, rng)
        x, y = random_vec(space, rng), random_vec(space, rng)
        lhs = space.inner(apply(A, x), y)
        rhs = space.inner(x, apply(adjoint(A), y))
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(1.0, abs(lhs)))

    worst_compose = 0.0
    for _ in range(100):
        space = random_weighted_space(rng)
        u, v = random_vec(space, rng), random_vec(space, rng)
        x, y = random_vec(space, rng), random_vec(space, rng)
        V = random_op(space, rng)
        ref = max(1.0, float(np.max(np.abs(V.matrix))) ** 2)
        d1 = np.max(
            np.abs(
                compose(rank_one(space, u, v), rank_one(space, x, y)).matrix
                - space.inner(x, v) * rank_one(space, u, y).matrix
            )
        )
        d2 = np.max(
            np.abs(
                compose(V, rank_one(space, u, v)).matrix
                - rank_one(space, apply(V, u), v).matrix
            )
        )
        d3 = np.max(
            np.abs(
                compose(rank_one(space, u, v), V).matrix
                - rank_one(space, u, apply(adjoint(V), v)).matrix
            )
        )
        worst_compose = max(worst_compose, float(max(d1, d2, d3)) / ref)

    worst_scaling = 0.0
    for _ in range(100):
        space = random_weighted_space(rng)
        u, v = random_vec(space, rng), random_vec(space, rng)
        a = _unit_disc_sample(rng) + 1.5
        diff = np.max(
            np.abs(
                rank_one(space, u, a * v).matrix
                - rank_one(space, np.conj(a) * u, v).matrix
            )
        )
        worst_scaling = max(worst_scaling, float(diff))

    worst_hermitian = 0.0
    for _ in range(100):
        space = random_weighted_space(rng)
        D = defect_operator(random_op(space, rng))
        diff = np.max(np.abs(adjoint(D).matrix - D.matrix))
        worst_hermitian = max(
            worst_hermitian, float(diff) / max(1.0, float(np.max(np.abs(D.matrix))))
        )

    worst_gamma = 0.0
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
        c = complex(rng.uniform(0.2, 2.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g1 = gamma_coefficient(problem, x)
        g2 = gamma_coefficient(problem, c * x)
        worst_gamma = max(worst_gamma, abs(g1 - g2) / max(1.0, abs(g1)))
        count += 1

    ok = all(
        w <= tol
        for w in (
            worst_adjoint,
            worst_compose,
            worst_scaling,
            worst_hermitian,
            worst_gamma,
        )
    )
    assert _report(
        7,
        ok,
        "identity suite over 100 random instances each: adjoint "
        f"{worst_adjoint:.1e}, rank-one compositions {worst_compose:.1e}, "
        f"scaling {worst_scaling:.1e}, defect hermitian {worst_hermitian:.1e}, "
        f"gamma scaling {worst_gamma:.1e}",
    )
