"""The reference cases of the test suite, in one table.

``CASES`` maps a name to a :class:`Case`: a zero-argument builder of a
:class:`PerturbationProblem` with the expectations that tests filter on.
A test that needs an operator reads it off a case as ``.base`` or
``.perturbed()``. ``FAMILIES`` maps a name to a seeded generator
``(seed, trials)`` of problems. ``DOCUMENTS`` maps a name to a builder of
an ``analyze`` or ``defect`` input document; ``write_analyze_documents``
writes the ones that the golden ``analyze`` rows read.

``strict_json`` is the one reader of emitted JSON in the tests.

The examples are the Dirichlet shift of Richter's model, the bidisc shift
and weighted ``C^n`` with unitary bases; the defect is that of
Agler-Stankus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from twoiso import Op, PerturbationProblem, WeightedSpace, make_coordinate_space, vec_to_pairs
from twoiso.function_spaces import (
    PolyCoeffs,
    bidisc_example_problem,
    dirichlet_perturbation_problem,
    dirichlet_shift,
)
from twoiso.sampling import (
    invariant_kernel_pair,
    isometric_correction_pair,
    random_complex_vector,
    random_unitary,
)
from helpers import identity, random_op, random_vec

SWAP = [[0.0, 1.0], [1.0, 0.0]]
DEEP_JSON = "[" * 5000 + "]" * 5000


@dataclass(frozen=True)
class Case:
    """A reference problem and what it is declared to give.

    ``field`` is "real" or "complex": the field of ``perturbed().matrix``
    and of the update rows. ``branch`` is "I" or "II" and ``verdicts`` is
    (theorem, oracle); both are None where the defect form overflows, so
    that no verdict is given."""

    build: Callable[[], PerturbationProblem]
    field: str
    branch: str | None
    verdicts: tuple[bool, bool] | None


# ---------------------------------------------------------------------------
# builders


def _swap(scale_u: float = 1.0) -> PerturbationProblem:
    """The C^2 swap unitary with the rank-one correction -2 scale_u e1⊗e2."""
    space = make_coordinate_space(2)
    base = Op.from_exact_matrix(space, SWAP)
    return PerturbationProblem(base=base, u=-2.0 * scale_u * space.basis_vector(0),
                               v=space.basis_vector(1))


def _c2_identity(a: float) -> PerturbationProblem:
    space = make_coordinate_space(2)
    return PerturbationProblem(base=identity(space), u=a * space.basis_vector(0),
                               v=space.basis_vector(1))


def _c3_tight_rank() -> PerturbationProblem:
    """T turns e0 towards e1 by 1e-11 on C^3; branch II only at tol_rank 1e-12."""
    space = make_coordinate_space(3)
    t = 1e-11
    rot = [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    return PerturbationProblem(base=Op.from_exact_matrix(space, rot),
                               u=0.3 * space.basis_vector(2), v=space.basis_vector(0),
                               tol_rank=1e-12)


def _c4_huge_u() -> PerturbationProblem:
    """A seeded unitary base on C^4 with u = 1e60 times a seeded vector and a
    seeded v: branch II, with a defect form of finite entries near 1e243,
    whose squares overflow."""
    rng = np.random.default_rng(5)
    base = Op.from_exact_matrix(make_coordinate_space(4), random_unitary(4, rng))
    u = 1e60 * random_complex_vector(4, rng)
    return PerturbationProblem(base, u, random_complex_vector(4, rng))


def _weighted_unitary_pair(seed: int, dim: int):
    """A weighted-unitary base S^-1 U S on weighted C^dim, S = diag(sqrt(w)),
    and an isometric correction (u0, v0) for U, with s = sqrt(w): the pair
    (S^-1 u0, S^-1 v0) corrects the base."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 3.0, size=dim)
    s = np.sqrt(w)
    U = random_unitary(dim, rng)
    space = make_coordinate_space(dim, weights=tuple(float(x) for x in w))
    base = Op.from_exact_matrix(space, U * s[None, :] / s[:, None])
    u0, v0 = isometric_correction_pair(U, random_complex_vector(dim, rng),
                                       rng.uniform(0.0, 2.0 * np.pi))
    return base, u0, v0, s


def _weighted_unitary(dim: int, scale: float) -> PerturbationProblem:
    """A true branch II instance at scale 1, a false one at 1.7."""
    base, u0, v0, s = _weighted_unitary_pair(61, dim)
    return PerturbationProblem(base=base, u=scale * u0 / s, v=v0 / s)


def _bidisc_off_example() -> PerturbationProblem:
    """The bidisc N = 8 example with u moved by 1e-3 along a seeded complex
    vector of total degree <= 2, so that condition (a) fails by a nonzero
    amount."""
    problem = bidisc_example_problem(8)
    space = problem.space
    rng = np.random.default_rng(62)
    w = np.where(space.degrees <= 2, random_complex_vector(space.dim, rng), 0.0)
    return PerturbationProblem(base=problem.base, u=problem.u + 1e-3 * w, v=problem.v)


def _bidisc_v_off_unit() -> PerturbationProblem:
    """The off-example problem with ||v|| = 1 + 5e-13: within round-off of 1,
    so v is not renormalized and the witness is orthogonal to it only up to
    round-off."""
    problem = _bidisc_off_example()
    return PerturbationProblem(base=problem.base, u=problem.u, v=(1 + 5e-13) * problem.v)


def _bidisc_v_mass_above_window() -> PerturbationProblem:
    """The off-example problem with 1e-14 of v on z1 z2^7, above the safe
    window but within the round-off that Op.window.contains forgives; T*v
    carries it to z2^7, also above the window."""
    problem = _bidisc_off_example()
    v = problem.v + 1e-14 * problem.space.monomial((1, 7))
    return PerturbationProblem(base=problem.base, u=problem.u, v=v)


def _bidisc_18_dense() -> PerturbationProblem:
    """The bidisc example at N = 18 with u moved by a real vector on degrees
    1 and 2: several entries in the column of z1, so the form is dense, with
    the degree growth kept."""
    problem = bidisc_example_problem(18)
    degs = problem.space.degrees
    u = problem.u + 1e-3 * ((degs >= 1) & (degs <= 2))
    return PerturbationProblem(base=problem.base, u=u, v=problem.v)


def _dirichlet(N: int, *coeffs) -> Callable[[], PerturbationProblem]:
    return lambda: dirichlet_perturbation_problem(N, PolyCoeffs(coeffs))


def _dirichlet_cubic_v_mass_above_band() -> PerturbationProblem:
    """M_z + (i z + 0.3 z^3)⊗1 on Dirichlet N = 24 with 1e-14 of v on z^10:
    u⊗v then sends z^10 to degrees 1 and 3, a drop of 9."""
    problem = dirichlet_perturbation_problem(24, PolyCoeffs((1j, 0.0, 0.3)))
    v = problem.v + 1e-14 * problem.space.monomial((10,))
    return PerturbationProblem(base=problem.base, u=problem.u, v=v)


def _dirichlet_n0(alpha: float) -> PerturbationProblem:
    """M_z + (alpha 1)⊗1 on Dirichlet N = 12: at alpha = 1e50 the defect form
    has entries near 1e200."""
    base = dirichlet_shift(12)
    one = base.space.basis_vector(0)
    return PerturbationProblem(base=base, u=alpha * one, v=one)


def _reversed_labels(problem: PerturbationProblem, scale: float = 1.0) -> PerturbationProblem:
    """``problem`` with its basis listed in reverse order and its base scaled
    by ``scale``."""
    space = problem.space
    rev = np.arange(space.dim)[::-1]
    flipped = WeightedSpace(space.labels[::-1], space.weights[::-1], kind=space.kind)
    base = Op(flipped, scale * problem.base.matrix[np.ix_(rev, rev)],
              degree_growth=problem.base.degree_growth)
    return PerturbationProblem(base=base, u=problem.u[rev], v=problem.v[rev],
                               allow_non_2_isometric_base=True)


def _dirichlet_z3_reversed_labels() -> PerturbationProblem:
    """1.1 M_z + z^3⊗1 on Dirichlet N = 12, basis listed from z^12 down to 1:
    the window of T + u⊗v is not a leading block of the base's window, and
    the base form is not zero."""
    return _reversed_labels(dirichlet_perturbation_problem(12, PolyCoeffs((0.0, 0.0, 1.0))), 1.1)


def _dirichlet_z_reversed_labels() -> PerturbationProblem:
    """M_z - z^2⊗z on Dirichlet N = 12, basis listed from z^12 down to 1:
    branch II, with the constant as its witness."""
    T = dirichlet_shift(12)
    z, z2 = T.space.monomial((1,)), T.space.monomial((2,))
    return _reversed_labels(PerturbationProblem(base=T, u=-z2, v=z))


def _identity_underflow() -> PerturbationProblem:
    """The identity on Dirichlet N = 8, growth 0, with u = 1e-200 z^3 + z and
    v = 1e-200 + z^2: the entry u_3 w_0 conj(v_0) of u⊗v underflows to 0, yet
    T + u⊗v grows degree by 3, read off the supports of u and v, not by the
    1 of its nonzero entries, and its window is degree <= 2."""
    space = dirichlet_shift(8).space
    u = 1e-200 * space.basis_vector(3) + space.basis_vector(1)
    v = 1e-200 * space.basis_vector(0) + space.basis_vector(2)
    return PerturbationProblem(Op(space, np.eye(space.dim), degree_growth=0), u, v)


def _non_2_isometric_base() -> PerturbationProblem:
    """A seeded random operator on weighted C^5, far from a 2-isometry, so
    that the base form is not zero."""
    rng = np.random.default_rng(64)
    space = make_coordinate_space(5, weights=tuple(rng.uniform(0.5, 3.0, size=5)))
    return PerturbationProblem(base=random_op(space, rng), u=random_vec(space, rng),
                               v=random_vec(space, rng), allow_non_2_isometric_base=True)


_TRUE, _FALSE = (True, True), (False, False)
DTYPES = {"real": np.float64, "complex": np.complex128}

CASES: dict[str, Case] = {
    "c2-swap": Case(_swap, "real", "II", _TRUE),
    "c2-swap-2u": Case(lambda: _swap(2.0), "real", "II", _FALSE),
    "c2-identity-1e150": Case(lambda: _c2_identity(1e150), "real", "I", _FALSE),
    "c2-identity-1e154": Case(lambda: _c2_identity(1e154), "real", None, None),
    "c3-tight-rank": Case(_c3_tight_rank, "real", "II", _FALSE),
    "c4-huge-u": Case(_c4_huge_u, "complex", "II", _FALSE),
    "weighted-c4-true": Case(lambda: _weighted_unitary(4, 1.0), "complex", "II", _TRUE),
    "weighted-c4-false": Case(lambda: _weighted_unitary(4, 1.7), "complex", "II", _FALSE),
    "weighted-c6-true": Case(lambda: _weighted_unitary(6, 1.0), "complex", "II", _TRUE),
    "weighted-c6-false": Case(lambda: _weighted_unitary(6, 1.7), "complex", "II", _FALSE),
    "non-2-isometric-base": Case(_non_2_isometric_base, "complex", "II", _FALSE),
    # The ladder: M_z - 2z⊗1 and the bidisc example M_z1 + (-z1^2 + z2)⊗z1.
    **{f"dirichlet-{N}": Case(_dirichlet(N, -2.0), "real", "I", _TRUE) for N in (12, 24, 48, 96)},
    **{f"bidisc-{N}": Case(lambda N=N: bidisc_example_problem(N), "real", "II", _TRUE)
       for N in (6, 8, 10, 14, 18)},
    "bidisc-18-dense": Case(_bidisc_18_dense, "real", "II", _FALSE),
    "bidisc-8-off-example": Case(_bidisc_off_example, "complex", "II", _FALSE),
    "bidisc-8-v-off-unit": Case(_bidisc_v_off_unit, "complex", "II", _FALSE),
    "bidisc-8-v-mass-above-window": Case(_bidisc_v_mass_above_window, "complex", "II", _FALSE),
    "dirichlet-12-iz": Case(_dirichlet(12, 1j), "complex", "I", _FALSE),
    "dirichlet-24-iz": Case(_dirichlet(24, 1j), "complex", "I", _FALSE),
    # p = (e^{i pi/3} - 1) z has |a_1 + 1| = 1: complex coefficients, a 2-isometry.
    "dirichlet-24-complex-p": Case(_dirichlet(24, np.exp(1j * np.pi / 3) - 1), "complex", "I",
                                   _TRUE),
    **{f"dirichlet-{N}-z3": Case(_dirichlet(N, 0.0, 0.0, 1.0), "real", "I", _FALSE)
       for N in (12, 40)},
    **{f"dirichlet-{N}-0.3iz-0.2z3": Case(_dirichlet(N, 0.3j, 0.0, -0.2), "complex", "I", _FALSE)
       for N in (12, 40)},
    "dirichlet-12-z3-reversed-labels": Case(_dirichlet_z3_reversed_labels, "real", "I", _FALSE),
    "dirichlet-12-z-reversed-labels": Case(_dirichlet_z_reversed_labels, "real", "II", _TRUE),
    "dirichlet-8-identity-underflow": Case(_identity_underflow, "real", "I", _FALSE),
    # Degree growth 3: D 1 reaches degree <= 6 of a window of degree <= 18.
    "dirichlet-24-cubic": Case(_dirichlet(24, 1j, 0.0, 0.3), "complex", "I", _FALSE),
    "dirichlet-24-cubic-v-mass-above-band": Case(_dirichlet_cubic_v_mass_above_band, "complex",
                                                 "I", _FALSE),
    "dirichlet-n0-alpha-1e50": Case(lambda: _dirichlet_n0(1e50), "real", "I", _FALSE),
    "dirichlet-n0-alpha-1e76": Case(lambda: _dirichlet_n0(1e76), "real", "I", _FALSE),
    "dirichlet-n0-alpha-1e77": Case(lambda: _dirichlet_n0(1e77), "real", "I", _FALSE),
    "dirichlet-n0-alpha-1e78": Case(lambda: _dirichlet_n0(1e78), "real", None, None),
}

# The benchmark ladder's rungs, in its order.
LADDER = (*(f"dirichlet-{N}" for N in (12, 24, 48, 96)), *(f"bidisc-{N}" for N in (6, 10, 14, 18)))


def problem(name: str) -> PerturbationProblem:
    return CASES[name].build()


def names(**expect) -> list[str]:
    """The names of the cases whose declared ``field``, ``branch`` or
    ``verdicts`` equal the given ones, in table order."""
    return [name for name, case in CASES.items()
            if all(getattr(case, key) == value for key, value in expect.items())]


# ---------------------------------------------------------------------------
# seeded families


def criterion_6(seed: int, trials: int) -> Iterator[PerturbationProblem]:
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


def weighted_spread(seed: int, trials: int) -> Iterator[PerturbationProblem]:
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
                U, random_complex_vector(dim, rng), rng.uniform(0.0, 2.0 * np.pi))
        else:
            u, v = random_complex_vector(dim, rng), random_complex_vector(dim, rng)
        u = 10.0 ** rng.uniform(-3.0, 3.0) * u / np.linalg.norm(u)
        space = make_coordinate_space(dim, weights=tuple(w))
        base = Op.from_exact_matrix(space, U * s[None, :] / s[:, None])
        yield PerturbationProblem(base=base, u=u / s, v=v / s)


def bidisc_near_tolerance(seed: int, trials: int) -> Iterator[PerturbationProblem]:
    """The bidisc N = 8 example with u -> (1 + delta) u and u + delta w, w two
    seeded unit vectors of total degree <= 2, over ``trials`` deltas in
    [1e-11, 1e-6]: around tol_defect 1e-8 the residuals straddle the
    tolerance."""
    example = bidisc_example_problem(8)
    space = example.space
    rng = np.random.default_rng(seed)
    directions = []
    for _ in range(2):
        w = np.where(space.degrees <= 2, random_complex_vector(space.dim, rng), 0.0)
        directions.append(w / space.norm(w))
    for delta in np.logspace(-11, -6, trials):
        for u in [(1.0 + delta) * example.u] + [example.u + delta * w for w in directions]:
            yield PerturbationProblem(base=example.base, u=u, v=example.v)


FAMILIES: dict[str, Callable[[int, int], Iterator[PerturbationProblem]]] = {
    "criterion-6": criterion_6,
    "weighted-spread": weighted_spread,
    "bidisc-8-near-tolerance": bidisc_near_tolerance,
}


# ---------------------------------------------------------------------------
# input documents of analyze and defect


def problem_document(p: PerturbationProblem) -> dict:
    return {"operator": p.base.to_dict(), "u": vec_to_pairs(p.u), "v": vec_to_pairs(p.v)}


def c2_document(matrix, u, v) -> dict:
    """An analyze document on plain C^2."""
    return {"operator": Op.from_exact_matrix(make_coordinate_space(2), matrix).to_dict(),
            "u": vec_to_pairs(u), "v": vec_to_pairs(v)}


def _weighted_document(scale: float) -> dict:
    """A weighted-unitary base on C^4 (seed 7) with its isometric correction
    times ``scale``; v has norm 3 and u a third of its size, the same u⊗v, so
    the problem rescales the pair."""
    base, u0, v0, s = _weighted_unitary_pair(7, 4)
    return {"operator": base.to_dict(), "u": vec_to_pairs(scale * u0 / s / 3.0),
            "v": vec_to_pairs(3.0 * v0 / s)}


def _weighted_swap_with_tolerances() -> dict:
    """The swap on C^2 with weights (1, 2.5), which is not a 2-isometry, and
    both tolerances in the document."""
    space = make_coordinate_space(2, weights=(1.0, 2.5))
    swap = Op.from_exact_matrix(space, SWAP)
    return {"operator": swap.to_dict(), "u": vec_to_pairs(-2.0 * space.basis_vector(0)),
            "v": vec_to_pairs(space.basis_vector(1)), "tol_rank": 1e-9, "tol_defect": 1e-8}


def _dirichlet_4_document() -> dict:
    shift = dirichlet_shift(4)
    return {"operator": shift.to_dict(), "u": vec_to_pairs(-2.0 * shift.space.monomial((1,))),
            "v": vec_to_pairs(shift.space.basis_vector(0))}


DOCUMENTS: dict[str, Callable[[], object]] = {
    "problem": lambda: problem_document(problem("bidisc-8")),
    "operator": lambda: problem("bidisc-8").base.to_dict(),
    "vector": lambda: vec_to_pairs(problem("bidisc-8").v),
    "complex-problem": lambda: problem_document(problem("dirichlet-24-complex-p")),
    "weighted-true": lambda: _weighted_document(1.0),
    "weighted-false": lambda: _weighted_document(1.7),
    # Finite entries whose defect form or norms leave floating point.
    "overflow": lambda: c2_document(np.eye(2), [1e200, 0.0], [0.0, 1.0]),
    "v-norm-overflow": lambda: c2_document(SWAP, [-2.0, 0.0], [0.0, 1e160]),
    "rescaled-u-overflow": lambda: c2_document(SWAP, [1e200, 0.0], [0.0, 1e150]),
    "u-norm-underflow": lambda: c2_document(SWAP, [1e-170, 0.0], [0.0, 1.0]),
    "diagonal-1e200-base": lambda: c2_document(1e200 * np.eye(2), [0.5, 0.0], [0.0, 1.0]),
    "swap-times-1e200": lambda: c2_document(1e200 * np.array(SWAP), [-2.0, 0.0], [0.0, 1.0]),
    "swap-base-huge-u": lambda: c2_document(SWAP, [1e200, 0.0], [0.0, 1.0]),
    "weighted-swap-with-tolerances": _weighted_swap_with_tolerances,
    "dirichlet-4": _dirichlet_4_document,
}

# The documents that the golden analyze rows read, in tests/test_golden.py.
ANALYZE_DOCUMENTS = ("problem", "complex-problem", "weighted-true", "weighted-false")


def write_analyze_documents(directory) -> None:
    """Write each of ``ANALYZE_DOCUMENTS`` to ``<directory>/<name>.json``."""
    for name in ANALYZE_DOCUMENTS:
        with open(Path(directory) / f"{name}.json", "w") as fh:
            json.dump(DOCUMENTS[name](), fh)


def strict_json(text: str):
    """Parse ``text`` as RFC 8259 JSON: a ``NaN``, ``Infinity`` or
    ``-Infinity`` token, which ``json.loads`` accepts, is a ValueError."""

    def reject(token):
        raise ValueError(f"non-finite number {token} in the output")

    return json.loads(text, parse_constant=reject)
