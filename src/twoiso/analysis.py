"""Decision procedure for rank-one perturbations of 2-isometries.

Given a 2-isometry T and nonzero vectors u, v with ||v|| = 1, write
K = u⊗v and consider the perturbation T + K. The perturbation is again a
2-isometry exactly when v lies in the kernel of the perturbed defect
operator and exactly one of two mutually exclusive branches holds:

* branch I: ker K is invariant under T, equivalently T*v is parallel to v.
  Nothing else is required.
* branch II: otherwise there is (up to scale) a unique witness vector
  x = T*v - <T*v, v> v spanning the part of ker K orthogonal to the stable
  kernel, and two conditions must hold:
  (a) the perturbed defect maps the stable kernel into itself (equivalently
      the witness line into itself), and
  (b) the norm balance ||u||^2 = -2 (gamma + Re <u, Tv>) with the coupling
      constant gamma = Re( <T* P T* u, x> / <T*v, x> ), P the projection
      onto ker K.

Every residual reported here is evaluated through forward applications of
the operator only, so all numbers are exact on the truncation-safe window of
a degree-truncated model, which each operator builds once and keeps as
``Op.window``; the window of T + u⊗v is read off its growth
(``PerturbationProblem.window``), and the verdict builds no T + u⊗v. The
oracle is the defect form G of T + u⊗v over that window: the base form,
built once per operator and
cached on the frozen ``Op`` (it validates T), plus a rank-4 update R^H M R
whose five rows R = [c, b, p, s, t] are products of conj(W v), conj(W u)
and conj(W y) with the truncated matrix A, built once per problem
(``PerturbationProblem.update``). A row times a vector is an inner product,
b x = <Tx, v>, p x = <Tx, u>, s x = <T^2 x, u>, so the branch II quantities
are read off the same rows: T*v = W^-1 conj(b), gamma = Re( (s x - (b x)(p v))
/ (b x) ) and the norm balance from Re(p v). T*v is exact only when it has
no mass above the truncation degree, which nothing certifies yet. The rows,
the oracle and condition (a) run in the field of the problem: float64 when
A is real and u and v have no nonzero imaginary part, as for the shifts and
their reference perturbations, complex otherwise. The update vanishes off
S x S, S the window labels where a column of R is nonzero, so on a base
whose form is its diagonal (a real weighted shift) G is kept as that
diagonal and the |S| x |S| block: the verdict has no r x r temporary, and
its oracle, condition (a) and kernel residual cost O(dim^2 + r + |S|^2).
A dense base form keeps S the whole window. Condition
(a) is read off G on the witness line alone, in the window coordinates
``window.sqrt_w * x[window.idx]`` of a witness the window contains: given
the kernel condition, D maps
the stable kernel into itself exactly when it maps the witness line into
itself. The witness norm against tol_rank is the one rank decision. The
kernel residual reads its defect image <D v, e_i> on the whole window off
forward images only: the base's image as one row of defect_quadratic, plus
the rank-4 update at the window coordinates of v.
The oracle verdict thresholds the entries of G, the theorem verdict the branch
residuals; the two must agree and both are in the report.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .operators import (
    ROUNDOFF_RTOL,
    DefectReport,
    Op,
    Window,
    _in_field,
    _matmul,
    _rank_one_part,
    defect_quadratic,
    perturb,
)
from .spaces import WeightedSpace, pow2_scale

__all__ = [
    "DEFAULT_RANK_TOL",
    "DEFAULT_DEFECT_TOL",
    "PerturbationProblem",
    "TheoremReport",
    "witness_vector",
    "gamma_coefficient",
    "condition_iib_residual",
    "condition_iia_residual",
    "kernel_condition_residual",
    "theorem_verdict",
]

# Two orders above accumulated round-off for dense products at dim <= 100.
DEFAULT_RANK_TOL = 1e-9
DEFAULT_DEFECT_TOL = 1e-8


def witness_vector(problem: PerturbationProblem) -> np.ndarray | None:
    """Component of T*v orthogonal to v, or None when they are parallel at
    ``problem.tol_rank``. For unit v, x spans the orthocomplement of the
    stable kernel inside ker(u⊗v), and <T*v, x> = ||x||^2 > 0.

    T*v = W^-1 conj(b), b = conj(W v) A the second row of ``problem.update``:
    the projection of T*v onto degrees <= N, exact only when T*v has no mass
    above degree N, which nothing certifies yet.
    """
    space, v = problem.space, problem.v
    tstar_v = np.conj(problem.update[0][1]) / space.weight_array
    x = tstar_v - space.inner(tstar_v, v) * v
    if space.norm(x) <= problem.tol_rank:
        return None
    return x


def gamma_coefficient(problem: PerturbationProblem, x) -> float:
    """The coupling constant Re( <T* P T* u, x> / <T*v, x> ), P the projection
    onto the orthocomplement of v and x any nonzero vector in the witness
    line; the scale of x cancels in the ratio. With the rows of
    ``problem.update``, b x = <Tx, v>, p x = <Tx, u> and s x = <T^2 x, u>, the
    ratio is the conjugate of ( s x - (b x)(p v) ) / (b x), so the value is
    exact for truncation-safe x and v. Raises when |<T*v, x>| <= tol_rank ||x||,
    which cannot happen for the canonical witness but guards user-supplied x.
    """
    _, b, p, s, _ = problem.update[0]
    floor = problem.tol_rank * problem.space.norm(x)  # checks the shape of x
    bx = b @ x
    if abs(bx) <= floor:
        raise ValueError("degenerate denominator: <T*v, x> is numerically zero, "
                         "x does not witness branch II")
    return float(np.real((s @ x - bx * (p @ problem.v)) / bx))


@dataclass(frozen=True)
class PerturbationProblem:
    """A base 2-isometry with a rank-one perturbation direction.

    The pair (u, v) is rescaled at construction to (||v|| u, v / ||v||), so
    that ||v|| = 1 without changing u⊗v; ``v_was_normalized`` records whether
    that happened (||v|| off 1 by more than ``ROUNDOFF_RTOL``). u and v are
    kept in the field of their entries, as ``Op.matrix`` is. Both tolerances
    must be finite and positive real numbers, not booleans, and are stored
    as floats. The base operator is validated to be a 2-isometry
    at truncation scale via ``base.defect_form``, built once per base, on
    its safe window (override with ``allow_non_2_isometric_base`` for
    exploratory use). A non-finite or zero u or v raises ValueError, and so
    does a squared norm of v that over- or underflows, a rescaled u that
    overflows, or a squared norm of u that underflows to zero. A u whose
    squared norm overflows is left to the defect form, which reports the
    overflow. The verdict reads the oracle off the base's form, so the
    problem is frozen like its base. :attr:`window` is the window of
    T + u⊗v, read off its growth; :meth:`perturbed` builds T + u⊗v itself,
    for ``reproduce`` and the reference cases, and the verdict builds none.
    """

    base: Op
    u: np.ndarray
    v: np.ndarray
    tol_rank: float = DEFAULT_RANK_TOL
    tol_defect: float = DEFAULT_DEFECT_TOL
    allow_non_2_isometric_base: bool = False
    v_was_normalized: bool = field(init=False)
    base_defect: float = field(init=False)

    def __post_init__(self):
        for name in ("tol_rank", "tol_defect"):
            tol = getattr(self, name)
            real = isinstance(tol, numbers.Real) and not isinstance(tol, (bool, np.bool_))
            try:
                val = float(tol) if real else math.nan
            except OverflowError:  # an int beyond the float range
                val = math.inf
            if not 0 < val < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {tol!r}")
            object.__setattr__(self, name, val)
        space = self.base.space
        u, v = space.check_vec(self.u), space.check_vec(self.v)
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("u and v must be finite")
        u, v = _in_field(u), _in_field(v)
        if not (np.any(u) and np.any(v)):
            raise ValueError("not rank one: u and v must both be nonzero")
        nv = space.norm(v)
        if not 0.0 < nv * nv < np.inf:
            what = "underflows to zero" if nv * nv == 0.0 else "overflows"
            raise ValueError(f"the squared norm of v {what} in floating point")
        normalized = abs(nv - 1.0) > ROUNDOFF_RTOL
        if normalized:
            with np.errstate(over="ignore"):
                u, v = nv * u, v / nv
            if not np.all(np.isfinite(u)):
                raise ValueError("the rescaled u = ||v|| u overflows in floating point")
        nu = space.norm(u)
        if nu * nu == 0.0:
            raise ValueError("the squared norm of u underflows to zero in floating point")
        for name, value in (("u", u), ("v", v), ("v_was_normalized", normalized),
                            ("base_defect", self.base.defect_form.max_residual)):
            object.__setattr__(self, name, value)
        if not self.allow_non_2_isometric_base and self.base_defect > self.tol_defect:
            raise ValueError(
                "base operator is not a 2-isometry at truncation scale "
                f"(safe-window defect {self.base_defect:.3e} > "
                f"{self.tol_defect:.1e}); pass allow_non_2_isometric_base=True "
                "to analyze anyway"
            )

    @property
    def space(self) -> WeightedSpace:
        return self.base.space

    def perturbed(self) -> Op:
        """T + u⊗v, for ``reproduce`` and the tests; the verdict builds none."""
        return perturb(self.base, self.u, self.v)

    @cached_property
    def window(self) -> Window:
        """The truncation-safe window of T + u⊗v, built once without the
        operator from the growth that :func:`operators.perturb` reads off the
        supports of u and v (``operators._rank_one_part``), so it is
        ``perturbed().window``."""
        return Window(self.space, _rank_one_part(self.base, self.u, self.v)[2])

    @cached_property
    def update(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows R = [c, b, p, s, t] = conj(W [v, v, u, u, y]) times
        [1, A, A, A^2, A^2], y = Tu + <u, v> u, A the truncated matrix, and the
        Hermitian M of the oracle's rank-4 update R^H M R: built once, read-only.
        A row times a vector is an inner product, c x = <x, v>, b x = <Tx, v>,
        p x = <Tx, u>, s x = <T^2 x, u>. Overflow is left to the readers.

        R and M are in the field of the problem, which follows A, u and v,
        each kept in the field of its entries: float64 when all three are
        real, complex otherwise; the oracle and condition (a) follow them.
        """
        A, w, u, v = self.base.matrix, self.space.weight_array, self.u, self.v
        with np.errstate(over="ignore", invalid="ignore"):
            y = _matmul(A, u) + np.vdot(v, w * u) * u
            vuy = np.array([v, u, y])
            z = np.conj(w * vuy)
            gram = z @ vuy.T  # gram[i, j] = <vuy[j], vuy[i]>
            za = _matmul(z, A)
            R = np.concatenate((z[:1], za[:2], _matmul(za[1:], A)))
            nu2, ny2, yu = gram[1, 1].real, gram[2, 2].real, gram[1, 2]
            M = np.array([[ny2 - 2.0 * nu2, np.conj(yu), -2, 0, 1], [yu, nu2, 0, 1, 0],
                          [-2, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]])
        R.setflags(write=False)
        M.setflags(write=False)
        return R, M


@dataclass
class TheoremReport:
    """Branch decision, residuals, and the two verdicts for one problem.

    In branch I the fields gamma, cond_iia_residual and cond_iib_residual
    are None, not zero: the branch conditions are mutually exclusive and
    the branch II conditions are not evaluated when the kernel of the
    perturbation is invariant. :meth:`to_dict` gives the fields in the order
    that ``analyze`` prints them, with ``paper_branch`` after ``branch`` and
    the space as its own document.
    """

    branch: str
    kernel_residual: float
    gamma: float | None
    cond_iia_residual: float | None
    cond_iib_residual: float | None
    oracle_defect: float
    verdict_theorem: bool
    verdict_oracle: bool
    safe_dim: int
    s_dim_evaluated: int | None
    v_was_normalized: bool
    base_defect: float
    tol_defect: float
    tol_rank: float
    space: WeightedSpace

    def to_dict(self) -> dict:
        paper_branch = "(i)" if self.branch == "I" else "(ii)"
        doc = {"branch": self.branch, "paper_branch": paper_branch}
        doc.update((f.name, getattr(self, f.name)) for f in fields(self))
        doc["space"] = self.space.to_dict()
        return doc


def condition_iib_residual(problem: PerturbationProblem, gamma: float) -> float:
    """| ||u||^2 + 2 (gamma + Re <u, Tv>) |, the branch II norm balance, with
    <Tv, u> = p v read off the oracle update's row p."""
    p = problem.update[0][2]
    nu = problem.space.norm(problem.u)
    return float(abs(nu * nu + 2.0 * (gamma + np.real(p @ problem.v))))


def condition_iia_residual(form: DefectReport, c_x: np.ndarray) -> float:
    """Invariance residual of the perturbed defect on the witness line,
    ||G c_x - (c_x^H G c_x) c_x||.

    ``form`` is the defect form G on the safe window's orthonormal basis,
    ``G[l, j] = <D e_j, e_l>``, and ``c_x`` the window coordinates of the
    unit witness; G c_x is read off the form's layout (:meth:`DefectReport.image`).
    D is self-adjoint, so it maps the stable kernel into itself
    exactly when it maps the complement span{v, x} into itself; given the
    kernel condition D v = 0, which the verdict also requires, that is the
    witness line, because <D x, v> = <x, D v> = 0. The norm is taken after
    an exact power-of-two scaling, so it is finite whenever it is in range.
    """
    img = form.image(c_x)
    res = img - np.vdot(c_x, img) * c_x
    scale = pow2_scale(res)
    return float(np.linalg.norm(res * scale) / scale)


def _window_rows(problem: PerturbationProblem) -> np.ndarray:
    """Rh = R[:, idx] / sqrt(w[idx]), the rows of ``problem.update`` on the
    problem's window in window coordinates, where the rank-4 update is
    Rh^H M Rh. Overflow is left to the readers."""
    window = problem.window
    return problem.update[0][:, window.idx] / window.sqrt_w


def kernel_condition_residual(problem: PerturbationProblem) -> float:
    """|| (perturbed defect) v || read off the problem's window: the image
    E^H W D~ v = E^H W D v + Rh^H M Rh c_v, the base's image off one
    defect_quadratic row plus the rank-4 update at the window coordinates
    c_v of v, so no T + u⊗v is built. The norm is taken after an exact
    power-of-two scaling.

    Raises when v is not supported on the truncation-safe window, and
    ValueError when the image overflows.
    """
    window, v = problem.window, problem.v
    window.require(v)
    M = problem.update[1]
    img = defect_quadratic(problem.base, v, window.idx)
    with np.errstate(over="ignore", invalid="ignore"):
        Rh = _window_rows(problem)
        c_v = window.sqrt_w * v[window.idx]
        img += Rh.conj().T @ (M @ (Rh @ c_v))
    if not np.isfinite(img).all():
        raise ValueError(
            "the defect overflows: the operator or the vector is too large "
            "for floating point"
        )
    scale = pow2_scale(img)
    return float(np.linalg.norm(img * scale) / scale)


def _perturbed_defect_form(problem: PerturbationProblem) -> DefectReport:
    """Defect form G~ of T + u⊗v on ``problem.window``, a subset of the
    base's: the base form G there plus the rank-4 update Rh^H M Rh, Rh the
    rows of ``problem.update`` on the window (:func:`_window_rows`).

    With E the window basis, c = E^H W v and y = Tu + <u, v> u, the blocks
    are TE + u c^H and T^2 E + u b^H + y c^H, where b, p, s, t are E^H of
    A^H W v, A^H W u, (A^H)^2 W u, (A^H)^2 W y (the conjugates of the rows),
    as in the direct build. The Gram products change by (t - 2p) c^H + (||y||^2
    - 2||u||^2) c c^H + <y, u> b c^H + s b^H + ||u||^2 b b^H and the adjoints
    of the off-diagonal terms, which is R^H M R; M has rank 4 since p and t
    enter as t - 2p.

    Every entry of the update off S x S is an exact zero, S the window
    positions where a column of Rh is nonzero. So on a base whose form is
    its diagonal d (a real weighted shift), G~ keeps d and the |S| x |S|
    block d[S] + Rh_S^H M Rh_S, and its largest entry is the larger of
    max |d_i|, i not in S, and the block's: no r x r matrix is formed. A
    dense base form keeps S the whole window, and G~ is made once as one
    r x r matrix with G added into it. The block is in the field of the
    problem. Raises ValueError on an overflow.
    """
    M = problem.update[1]
    window, base_idx = problem.window, problem.base.window.idx
    base = problem.base.defect_form
    k = np.searchsorted(base_idx, window.idx) if window.idx.size < base_idx.size else None
    with np.errstate(over="ignore", invalid="ignore"):
        Rh = _window_rows(problem)
        if base.diagonal is None:
            form = Rh.conj().T @ M @ Rh  # the one r x r result, in the field of R
            form += base.block if k is None else base.block[np.ix_(k, k)]
            return DefectReport.of(form, window)
        d = base.diagonal if k is None else base.diagonal[k]
        S = np.flatnonzero(Rh.any(axis=0))
        Rh = Rh[:, S]
        block = Rh.conj().T @ M @ Rh
        block.flat[::S.size + 1] += d[S]
    return DefectReport.of(block, window, d, S)


def theorem_verdict(problem: PerturbationProblem) -> TheoremReport:
    """Run the full decision procedure and cross-validate with the oracle.

    The theorem verdict combines the kernel condition with the branch
    conditions; the oracle verdict thresholds the defect form of the
    perturbed operator over its whole safe window, read as the base form
    plus a rank-4 update. Condition (a) reads that form; the witness, gamma
    and condition (b) read the update's rows, and the kernel residual the
    base's defect row and the update. No T + u⊗v is built. The two verdicts
    must agree; both are reported.
    """
    space, tol, window = problem.space, problem.tol_defect, problem.window
    oracle = _perturbed_defect_form(problem)
    kernel_residual = kernel_condition_residual(problem)

    x = witness_vector(problem)
    if x is None:
        branch, gamma, iia, iib, s_dim = "I", None, None, None, None
        verdict_theorem = kernel_residual <= tol
    else:
        branch = "II"
        xhat = x / space.norm(x)
        window.require(xhat, "witness vector")
        gamma = gamma_coefficient(problem, xhat)
        iib = condition_iib_residual(problem, gamma)
        # xhat is truncation-safe, so its window coordinates carry all of
        # the witness line; the stable kernel is the complement of v and xhat.
        c_x = window.sqrt_w * xhat[window.idx]
        iia = condition_iia_residual(oracle, c_x)
        s_dim = window.idx.size - 2
        verdict_theorem = kernel_residual <= tol and iia <= tol and iib <= tol

    return TheoremReport(
        branch=branch,
        kernel_residual=kernel_residual,
        gamma=gamma,
        cond_iia_residual=iia,
        cond_iib_residual=iib,
        oracle_defect=oracle.max_residual,
        verdict_theorem=bool(verdict_theorem),
        verdict_oracle=bool(oracle.max_residual <= tol),
        tol_rank=problem.tol_rank,
        tol_defect=problem.tol_defect,
        safe_dim=window.idx.size,
        s_dim_evaluated=s_dim,
        v_was_normalized=problem.v_was_normalized,
        base_defect=problem.base_defect,
        space=space,
    )
