"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from twoiso import (
    DEFAULT_RANK_TOL,
    Op,
    PerturbationProblem,
    WeightedSpace,
    apply,
    defect_quadratic,
    make_bidisc_space,
    make_coordinate_space,
    make_dirichlet_space,
    weighted_gram_schmidt,
)


def random_weighted_space(rng: np.random.Generator, max_dim: int = 8) -> WeightedSpace:
    dim = int(rng.integers(1, max_dim + 1))
    weights = rng.uniform(0.2, 5.0, size=dim)
    return make_coordinate_space(dim, weights=tuple(weights))


def random_vec(space: WeightedSpace, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)


def random_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_op(space: WeightedSpace, rng: np.random.Generator) -> Op:
    return Op.from_exact_matrix(space, random_matrix(space.dim, rng))


def stage_problem(T: Op, v, u=None, tol_rank: float = DEFAULT_RANK_TOL) -> PerturbationProblem:
    """The problem (T, u, v) whose update rows ``witness_vector`` and
    ``gamma_coefficient`` read; u defaults to v, and T need not be a
    2-isometry."""
    return PerturbationProblem(T, v if u is None else u, v, tol_rank=tol_rank,
                               allow_non_2_isometric_base=True)


def dirichlet_shift_by_labels(N: int) -> np.ndarray:
    """Matrix of M_z on the Dirichlet space truncated at degree N, one
    entry per monomial: the label-by-label referee of ``dirichlet_shift``."""
    space = make_dirichlet_space(N)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(N):
        mat[k + 1, k] = 1.0
    return mat


def bidisc_shift_by_labels(N: int, axis: int) -> np.ndarray:
    """Matrix of M_z1 (axis 1) or M_z2 (axis 2) on the bidisc space truncated
    at degree N, each image found by its label: the referee of
    ``bidisc_shift``."""
    space = make_bidisc_space(N)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    step = (1, 0) if axis == 1 else (0, 1)
    for j, (m, n) in enumerate(space.labels):
        if m + n < N:
            mat[space.index_of((m + step[0], n + step[1])), j] = 1.0
    return mat


def identity(space: WeightedSpace) -> Op:
    return Op(space, np.eye(space.dim, dtype=complex), degree_growth=0)


def add(A: Op, B: Op) -> Op:
    """Sum; the degree growth bound is the max of the two. With
    :func:`rank_one`, the two-step referee of ``perturb``."""
    if A.space != B.space:
        raise ValueError("operators live on different spaces")
    if A.degree_growth is None or B.degree_growth is None:
        growth = None
    else:
        growth = max(A.degree_growth, B.degree_growth)
    return Op(A.space, A.matrix + B.matrix, degree_growth=growth)


def rank_one(space: WeightedSpace, u, v) -> Op:
    """The operator x -> <x, v> u; errors on zero u or v.

    Matrix entries: K[i, j] = u_i * w_j * conj(v_j), the whole dim x dim
    outer product. The degree growth is certified by scanning its columns.
    """
    u = space.check_vec(u)
    v = space.check_vec(v)
    if not (np.any(u) and np.any(v)):
        raise ValueError("not rank one: u and v must both be nonzero")
    return Op.from_exact_matrix(space, np.outer(u, space.weight_array * v.conj()))


def compose(A: Op, B: Op) -> Op:
    """A after B; degree growth bounds add."""
    if A.space != B.space:
        raise ValueError("operators live on different spaces")
    if A.degree_growth is None or B.degree_growth is None:
        growth = None
    else:
        growth = A.degree_growth + B.degree_growth
    return Op(A.space, A.matrix @ B.matrix, degree_growth=growth)


def adjoint(A: Op) -> Op:
    """Adjoint with respect to the weighted inner product: W^-1 A^H W, the
    adjoint-route referee for ``witness_vector``'s one-product T*v.

    The result carries no degree growth certificate. On a truncated model
    the adjoint matrix differs from the infinite-dimensional adjoint near
    the top degree, so it must not feed the truncation-safety machinery.
    """
    w = A.space.weight_array
    mat = (A.matrix.conj().T * w[None, :]) / w[:, None]
    return Op(A.space, mat, degree_growth=None)


def brute_force_adjoint(A: Op) -> np.ndarray:
    """Adjoint matrix found by solving the defining equations column by column.

    For each basis vector b_j, the column c = A* b_j satisfies
    <b_i, c> = <A b_i, b_j> for every i; with the diagonal Gram matrix this
    is a linear system in conj(c). Never forms the conjugate transpose, so
    it is an independent check of the W^-1 A^H W formula.
    """
    space = A.space
    n = space.dim
    gram = np.diag(space.weight_array).astype(complex)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        bj = space.basis_vector(j)
        rhs = np.array(
            [space.inner(A.matrix @ space.basis_vector(i), bj) for i in range(n)]
        )
        conj_c = np.linalg.solve(gram, rhs)
        out[:, j] = conj_c.conj()
    return out


def defect_operator(T: Op) -> Op:
    """I - 2 T*T + T*^2 T^2 as a matrix, built from the adjoint matrix: the
    adjoint-route referee for the forward-only defect quantities.

    Trustworthy on exact spaces only; on truncated models the adjoint
    entries near the top degree are wrong.
    """
    Ts = adjoint(T).matrix
    T2 = T.matrix @ T.matrix
    mat = np.eye(T.space.dim, dtype=complex) - 2.0 * Ts @ T.matrix + Ts @ Ts @ T2
    return Op(T.space, mat, degree_growth=None)


def window_basis(space: WeightedSpace, idx) -> np.ndarray:
    """Orthonormal basis e_i / sqrt(w_i), i in ``idx``, of a monomial window,
    as the columns of a (dim, r) array."""
    return np.eye(space.dim, dtype=complex)[:, idx] / np.sqrt(space.weight_array[idx])


def dense_defect_form(T: Op) -> np.ndarray:
    """E^H W E - 2 (TE)^H W (TE) + (T^2 E)^H W (T^2 E) on the orthonormal
    basis E of T's safe window, from dense complex products with ``matrix``
    cast to complex: the complex-arithmetic referee of
    ``polarized_defect_form``."""
    E = window_basis(T.space, T.window.idx)
    W = np.diag(T.space.weight_array).astype(complex)
    A = T.matrix.astype(complex)
    TE = A @ E
    T2E = A @ TE
    return E.conj().T @ W @ E - 2.0 * TE.conj().T @ W @ TE + T2E.conj().T @ W @ T2E


def field_gram_form(T: Op) -> np.ndarray:
    """E^H W E - 2 (TE)^H W (TE) + (T^2 E)^H W (T^2 E) on the orthonormal
    basis E of T's safe window, from dense Gram products in the field of the
    entries (float64 for a real matrix), with the operations and order of
    ``polarized_defect_form``'s dense path: the bit-for-bit referee of the
    form that a weighted shift reads off its diagonal."""
    idx = T.window.idx
    A = T.matrix
    w = T.space.weight_array[:, None]
    scale = 1.0 / np.sqrt(w[idx, 0])
    fwd = A[:, idx] * scale
    buf = np.conjugate(fwd) * w
    mat = -2.0 * (buf.T @ fwd)
    buf = A @ fwd
    mat += (np.conjugate(buf) * w).T @ buf
    mat[np.diag_indices(idx.size)] += w[idx, 0] * scale * scale
    return mat


def project(space: WeightedSpace, onb: np.ndarray, x) -> np.ndarray:
    """Orthogonal projection of x onto the span of the orthonormal columns."""
    return onb @ (onb.conj().T @ (space.weight_array * x))


def projection_by_expansion(space: WeightedSpace, onb: np.ndarray, x) -> np.ndarray:
    """Projection computed as an explicit orthonormal expansion sum."""
    out = space.zeros()
    for e in onb.T:
        out = out + space.inner(x, e) * e
    return out


def polarized_defect_entry(T: Op, x, y) -> complex:
    """<D x, y> for the defect operator D, recovered from the quadratic form
    by four scalar calls.

    Four-term complex polarization:
        <D x, y> = ( q(x+y) - q(x-y) + i q(x+iy) - i q(x-iy) ) / 4
    """
    x = T.space.check_vec(x)
    y = T.space.check_vec(y)
    q = defect_quadratic
    re = q(T, x + y) - q(T, x - y)
    im = q(T, x + 1j * y) - q(T, x - 1j * y)
    return complex(0.25 * re, 0.25 * im)


def defect_image_by_entries(T: Op, x) -> np.ndarray:
    """Component of D x inside T's safe window, one polarized entry per
    window label: the scalar referee of ``defect_apply_in_window``.
    """
    idx = T.window.idx
    x = T.space.check_vec(x)
    T.window.require(x)
    out = T.space.zeros()
    e = T.space.zeros()
    for i in idx:
        e[i] = 1.0 / np.sqrt(T.space.weights[i])
        out[i] = e[i] * polarized_defect_entry(T, x, e)
        e[i] = 0.0
    return out


def polarized_form_by_entries(T: Op, window_idx) -> np.ndarray:
    """Defect form on the orthonormal basis of a monomial window, one entry
    at a time.

    The diagonal is the quadratic defect and every off-diagonal entry comes
    from four-term polarization, so this is an oracle independent of the
    Gram products behind ``polarized_defect_form``.
    """
    cols = window_basis(T.space, window_idx).T
    r = len(cols)
    out = np.zeros((r, r), dtype=complex)
    for j in range(r):
        for l in range(r):
            out[l, j] = (
                defect_quadratic(T, cols[j])
                if l == j
                else polarized_defect_entry(T, cols[j], cols[l])
            )
    return out


def orthogonal_complement(space: WeightedSpace, onb: np.ndarray, *, tol: float) -> np.ndarray:
    """Orthonormal columns spanning all vectors orthogonal to ``onb``'s columns.

    Rank is detected at ``tol`` by Gram-Schmidt on an orthonormal basis of
    the whole space with ``onb``'s component removed, so the dimensions add
    up to ``space.dim``.
    """
    ambient = window_basis(space, np.arange(space.dim)).T
    candidates = [col - project(space, onb, col) for col in ambient]
    return weighted_gram_schmidt(space, candidates, tol)


def stable_kernel_referee(T: Op, v, window_idx, tol_rank: float) -> np.ndarray:
    """Orthonormal window coordinates, an (r, k) array, of the span of v and
    T*v restricted to a monomial window; the stable kernel is its complement.

    Built from the adjoint matrix and weighted Gram-Schmidt, which detects
    the rank k at ``tol_rank`` on its own, so it is independent of the
    witness vector that the verdict reads the span from.
    """
    pair = np.zeros((2, T.space.dim), dtype=complex)
    pair[:, window_idx] = np.stack([v, apply(adjoint(T), v)])[:, window_idx]
    gens = weighted_gram_schmidt(T.space, pair, tol=tol_rank)
    return np.sqrt(T.space.weight_array[window_idx])[:, None] * gens[window_idx]


def stable_kernel_block_residual(G: np.ndarray, Q: np.ndarray) -> float:
    """Condition (a) stated on the stable kernel: the spectral norm of the
    block Q^H G (I - Q Q^H), the referee of the witness-line residual.

    ``G`` is the defect form on a window's orthonormal basis and the stable
    kernel is the complement of the orthonormal columns of ``Q`` in window
    coordinates. D maps the stable kernel into itself exactly when the
    block vanishes. With the kernel condition the two statements agree up
    to the kernel residual: |witness - block| <= ||G c_v||.
    """
    block = Q.conj().T @ G
    block -= (block @ Q) @ Q.conj().T
    return float(np.linalg.norm(block, 2)) if block.size else 0.0


def complex_path_oracle(problem: PerturbationProblem, idx) -> np.ndarray:
    """The oracle form on the window ``idx``, the base form plus R^H M R, with
    the rows R and the core M built from complex-cast u and v: the complex
    path, the referee of the update that a real problem builds in float64."""
    A = problem.base.matrix
    w = problem.space.weight_array
    u, v = problem.u.astype(complex), problem.v.astype(complex)
    y = A @ u + np.vdot(v, w * u) * u
    vuy = np.array([v, u, y])
    z = np.conj(w * vuy)
    za = z @ A
    R = np.concatenate((z[:1], za[:2], za[1:] @ A))
    nu2, ny2, yu = np.vdot(u, w * u).real, np.vdot(y, w * y).real, np.vdot(u, w * y)
    M = np.array([[ny2 - 2.0 * nu2, np.conj(yu), -2, 0, 1], [yu, nu2, 0, 1, 0],
                  [-2, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]])
    k = np.searchsorted(problem.base.window.idx, idx)
    Rh = R[:, idx] / np.sqrt(w[idx])
    return problem.base.defect_form.defect_matrix[np.ix_(k, k)] + Rh.conj().T @ M @ Rh


def dense_perturbed_form(problem: PerturbationProblem) -> np.ndarray:
    """The oracle form of T + u⊗v on the problem's window as one r x r
    matrix: the base form there plus Rh^H M Rh, Rh the update's rows on the
    window over sqrt(w), in the field of those rows. The dense build that the
    verdict's support path replaces, kept as its referee."""
    R, M = problem.update
    window = problem.window
    k = np.searchsorted(problem.base.window.idx, window.idx)
    Rh = R[:, window.idx] / window.sqrt_w
    return problem.base.defect_form.defect_matrix[np.ix_(k, k)] + Rh.conj().T @ M @ Rh


def exact_kernel_image(T: Op, x, absolute: bool = False, u=None, idx=None) -> list[Fraction]:
    """<D x, e_i> = w_i x_i - 2 <Tx, Te_i> + <T^2 x, T^2 e_i> at each label i
    of T's safe window, in exact rational arithmetic on the stored float64
    matrix, weights and x: every float is an exact rational, so this is the
    image that a float computation on the same inputs approximates. The
    exact referee of ``defect_apply_in_window`` on a real operator and a
    real x; Te_i and T^2 e_i are read column by column, not off a row.

    With ``u``, the operator is T + u⊗x, its entries A_ij + u_i w_j x_j
    added exactly, and the labels are ``idx``, the window of that operator:
    the referee of the verdict's kernel residual, which reads the base and
    the rank-one part apart.

    With ``absolute``, the matrix and x are replaced by their absolute values
    and the three terms are added: the scale of each entry's round-off.
    """
    x = T.space.check_vec(x)
    u = T.space.zeros() if u is None else T.space.check_vec(u)
    if T.matrix.dtype != np.float64 or x.imag.any() or u.imag.any():
        raise ValueError("the exact referee takes a real operator and real vectors")
    n = T.space.dim
    sign = 1 if absolute else -1
    entry = abs if absolute else (lambda a: a)
    w = [Fraction(c) for c in T.space.weight_array.tolist()]
    us = [Fraction(entry(c)) for c in u.real.tolist()]
    cols = []
    for j, xj in enumerate(x.real.tolist()):
        part = w[j] * Fraction(entry(xj))
        col = [Fraction(entry(a)) + ui * part for a, ui in zip(T.matrix[:, j].tolist(), us)]
        cols.append([(i, a) for i, a in enumerate(col) if a])

    def apply_exact(y: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * n
        for j, yj in enumerate(y):
            if yj:
                for i, a in cols[j]:
                    out[i] += a * yj
        return out

    def inner(a: list[Fraction], b: list[Fraction]) -> Fraction:
        return sum((wk * ak * bk for wk, ak, bk in zip(w, a, b) if ak and bk), Fraction(0))

    xs = [Fraction(entry(c)) for c in x.real.tolist()]
    tx = apply_exact(xs)
    ttx = apply_exact(tx)
    image = []
    for i in (T.window.idx if idx is None else idx).tolist():
        te = apply_exact([Fraction(int(k == i)) for k in range(n)])
        image.append(w[i] * xs[i] + sign * 2 * inner(tx, te) + inner(ttx, apply_exact(te)))
    return image


def exact_sqrt(value: Fraction) -> float:
    """The square root of a non-negative rational as a float, within about one
    ulp. The rational is first scaled by a power of four into the float
    range, so a value past that range whose root is in range does not
    overflow."""
    if not value:
        return 0.0
    k = (value.numerator.bit_length() - value.denominator.bit_length()) // 2
    return math.sqrt(value / Fraction(4) ** k) * 2.0 ** k
