"""Dense operators on weighted spaces and the 2-isometry defect machinery.

An :class:`Op` stores the dense matrix of an operator in coefficient
coordinates (column j is the image of basis monomial j), the owning space,
and a ``degree_growth`` bound: applying the operator raises the total degree
of any basis monomial by at most that much. ``degree_growth=None`` means
unknown or unbounded; such operators are refused by the truncation-safety
machinery.

On a degree-truncated model of an infinite-dimensional space, the adjoint
matrix W^-1 A^H W is wrong near the top degree, so no adjoint matrix is
built: T* is only ever applied to one vector, as W^-1 A^H (W v) from one
product with the forward matrix, and the defect operator
I - 2 T*T + T*^2 T^2 is never formed. Instead :func:`defect_quadratic`
evaluates the quadratic defect

    q(x) = ||x||^2 - 2 ||Tx||^2 + ||T^2 x||^2

or the defect image <D x, e_i> = <x, e_i> - 2 <Tx, Te_i> + <T^2 x, T^2 e_i>
on a set of labels i, from forward images only: the image is read off one
row conj(Wx) - 2 conj(W Tx) A + (conj(W T^2 x) A) A. Both are exact for
every x and e_i in the truncation-safe window: the span of the labels of
total degree <= max_degree - 2 * degree_growth, held as the index array
:func:`safe_subspace` returns. On the window's orthonormal basis E (columns
e_i / sqrt(w_i)) the form is the sum of three forward Gram products,
E^H W E - 2 (TE)^H W (TE) + (T^2 E)^H W (T^2 E). That one matrix is both the
oracle and the source of the invariance condition of the decision
procedure. The defect image that the kernel condition needs is read on the
whole window, in O(dim^2). Four-term polarization of q is only the tests'
referee (tests/helpers.py). The perturbed operator T + u⊗v is built by
:func:`perturb`, which adds the rank-one part on the block supp u x supp v
of a copy of T.

An Op stores its matrix once, in the field of its entries: float64 when
every imaginary part is exactly zero, complex otherwise. The forward products
of the form and of q run in that field. The shifts and their real
perturbations have real matrices: their form is real, T E and its two Gram
products are real products, and one helper multiplies them with a complex
vector, block or rows (of q and the image, of :func:`apply`, of the oracle
update) in one real product, through the float view of the columns or with
the re rows stacked over the im rows. A matrix with any
nonzero imaginary part keeps complex products. The rule extends to the
problem: a real matrix with u and v free of imaginary parts builds the oracle
update's rows, the oracle and condition (a) in float64, and a real form's
largest entry is read without an abs temporary. The library builders hand the
array they filled to the Op they build; a caller's array is copied once, into
its field, and never kept or frozen in place. How far a matrix raises or lowers
degree, and whether it is a weighted shift, is read off its nonzeros.

A real weighted shift, T e_j = a_j e_pi(j) with pi injective, needs no Gram
product: T*T and T*^2 T^2 are diagonal (Agler-Stankus), so is the form, and
it is read off the diagonal in O(dim^2 + r^2) against O(dim^2 r).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import WeightedSpace, vec_from_pairs, vec_to_pairs

__all__ = [
    "Op",
    "TruncationError",
    "DefectReport",
    "apply",
    "perturb",
    "defect_quadratic",
    "polarized_defect_form",
    "defect_apply_in_window",
    "truncation_cutoff",
    "truncation_safe",
    "require_truncation_safe",
    "safe_subspace",
]


ROUNDOFF_RTOL = 1e-12
"""The one round-off cutoff, relative to max(1, size): mass of x above the
truncation cutoff up to ROUNDOFF_RTOL * max(1, max |x_i|) still counts as
truncation-safe, and ||v|| within ROUNDOFF_RTOL of 1 counts as normalized."""


class TruncationError(ValueError):
    """Raised when a computation would leave the truncation-exact window."""


@dataclass(eq=False, frozen=True)
class Op:
    """A dense operator: columns are images of basis monomials. Frozen, with
    a read-only matrix, so the cached :attr:`defect_form` stays its own.

    ``matrix`` is C-contiguous and in the field of its entries: float64 when
    every imaginary part is exactly zero, complex otherwise. The Op keeps a
    copy of the matrix it is given."""

    space: WeightedSpace
    matrix: np.ndarray
    degree_growth: int | None = None

    def __post_init__(self):
        mat = self.matrix
        mat = mat.array if isinstance(mat, _Filled) else _in_field(mat)
        n = self.space.dim
        if mat.shape != (n, n):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.degree_growth is not None:
            g = int(self.degree_growth)
            if g < 0:
                raise ValueError("degree_growth must be non-negative or None")
            object.__setattr__(self, "degree_growth", g)

    @classmethod
    def from_exact_matrix(cls, space: WeightedSpace, matrix) -> "Op":
        """Wrap a matrix that IS the whole operator (no truncation behind it),
        its degree growth certified by scanning its nonzeros; a wrong shape
        reads growth 0, for the constructor to refuse."""
        mat = _in_field(matrix)
        degs = space.degrees
        growth = 0
        if mat.shape == (degs.size, degs.size):
            rows, cols = _nonzeros(mat)
            growth = int(np.max(degs[rows] - degs[cols], initial=0))
        return cls(space, _Filled(mat), degree_growth=growth)

    @cached_property
    def defect_form(self) -> "DefectReport":
        """:func:`polarized_defect_form` of this operator, built on first use."""
        return polarized_defect_form(self)

    def __repr__(self) -> str:
        return (
            f"Op(dim={self.space.dim}, kind={self.space.kind!r}, "
            f"degree_growth={self.degree_growth})"
        )

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "matrix": vec_to_pairs(self.matrix.ravel()),
            "degree_growth": (
                "unbounded" if self.degree_growth is None else self.degree_growth
            ),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Op":
        """Decode :meth:`to_dict` output; raises ValueError on malformed input."""
        if not isinstance(doc, dict):
            raise ValueError("operator document must be a JSON object")
        space = WeightedSpace.from_dict(doc["space"])
        n = space.dim
        flat = vec_from_pairs(doc["matrix"])
        if flat.size != n * n:
            raise ValueError(
                f"matrix document has {flat.size} entries, expected {n * n}"
            )
        growth = doc.get("degree_growth", "unbounded")
        if growth is None or growth == "unbounded":
            growth = None
        elif type(growth) is not int:
            raise ValueError(
                f"degree_growth must be an integer or 'unbounded', got {growth!r}"
            )
        return cls(space, flat.reshape(n, n), degree_growth=growth)


class _Filled:
    """An array that the library has just filled, in the field of its
    entries, for the one Op it builds: that Op keeps it without a copy. A
    plain class, since a dataclass adds 0.6 ms to the import."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _nonzeros(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzeros of a 2-D array, in row-major
    order, from one flat scan of its mask: no int64 array of its size."""
    return divmod(np.flatnonzero(a != 0), a.shape[1])


def _in_field(matrix) -> np.ndarray:
    """A C-contiguous copy of ``matrix`` in the field of its entries: float64
    when every imaginary part is exactly zero, complex otherwise."""
    mat = np.asarray(matrix)
    if mat.dtype == object:  # Python numbers of any kind, complex among them
        mat = mat.astype(complex)
    if mat.dtype.kind == "c" and mat.imag.any():
        return np.array(mat, dtype=complex, order="C")
    return np.array(mat.real, dtype=float, order="C")


# ---------------------------------------------------------------------------
# algebra


def apply(A: Op, x) -> np.ndarray:
    x = A.space.check_vec(x)
    return _matmul(A.matrix, x)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a complex vector or block and a matrix in either field. A
    real matrix multiplies the complex factor's float view, re and im parts
    side by side, in one real product; complex rows meet a real matrix as
    their re rows stacked over their im rows, in one real product: numpy
    would otherwise make a complex copy of the real matrix."""
    if a.dtype == b.dtype:
        return a @ b
    if b.dtype.kind == "c":  # a real matrix times a vector or columns
        f = np.ascontiguousarray(b).view(float).reshape(len(b), -1)
        return (a @ f).view(complex).reshape(a.shape[:-1] + b.shape[1:])
    rows = a.reshape(-1, a.shape[-1])  # complex rows times a real matrix
    k = len(rows)
    f = np.concatenate((rows.real, rows.imag)) @ b
    out = np.empty((k,) + f.shape[1:], complex)
    out.real, out.imag = f[:k], f[k:]
    return out.reshape(a.shape[:-1] + b.shape[1:])


def perturb(T: Op, u, v) -> Op:
    """T + u⊗v, the operator x -> Tx + <x, v> u; errors on zero u or v.

    The rank-one part u_i * w_j * conj(v_j) is added on the block
    supp u x supp v only, where all its nonzero entries lie, to the one copy
    of T's matrix, made in the field of the sum: complex only when the block
    of the sum, or T outside it, has a nonzero imaginary part. The degree
    growth is the max of T's and the growth scanned off that block, where a
    product that underflows to zero counts as zero, as in a scan of the whole
    rank-one matrix; it is None when T's is. The growth of a nonzero entry
    is its row's degree minus its column's.
    """
    space = T.space
    u = space.check_vec(u)
    v = space.check_vec(v)
    su, sv = np.flatnonzero(u), np.flatnonzero(v)
    if not (su.size and sv.size):
        raise ValueError("not rank one: u and v must both be nonzero")
    rows = su[:, None]
    block = np.outer(u[su], space.weight_array[sv] * v[sv].conj())
    A = T.matrix
    part = A[rows, sv] + block
    complex_sum = bool(part.imag.any()) or (
        A.dtype.kind == "c" and np.count_nonzero(A.imag) > np.count_nonzero(A.imag[rows, sv])
    )
    mat = np.array(A, dtype=complex) if complex_sum else np.array(A.real, order="C")
    mat[rows, sv] = part if complex_sum else part.real
    growth = T.degree_growth
    if growth is not None:
        degs = space.degrees
        i, j = _nonzeros(block)
        growth = max(growth, int(np.max(degs[su[i]] - degs[sv[j]], initial=0)))
    return Op(space, _Filled(mat), degree_growth=growth)


# ---------------------------------------------------------------------------
# the 2-isometry defect


def _norms2(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Squared weighted norm of each column of a C-contiguous complex
    (dim, k) block, summed over its float view re, im, re, ..."""
    f = z.view(float)
    return np.einsum("i,ij,ij->j", w, f, f).reshape(-1, 2).sum(axis=1)


def defect_quadratic(T: Op, x, idx=None):
    """q(x) = ||x||^2 - 2 ||Tx||^2 + ||T^2 x||^2 with weighted norms, a float;
    with an index array idx of labels, the complex values E^H W D x =
    <D x, e_i> / sqrt(w_i), i in idx, of the defect image.

    Forward images only. The image is read off one row r = conj(Wx)
    - 2 conj(W Tx) A + (conj(W T^2 x) A) A, whose entry i is <e_i, x>
    - 2 <Te_i, Tx> + <T^2 e_i, T^2 x> = conj <D x, e_i>; so every value is
    exact when x and e_i lie in the truncation-safe window of T, and the cost
    is Tx, T^2 x and two row products for any idx. Raises ValueError when
    idx is not a 1-D array of integer labels of the space, or when a value
    overflows to a non-finite number, so that no caller reads a NaN.
    """
    A, w, dim = T.matrix, T.space.weight_array, T.space.dim
    x = np.ascontiguousarray(T.space.check_vec(x)[:, None])
    if idx is not None:
        idx = np.asarray(idx)
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or (
                idx.size and not 0 <= idx.min() <= idx.max() < dim):
            raise ValueError(f"idx must be a 1-D array of integer labels in [0, {dim})")
    with np.errstate(over="ignore", invalid="ignore"):
        tx = _matmul(A, x)
        ttx = _matmul(A, tx)
        if idx is None:
            value = _norms2(w, x) - 2.0 * _norms2(w, tx) + _norms2(w, ttx)
        else:
            rows = _matmul(np.conj(w * np.concatenate((tx, ttx), axis=1).T), A)
            r = np.conj(w * x[:, 0]) - 2.0 * rows[0] + _matmul(rows[1:], A)[0]
            value = np.conj(r[idx]) / np.sqrt(w[idx])
    if not np.all(np.isfinite(value)):
        raise ValueError(
            "the defect overflows: the operator or the vector is too large "
            "for floating point"
        )
    return float(value[0]) if idx is None else value


@dataclass(eq=False, frozen=True)
class DefectReport:
    """Defect form restricted to the safe window.

    ``defect_matrix[l, j] = <D e_j, e_l>`` over the window's orthonormal
    basis, read-only since an operator caches its form; it is Hermitian up
    to round-off because the defect operator is self-adjoint, real (float64)
    for a real operator, and its size is the dimension of the window.
    ``max_residual`` is the largest entry.
    """

    defect_matrix: np.ndarray
    max_residual: float

    @classmethod
    def of(cls, mat: np.ndarray) -> "DefectReport":
        """Report ``mat``; raises ValueError on an entry that overflowed. The
        largest entry of a real matrix is read off its max and min, with no
        temporary; a NaN makes both NaN."""
        if mat.dtype.kind == "f":
            max_residual = max(float(mat.max()), -float(mat.min()))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                max_residual = float(abs(mat).max())
        if not max_residual < np.inf:
            raise ValueError("the defect form overflows: the operator or the vectors "
                             "are too large for floating point")
        mat.setflags(write=False)
        return cls(defect_matrix=mat, max_residual=max_residual)


# ---------------------------------------------------------------------------
# truncation bookkeeping


def truncation_cutoff(T: Op) -> int:
    """Largest total degree on which T^2 is truncation-exact."""
    if T.degree_growth is None:
        raise TruncationError(
            "operator has unknown (unbounded) degree growth; "
            "certify a bound before asking for truncation safety"
        )
    return T.space.max_degree - 2 * T.degree_growth


def truncation_safe(T: Op, x) -> bool:
    """Whether x is supported on the truncation-safe degrees.

    Mass above the cutoff up to ``ROUNDOFF_RTOL`` relative to
    max(1, max |x_i|) is round-off and does not count.
    """
    if T.degree_growth is None:
        return False
    x = T.space.check_vec(x)
    unsafe = np.abs(x[T.space.degrees > truncation_cutoff(T)])
    return float(np.max(unsafe, initial=0.0)) <= ROUNDOFF_RTOL * max(1.0, float(np.max(np.abs(x))))


def require_truncation_safe(T: Op, x, what: str = "vector"):
    """Raise TruncationError unless x is safe for T."""
    if not truncation_safe(T, x):
        raise TruncationError(
            f"{what} is not supported on the truncation-safe window "
            f"(total degree <= {truncation_cutoff(T)})"
        )


def safe_subspace(T: Op) -> np.ndarray:
    """Sorted indices idx of the labels of total degree at most
    max_degree - 2 * degree_growth, on which T and T^2 are truncation-exact.

    The window coordinates E^H W x of a vector x are sqrt(w[idx]) * x[idx].
    Raises if there are no such labels.
    """
    cutoff = truncation_cutoff(T)
    idx = np.flatnonzero(T.space.degrees <= cutoff)
    if idx.size == 0:
        raise TruncationError(
            f"truncation too small: no labels of degree <= {cutoff}"
        )
    return idx


def polarized_defect_form(T: Op) -> DefectReport:
    """Matrix of the defect form on the orthonormal basis E of T's safe window.

    The entries come from the forward Gram products E^H W E - 2 (TE)^H W (TE)
    + (T^2 E)^H W (T^2 E), each formed as (W conj X)^T X in two reused
    (dim, r) buffers. Raises ValueError when an entry overflows to a
    non-finite number, so that no verdict reads a NaN.

    A real matrix with no two nonzeros in a row or a column is a weighted
    shift: distinct columns of TE and of T^2 E have disjoint supports, every
    off-diagonal term is an exact zero, and the diagonal, computed with the
    dense path's operations in its order, has the same bits. One scan of the
    nonzeros certifies that. A complex matrix keeps the dense path.
    """
    idx = safe_subspace(T)
    A = T.matrix
    w = T.space.weight_array[:, None]
    scale = 1.0 / np.sqrt(w[idx, 0])
    shift = A.dtype == np.float64
    if shift:
        rows, cols = _nonzeros(A)
        a = np.zeros(A.shape[0])  # a[j]: the one nonzero of column j
        a[cols] = A[rows, cols]
        # Rows strictly increase (one nonzero a row); a keeps all (one a column).
        shift = not np.count_nonzero(rows[1:] <= rows[:-1]) and np.count_nonzero(a) == rows.size
    with np.errstate(over="ignore", invalid="ignore"):
        if shift:
            to = np.arange(A.shape[0])  # pi(j), and j itself for a zero column
            to[cols] = rows
            p = to[idx]
            f = a[idx] * scale  # TE's nonzero entries, at rows p
            g = a[p] * f  # T^2 E's, at rows to[p]
            d = -2.0 * ((f * w[p, 0]) * f)
            d += (g * w[to[p], 0]) * g
            d += w[idx, 0] * scale * scale
            return DefectReport.of(np.diag(d))
        fwd = np.take(A, idx, axis=1) * scale
        buf = np.conjugate(fwd)
        buf *= w
        mat = -2.0 * (buf.T @ fwd)
        np.matmul(A, fwd, out=buf)
        np.conjugate(buf, out=fwd)
        fwd *= w
        mat += fwd.T @ buf
        # E^H W E, diagonal: w_i scale_i^2 with the same rounded scale as E.
        mat[np.diag_indices(idx.size)] += w[idx, 0] * scale * scale
    return DefectReport.of(mat)


def defect_apply_in_window(T: Op, x) -> np.ndarray:
    """Component of (defect operator) x inside T's safe window, as a vector:
    <D x, e_i> / w_i at each window label i, from one :func:`defect_quadratic`
    call over the whole window. x must be truncation-safe; then the result is
    the untruncated D x projected onto the window.
    """
    idx = safe_subspace(T)
    x = T.space.check_vec(x)
    require_truncation_safe(T, x)
    out = T.space.zeros()
    out[idx] = defect_quadratic(T, x, idx) / np.sqrt(T.space.weight_array[idx])
    return out
