"""Dense operators on weighted spaces and the 2-isometry defect machinery.

An :class:`Op` stores the dense matrix of an operator in coefficient
coordinates (column j is the image of basis monomial j), the owning space,
and a ``degree_growth`` bound: applying the operator raises the total degree
of any basis monomial by at most that much. ``degree_growth=None`` means
unknown or unbounded; such an operator has no truncation-safe window.

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
every x and e_i in the truncation-safe window (:class:`Window`): the span
of the labels of total degree <= max_degree - 2 * degree_growth, which the
operator keeps as its :attr:`Op.window`. On the window's orthonormal basis
E (columns e_i / sqrt(w_i)) the form is the sum of three forward Gram
products, E^H W E - 2 (TE)^H W (TE) + (T^2 E)^H W (T^2 E). The base's
form, with a rank-4 update, is both the oracle and the source of the
invariance condition of the decision procedure (``analysis``). The defect
image that the kernel condition needs is read on the whole window, in
O(dim^2). Four-term polarization of q is only the tests' referee
(tests/helpers.py). The perturbed operator T + u⊗v is built by
:func:`perturb`, which adds the rank-one part on the block supp u x supp v
of a copy of T; its growth is read off the supports, with no block
(:func:`_rank_one_part`), and the verdict reads it and builds no such
operator.

An Op stores its matrix once, in the field of its entries: float64 when
every imaginary part is exactly zero, complex otherwise. The forward products
of the form and of q run in that field. The shifts and their real
perturbations have real matrices: their form is real, T E and its two Gram
products are real products, and one helper multiplies them with a complex
vector, block or rows (of q and the image, of :func:`apply`, of the oracle
update) in one real product, through the float view of the columns or with
the re rows stacked over the im rows. A matrix with any nonzero imaginary
part keeps complex products. The rule extends to the problem, which keeps u
and v in their field: a real matrix with real u and v builds the oracle
update's rows, the oracle and condition (a) in float64, and a real form's
largest entry is read without an abs temporary. The library builders hand
the array they filled to the Op they build; a caller's array is copied once,
into its field, and never kept or frozen in place. How far a matrix raises
or lowers degree, and whether it is a weighted shift, is read off its
nonzeros.

A real weighted shift, T e_j = a_j e_pi(j) with pi injective, needs no Gram
product: T*T and T*^2 T^2 are diagonal (Agler-Stankus), so is the form, and
it is read off the diagonal in O(dim^2 + r) against O(dim^2 r) and kept as
that diagonal, with no r x r matrix (:class:`DefectReport`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Number

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
    copy of the matrix it is given.

    The constructor holds every rule on its input: a (dim, dim) matrix of
    finite numbers, none a bool, a string or None, and a growth that is None
    or a non-negative integer, not a bool. :meth:`from_dict` adds only the
    JSON spellings, [re, im] pairs and ``"unbounded"``."""

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
        g = self.degree_growth
        if g is not None:
            if isinstance(g, bool) or not isinstance(g, (int, np.integer)):
                raise ValueError(f"degree_growth must be an integer or 'unbounded', got {g!r}")
            if g < 0:
                raise ValueError("degree_growth must be non-negative or None")
            object.__setattr__(self, "degree_growth", int(g))

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
    def window(self) -> "Window":
        """This operator's truncation-safe :class:`Window`, built on first use."""
        return safe_subspace(self)

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
            raise ValueError(f"matrix document has {flat.size} entries, expected {n * n}")
        growth = doc.get("degree_growth", "unbounded")
        return cls(space, flat.reshape(n, n), None if growth == "unbounded" else growth)


class Window:
    """The truncation-safe window of an operator T on ``space`` of degree
    growth ``growth``: the labels of total degree <= ``cutoff`` = max_degree
    - 2 * growth, on which T and T^2 are exact; a growth of None (unbounded)
    raises TruncationError. ``idx`` holds them sorted and ``sqrt_w`` =
    sqrt(w[idx]), both read-only, so the window coordinates E^H W x of a
    vector x are ``sqrt_w * x[idx]``. The window may be empty; a defect form
    on it is refused (:meth:`DefectReport.of`). A plain class, as
    :class:`_Filled`."""

    __slots__ = ("space", "cutoff", "idx", "sqrt_w")

    def __init__(self, space: WeightedSpace, growth: int | None):
        if growth is None:
            raise TruncationError("operator has unknown (unbounded) degree growth; "
                                  "certify a bound before asking for truncation safety")
        self.space, self.cutoff = space, space.max_degree - 2 * growth
        self.idx = np.flatnonzero(space.degrees <= self.cutoff)
        self.sqrt_w = np.sqrt(space.weight_array[self.idx])
        self.idx.setflags(write=False)
        self.sqrt_w.setflags(write=False)

    def contains(self, x) -> bool:
        """Whether x is supported on the window's degrees. Mass above the
        cutoff up to ``ROUNDOFF_RTOL`` relative to max(1, max |x_i|) is
        round-off and does not count."""
        x = self.space.check_vec(x)
        unsafe = np.abs(x[self.space.degrees > self.cutoff])
        return float(np.max(unsafe, initial=0.0)) <= ROUNDOFF_RTOL * max(1.0, float(np.max(np.abs(x))))

    def require(self, x, what: str = "vector") -> None:
        """Raise TruncationError unless the window contains x."""
        if not self.contains(x):
            raise TruncationError(
                f"{what} is not supported on the truncation-safe window "
                f"(total degree <= {self.cutoff})"
            )


def safe_subspace(T: Op) -> Window:
    """``Window(T.space, T.degree_growth)``, which :attr:`Op.window` keeps. A
    function of its own, which :attr:`Op.window` looks up at call time,
    since perfbench traces it."""
    return Window(T.space, T.degree_growth)


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


def _in_field(mat) -> np.ndarray:
    """A C-contiguous copy of ``mat`` in the field of its entries: float64
    when every imaginary part is exactly zero, complex otherwise. Python
    entries are read by their own type, since numpy reads True as 1."""
    if not isinstance(mat, np.ndarray) or mat.dtype == object:
        mat = np.array(mat, dtype=object)
        if all(isinstance(x, Number) and type(x) is not bool for x in mat.flat):
            mat = mat.astype(complex)  # else it stays an object array, refused below
    if mat.dtype.kind not in "iufc" or not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite numbers")
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
    of the sum, or T outside it, has a nonzero imaginary part. The growth is
    read off the supports (:func:`_rank_one_part`), not off the block.
    """
    space = T.space
    u, v = space.check_vec(u), space.check_vec(v)
    su, sv, growth = _rank_one_part(T, u, v)
    rows = su[:, None]
    A = T.matrix
    part = A[rows, sv] + np.outer(u[su], space.weight_array[sv] * v[sv].conj())
    complex_sum = bool(part.imag.any()) or (
        A.dtype.kind == "c" and np.count_nonzero(A.imag) > np.count_nonzero(A.imag[rows, sv])
    )
    mat = np.array(A, dtype=complex) if complex_sum else np.array(A.real, order="C")
    mat[rows, sv] = part if complex_sum else part.real
    return Op(space, _Filled(mat), degree_growth=growth)


def _rank_one_part(T: Op, u, v) -> tuple[np.ndarray, np.ndarray, int | None]:
    """supp u and supp v of two arrays, where all the nonzero entries of u⊗v
    lie, and the degree growth of T + u⊗v, max(T's, max deg(supp u) -
    min deg(supp v)), None when T's is; errors on zero u or v. Read off the
    supports, not the products u_i w_j conj(v_j), it bounds the operator
    itself, whether or not a product underflows to 0. :func:`perturb` and
    the window of a perturbation problem both read it, so the two windows
    are the same."""
    su, sv = np.flatnonzero(u), np.flatnonzero(v)
    if not (su.size and sv.size):
        raise ValueError("not rank one: u and v must both be nonzero")
    growth = T.degree_growth
    if growth is not None:
        degs = T.space.degrees
        growth = max(growth, int(degs[su].max() - degs[sv].min()))
    return su, sv, growth


# ---------------------------------------------------------------------------
# the 2-isometry defect


def _norms2(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Squared weighted norm of each column of a C-contiguous (dim, k)
    block; a complex one is summed over its float view re, im, re, ..."""
    f = z.view(float)
    norms = np.einsum("i,ij,ij->j", w, f, f)
    return norms.reshape(-1, 2).sum(axis=1) if z.dtype.kind == "c" else norms


def defect_quadratic(T: Op, x, idx=None):
    """q(x) = ||x||^2 - 2 ||Tx||^2 + ||T^2 x||^2 with weighted norms, a float;
    with an index array idx of labels, the complex values E^H W D x =
    <D x, e_i> / sqrt(w_i), i in idx, of the defect image.

    Forward images only. The image is read off one row r = conj(Wx)
    - 2 conj(W Tx) A + (conj(W T^2 x) A) A, whose entry i is <e_i, x>
    - 2 <Te_i, Tx> + <T^2 e_i, T^2 x> = conj <D x, e_i>; so every value is
    exact when x and e_i lie in the truncation-safe window of T, and the cost
    is Tx, T^2 x and two row products for any idx, in float64 when T is real
    and x has no nonzero imaginary part. Raises ValueError when
    idx is not a 1-D array of integer labels of the space, or when a value
    overflows to a non-finite number, so that no caller reads a NaN.
    """
    A, w, dim = T.matrix, T.space.weight_array, T.space.dim
    x = T.space.check_vec(x)[:, None]
    x = np.ascontiguousarray(x.real if A.dtype.kind == "f" and not x.imag.any() else x)
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
            value = (np.conj(r[idx]) / np.sqrt(w[idx])).astype(complex, copy=False)
    if not np.all(np.isfinite(value)):
        raise ValueError(
            "the defect overflows: the operator or the vector is too large "
            "for floating point"
        )
    return float(value[0]) if idx is None else value


@dataclass(eq=False, frozen=True)
class DefectReport:
    """Defect form G restricted to the safe window, ``G[l, j] = <D e_j, e_l>``
    over the window's orthonormal basis. G is Hermitian up to round-off
    because the defect operator is self-adjoint, real (float64) for a real
    operator, and its size is the dimension of the window. ``max_residual``
    is the largest |entry|.

    A dense form keeps G as ``block``. A form that vanishes off its diagonal
    and off one block keeps its ``diagonal`` over the whole window, and
    ``block`` is G on ``support`` x ``support``, ``support`` being sorted
    positions in the window; every other entry is an exact zero. That is the
    layout of a real weighted shift's form, with an empty support, and of the
    form of T + u⊗v on such a base, whose support is where the rank-4 update
    lives (``analysis``). The arrays are read-only, since an operator caches
    its form.
    """

    block: np.ndarray
    max_residual: float
    diagonal: np.ndarray | None = None
    support: np.ndarray | None = None

    @classmethod
    def of(cls, block: np.ndarray, window: Window, diagonal=None, support=None) -> "DefectReport":
        """Report the form on ``window`` kept as ``block``, or as ``diagonal``
        with ``block`` on ``support``; raises TruncationError when the window
        is empty and ValueError on an entry that overflowed. The largest
        entry of a real form is read off its max and min, with no abs
        temporary; a NaN makes both NaN."""
        if not window.idx.size:
            raise TruncationError(
                f"truncation too small: no labels of degree <= {window.cutoff}")
        entries = block
        if diagonal is not None:
            rest = diagonal.copy()
            rest[support] = 0.0  # G there is in the block
            entries = np.concatenate((block.ravel(), rest))
        if entries.dtype.kind == "f":
            max_residual = max(float(entries.max()), -float(entries.min()))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                max_residual = float(abs(entries).max())
        if not max_residual < np.inf:
            raise ValueError("the defect form overflows: the operator or the vectors "
                             "are too large for floating point")
        for arr in (block, diagonal, support):
            if arr is not None:
                arr.setflags(write=False)
        return cls(block, max_residual, diagonal, support)

    @property
    def defect_matrix(self) -> np.ndarray:
        """G as an r x r matrix, read-only: ``block`` for a dense form, and
        for a diagonal one a matrix built on each call, for the tests; no
        library path reads it."""
        if self.diagonal is None:
            return self.block
        mat = np.diag(self.diagonal).astype(np.result_type(self.diagonal, self.block))
        mat[np.ix_(self.support, self.support)] = self.block
        mat.setflags(write=False)
        return mat

    def image(self, c: np.ndarray) -> np.ndarray:
        """G c for window coordinates c: one product with ``block`` for a
        dense form, and O(r + |support|^2) for a diagonal one, whose entries
        off the support are d_i c_i. A real G multiplies a complex c through
        its float view, with no complex copy of G."""
        if self.diagonal is None:
            return _matmul(self.block, c)
        s = self.support
        out = np.multiply(self.diagonal, c, dtype=np.result_type(self.diagonal, self.block, c))
        if s.size:
            out[s] = _matmul(self.block, c[s])
        return out


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
    nonzeros certifies that, and the report keeps the diagonal alone. A
    complex matrix keeps the dense path.
    """
    window = T.window
    idx = window.idx
    A = T.matrix
    w = T.space.weight_array[:, None]
    scale = 1.0 / window.sqrt_w
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
            return DefectReport.of(np.zeros((0, 0)), window, d, np.zeros(0, int))
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
    return DefectReport.of(mat, window)


def defect_apply_in_window(T: Op, x) -> np.ndarray:
    """Component of (defect operator) x inside T's safe window, as a vector:
    <D x, e_i> / w_i at each window label i, from one :func:`defect_quadratic`
    call over the whole window. x must be truncation-safe; then the result is
    the untruncated D x projected onto the window.

    No library path calls it: the verdict's kernel residual reads the base's
    image plus the rank-4 update and builds no T + u⊗v. It stays as the
    tests' referee of that image on T + u⊗v itself, and as a function that
    the benchmark traces by name.
    """
    window = T.window
    window.require(x)
    out = T.space.zeros()
    out[window.idx] = defect_quadratic(T, x, window.idx) / window.sqrt_w
    return out
