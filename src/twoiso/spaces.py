"""Finite-dimensional weighted coefficient spaces.

A :class:`WeightedSpace` is an ordered list of monomial basis labels (exponent
multi-indices, tuples of non-negative ints of one common length) together
with strictly positive diagonal weights; the inner product is

    <x, y> = sum_i w_i * x_i * conj(y_i)

(linear in the first argument, conjugate-linear in the second). Vectors are
bare complex numpy arrays indexed against the space's basis order. The basis
order is fixed by the constructors (graded, then lexicographic within a
degree) so that matrix representations reproduce bit for bit across runs.

Three families of spaces are provided:

* ``make_dirichlet_space(N)``: monomials 1, z, ..., z^N with weight k+1 on
  z^k. The weight on the constant is 1, so the constant function has norm 1.
* ``make_bidisc_space(N)``: monomials z1^m z2^n with m+n <= N, unit weights.
* ``make_coordinate_space(d)``: a plain C^d with unit multi-index labels.
  Every label has total degree 1, so any operator on such a space has degree
  growth 0 and the whole space counts as truncation-exact.

A span of basis monomials is an index array, with orthonormal basis
e_i / sqrt(w_i). :func:`weighted_gram_schmidt` orthonormalizes a list of
vectors and detects their rank at the caller's tolerance (this module has no
default of its own); no library path calls it, the tests use it as a
referee. The Dirichlet and bidisc constructors refuse more than ``MAX_DIM``
labels.

All objects here are immutable values; they can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "WeightedSpace",
    "make_dirichlet_space",
    "make_bidisc_space",
    "make_coordinate_space",
    "weighted_gram_schmidt",
    "vec_to_pairs",
    "vec_from_pairs",
]

# A dense complex operator on MAX_DIM labels takes 64 MB; the largest
# ladder problem (bidisc N = 18) has 190 labels.
MAX_DIM = 2000


def _check_dim(dim: int, what: str):
    if dim > MAX_DIM:
        raise ValueError(f"{what} gives a space of dimension {dim}, more than {MAX_DIM}")


def pow2_scale(x: np.ndarray) -> float:
    """The power of two near 1 / max |x_i| (clamped to the normal range)."""
    return 2.0 ** -min(max(math.frexp(abs(x).max())[1], -1022), 1022)


def _label_array(labels: tuple) -> np.ndarray:
    """The labels as a (dim, nvars) int64 array, in one pass over the
    entries. Refuses no label, an empty or ragged label, and an entry that
    is negative or not an integer below 2**63 (an integral float is one)."""
    if not labels:
        raise ValueError("a space needs at least one basis label")
    try:
        arr = np.array(labels)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim < 2:
        if any(len(lab) == 0 for lab in labels):
            raise ValueError("multi-index must have at least one entry")
        raise ValueError("all labels must have the same multi-index length")
    if arr.shape[1] == 0:
        raise ValueError("multi-index must have at least one entry")
    kind = arr.dtype.kind
    if arr.ndim > 2 or kind not in "biuf":
        raise ValueError("multi-index entries must be integers below 2**63")
    if kind in "bi":
        ints = arr.astype(np.int64, copy=False)
    else:
        with np.errstate(invalid="ignore"):  # NaN, inf and 2**63 on cast to other values
            ints = arr.astype(np.int64)
        _refuse_rows(arr, ints != arr, "integers below 2**63")
    if ints.min() < 0:
        _refuse_rows(arr, ints < 0, "non-negative")
    return ints


def _refuse_rows(arr: np.ndarray, bad: np.ndarray, what: str):
    """Raise on the first label with a ``bad`` entry, if there is one."""
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        raise ValueError(f"multi-index entries must be {what}, got {tuple(arr[rows[0]].tolist())}")


@dataclass(frozen=True)
class WeightedSpace:
    """An ordered monomial basis with strictly positive diagonal weights."""

    labels: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    kind: str = "custom"

    def __post_init__(self):
        arr = _label_array(tuple(self.labels))
        labels = tuple(map(tuple, arr.tolist()))
        weights = tuple(float(w) for w in self.weights)
        if len(labels) != len(weights):
            raise ValueError(
                f"{len(labels)} labels but {len(weights)} weights"
            )
        if not all(0 < w < math.inf for w in weights):  # NaN fails both
            raise ValueError("all weights must be finite and strictly positive")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        degrees = arr.sum(axis=1)
        degrees.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_degrees", degrees)

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
        return w

    @property
    def degrees(self) -> np.ndarray:
        """Total degree of each label, read-only."""
        return self._degrees

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @cached_property
    def _label_index(self) -> dict[tuple[int, ...], int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, multi_index) -> int:
        key = (int(multi_index),) if np.isscalar(multi_index) else tuple(
            int(k) for k in multi_index
        )
        try:
            return self._label_index[key]
        except KeyError:
            raise ValueError(f"no basis label with multi-index {key}") from None

    # -- vectors -----------------------------------------------------------

    def check_vec(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=complex)
        if arr.shape != (self.dim,):
            raise ValueError(
                f"vector has shape {arr.shape}, expected ({self.dim},)"
            )
        return arr

    def zeros(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=complex)

    def basis_vector(self, i: int) -> np.ndarray:
        out = self.zeros()
        out[i] = 1.0
        return out

    def monomial(self, multi_index) -> np.ndarray:
        """Coefficient-1 vector for the monomial with the given exponents."""
        return self.basis_vector(self.index_of(multi_index))

    # -- inner product -----------------------------------------------------

    def inner(self, x, y) -> complex:
        """<x, y> = sum_i w_i x_i conj(y_i); conjugate-linear in y."""
        x = self.check_vec(x)
        y = self.check_vec(y)
        return complex(np.vdot(y, self.weight_array * x))

    def norm(self, x) -> float:
        """sqrt(<x, x>). A plain sum in [2**-900, 2**900] is taken as it is;
        any other, NaN and inf included, is summed again after an exact
        scaling by a power of two near max |x_i|, so that an in-range norm
        does not over- or underflow in its squares. In range both give the
        same bits: the scaling is exact, and the bounds sit far enough above
        the subnormal range that an underflowed term cannot move the rounded
        sum."""
        x = self.check_vec(x)
        with np.errstate(over="ignore", invalid="ignore"):
            val = np.vdot(x, self.weight_array * x).real
        if 2.0**-900 <= val <= 2.0**900:
            return math.sqrt(val)
        scale = pow2_scale(x)
        y = x * scale
        val = np.vdot(y, self.weight_array * y).real
        return math.sqrt(max(val, 0.0)) / scale

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "max_degree": self.max_degree if self.kind in ("dirichlet", "bidisc") else None,
            "weights": [float(w) for w in self.weights],
            "labels": [list(lab) for lab in self.labels],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "WeightedSpace":
        """Decode :meth:`to_dict` output; raises ValueError on malformed input."""
        if not isinstance(doc, dict):
            raise ValueError("space document must be a JSON object")
        kind = doc.get("kind", "custom")
        if not isinstance(kind, str):
            raise ValueError("space kind must be a string")
        labels, weights = doc["labels"], doc["weights"]
        if not isinstance(labels, list) or not all(
            isinstance(ix, list) and all(type(k) is int and k < 2**31 for k in ix)
            for ix in labels
        ):
            raise ValueError("labels must be a list of integer multi-indices")
        weights = _finite_reals(weights, 1, "weights must be a list of finite numbers")
        return cls(labels=labels, weights=tuple(weights), kind=kind)


def make_dirichlet_space(max_degree: int) -> WeightedSpace:
    """Truncated Dirichlet space: monomials z^0..z^N, weight k+1 on z^k.

    The constant is included with weight 1 so the norm of 1 is 1.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    _check_dim(max_degree + 1, f"max_degree {max_degree}")
    labels = tuple((k,) for k in range(max_degree + 1))
    weights = tuple(float(k + 1) for k in range(max_degree + 1))
    return WeightedSpace(labels=labels, weights=weights, kind="dirichlet")


def make_bidisc_space(max_total_degree: int) -> WeightedSpace:
    """Truncated Hardy space of the bidisc: z1^m z2^n, m+n <= N, unit weights.

    Labels are ordered by total degree and then by m descending within a
    degree, so the layout is reproducible.
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be non-negative")
    dim = (max_total_degree + 1) * (max_total_degree + 2) // 2
    _check_dim(dim, f"max_total_degree {max_total_degree}")
    labels = []
    for d in range(max_total_degree + 1):
        for m in range(d, -1, -1):
            labels.append((m, d - m))
    weights = tuple(1.0 for _ in labels)
    return WeightedSpace(labels=tuple(labels), weights=weights, kind="bidisc")


def make_coordinate_space(dim: int, weights: Sequence[float] | None = None) -> WeightedSpace:
    """C^dim with unit multi-index labels (every label has total degree 1).

    With all labels at the same degree, any dense matrix on this space has
    degree growth 0, which models an exact, non-truncated space.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    labels = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
    if weights is None:
        weights = tuple(1.0 for _ in range(dim))
    return WeightedSpace(labels=labels, weights=tuple(weights), kind="custom")


# ---------------------------------------------------------------------------
# Gram-Schmidt


def weighted_gram_schmidt(space: WeightedSpace, vectors: Iterable, tol: float) -> np.ndarray:
    """Modified Gram-Schmidt in the weighted inner product.

    Vectors whose residual norm falls below ``tol`` are dropped, so the
    result, a (dim, k) array of columns, is an orthonormal basis of the span
    with numerically detected rank k. A second orthogonalization pass guards
    against loss of orthogonality on nearly dependent inputs.
    """
    basis: list[np.ndarray] = []
    for vec in vectors:
        work = space.check_vec(vec).copy()
        for b in basis:
            work -= space.inner(work, b) * b
        for b in basis:
            work -= space.inner(work, b) * b
        nrm = space.norm(work)
        if nrm > tol:
            basis.append(work / nrm)
    return np.stack(basis, axis=1) if basis else np.zeros((space.dim, 0), dtype=complex)


# ---------------------------------------------------------------------------
# JSON helpers for vectors


def vec_to_pairs(x) -> list[list[float]]:
    """Encode a complex vector as a list of [re, im] pairs, read off its
    float view: the same Python floats as each entry's parts."""
    return np.asarray(x, dtype=complex).ravel().view(float).reshape(-1, 2).tolist()


def _finite_reals(values, ndim: int, message: str) -> np.ndarray:
    """A JSON list of finite real numbers (ndim 1) or of [re, im] pairs
    (ndim 2) as a float array; anything else, booleans included, raises
    ValueError(message)."""
    try:
        arr = np.array(values) if isinstance(values, (list, tuple)) else None
    except ValueError:  # ragged nesting
        arr = None
    if (
        arr is None
        or arr.shape != (len(values), 2)[:ndim]
        or arr.dtype.kind not in "iuf"
        or not np.isfinite(arr).all()
        or {bool, np.bool_}
        & set(map(type, chain.from_iterable(values) if ndim == 2 else values))
    ):
        raise ValueError(message)
    return arr.astype(float, copy=False)


def vec_from_pairs(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    """Decode a list of [re, im] pairs into a complex vector.

    Raises ValueError unless every entry is a pair of exactly two finite
    real numbers.
    """
    arr = _finite_reals(
        pairs, 2, "expected a list of [re, im] pairs of finite numbers"
    )
    return arr.view(complex).reshape(-1)
