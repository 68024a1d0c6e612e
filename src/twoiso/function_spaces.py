"""Shift operators on the truncated Dirichlet space and the Hardy bidisc.

The Dirichlet shift M_z multiplies by z (weight k+1 on z^k), is a
2-isometry but not an isometry, and under truncation sends the top
monomial to zero; the bidisc shifts are isometries. Rank-one perturbations
M_z + p(z)⊗1 with p(0) = 0 come with a closed-form admissibility residual
evaluated from the coefficients alone. Each reference example is a
:class:`PerturbationProblem`; its operator is the problem's ``perturbed()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    DEFAULT_DEFECT_TOL,
    DEFAULT_RANK_TOL,
    PerturbationProblem,
)
from .operators import Op, _Filled, perturb
from .spaces import WeightedSpace, make_bidisc_space, make_dirichlet_space

__all__ = [
    "PolyCoeffs",
    "dirichlet_shift",
    "perturbed_dirichlet",
    "constant_perturbed_dirichlet",
    "dirichlet_admissibility_residual",
    "bidisc_shift",
    "dirichlet_perturbation_problem",
    "bidisc_example_problem",
]


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients a_1..a_k of p(z) = sum_i a_i z^i; no constant term."""

    a: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(c) for c in self.a))

    @property
    def degree(self) -> int:
        """Largest i with a_i nonzero; 0 for the zero polynomial."""
        for i in range(len(self.a), 0, -1):
            if self.a[i - 1] != 0:
                return i
        return 0

    @property
    def is_zero(self) -> bool:
        return self.degree == 0

    def to_vector(self, space: WeightedSpace) -> np.ndarray:
        """Coefficient vector of p in the given single-variable space."""
        if self.degree > space.max_degree:
            raise ValueError(
                f"polynomial degree {self.degree} exceeds the truncation "
                f"degree {space.max_degree}"
            )
        out = space.zeros()
        for i, c in enumerate(self.a, start=1):
            if c != 0:
                out[space.index_of((i,))] = c
        return out


def dirichlet_shift(N: int) -> Op:
    """Multiplication by z on the Dirichlet space truncated at degree N.

    The top monomial maps to zero. Degree growth 1, so the safe window is
    degree <= N - 2, on which the polarized defect vanishes.
    """
    if N < 2:
        raise ValueError("dirichlet_shift needs N >= 2")
    space = make_dirichlet_space(N)
    mat = np.zeros((space.dim, space.dim))
    k = np.arange(N)
    mat[k + 1, k] = 1.0
    return Op(space, _Filled(mat), degree_growth=1)


def perturbed_dirichlet(N: int, p: PolyCoeffs) -> Op:
    """M_z + p(z)⊗1 on the truncated Dirichlet space.

    The constant function has weight 1, hence unit norm, so 1 is already a
    valid normalized perturbation direction. A zero polynomial gives back
    the plain shift. Degree growth is max(1, deg p): the shift's 1 and the
    deg p that :func:`perturb` scans off the rank-one part.
    """
    shift = dirichlet_shift(N)
    if p.is_zero:
        return shift
    if p.degree > N - 1:
        raise ValueError(
            f"polynomial degree {p.degree} too large for truncation at N={N}"
        )
    space = shift.space
    one = space.basis_vector(0)
    return perturb(shift, p.to_vector(space), one)


def constant_perturbed_dirichlet(N: int, alpha: complex) -> Op:
    """M_z + (alpha 1)⊗1: the constant rank-one perturbation of the shift."""
    shift = dirichlet_shift(N)
    if alpha == 0:
        return shift
    space = shift.space
    one = space.basis_vector(0)
    return perturb(shift, complex(alpha) * one, one)


def dirichlet_admissibility_residual(p: PolyCoeffs) -> float:
    """sum_i i |a_i|^2 + 2 Re(a_1), the closed-form admissibility residual.

    This equals minus the quadratic defect of M_z + p(z)⊗1 at the constant
    function, so a zero residual is necessary for the perturbed shift to be
    a 2-isometry. On the linear family p(z) = a_1 z it is also sufficient,
    which pins the admissible locus |a_1 + 1| = 1; with higher-degree terms
    present the full kernel condition also demands a_i = 0 for i >= 2.
    """
    total = 2.0 * (float(np.real(p.a[0])) if p.a else 0.0)
    for i, c in enumerate(p.a, start=1):
        total += i * abs(c) ** 2
    return float(total)


def bidisc_shift(N: int, axis: int) -> Op:
    """Multiplication by z1 or z2 on the bidisc space truncated at degree N.

    An isometry away from the top degree; degree growth 1.
    """
    if N < 2:
        raise ValueError("bidisc_shift needs N >= 2")
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    space = make_bidisc_space(N)
    mat = np.zeros((space.dim, space.dim))
    # In the graded layout label (m, n) of degree d sits at d(d+1)/2 + n, so
    # (m+1, n) sits d+1 places on and (m, n+1) sits d+2 places on.
    degs = space.degrees
    j = np.flatnonzero(degs < N)
    mat[j + degs[j] + axis, j] = 1.0
    return Op(space, _Filled(mat), degree_growth=1)


def dirichlet_perturbation_problem(N: int, p: PolyCoeffs) -> PerturbationProblem:
    """Problem instance for M_z + p(z)⊗1 with v the constant function."""
    if p.is_zero:
        raise ValueError("zero polynomial: there is no rank-one perturbation")
    base = dirichlet_shift(N)
    space = base.space
    return PerturbationProblem(base=base, u=p.to_vector(space), v=space.basis_vector(0))


def bidisc_example_problem(
    N: int,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_defect: float = DEFAULT_DEFECT_TOL,
) -> PerturbationProblem:
    """Problem instance for M_{z1} + (-z1^2 + z2)⊗z1."""
    base = bidisc_shift(N, axis=1)
    space = base.space
    u = -space.monomial((2, 0)) + space.monomial((0, 1))
    v = space.monomial((1, 0))
    return PerturbationProblem(
        base=base, u=u, v=v, tol_rank=tol_rank, tol_defect=tol_defect
    )
