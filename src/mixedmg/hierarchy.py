"""Model problems, interpolation operators, and normalized grid hierarchies.

A :class:`GridLevel` packages one fine/coarse pair: the fine matrix scaled
to unit spectral norm, the prolongation rescaled by a scalar so the
Galerkin coarse matrix also has unit spectral norm, and the structural
constants the error model needs.  Scalar rescaling of ``P`` preserves the
Galerkin structure ``A_c = P' A P`` exactly, which the projection
arguments behind the convergence theory require.  Each scale is the
certified upper end of the top eigenvalue of the matrix before scaling
(:func:`mixedmg.linops.spectral_norm`), so a scaled norm exceeds one by at
most the rounding of the scaling itself: a few units of roundoff.

:attr:`GridLevel.stencils` reads a model-problem level back as stencil
values, the input of the Fourier analysis in :mod:`mixedmg.fourier`, and
checks that each operator is exactly the matrix those values rebuild.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .linops import (
    SparseSpd,
    SpdError,
    abs_matrix_norm,
    condition_number,
    spectral_norm,
)
from .precision import RowLayout


def poisson_1d(n: int) -> SparseSpd:
    """Tridiagonal (-1, 2, -1) stiffness matrix on ``n`` interior points."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return SparseSpd(sparse.diags_array([off, main, off], offsets=[-1, 0, 1]))


def poisson_2d(k: int) -> SparseSpd:
    """Standard 5-point Laplacian on a k-by-k interior grid (Dirichlet)."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    one_d = poisson_1d(k).matrix
    eye = sparse.eye_array(k)
    return SparseSpd(sparse.kron(one_d, eye) + sparse.kron(eye, one_d))


def linear_interpolation(n_fine: int) -> sparse.csr_array:
    """1D linear interpolation with the (1/2, 1, 1/2) column stencil.

    Maps ``n_c = (n_fine - 1) / 2`` coarse points to ``n_fine`` fine
    points; rows carry at most 2 nonzeros and columns at most 3.
    """
    if n_fine < 3 or n_fine % 2 == 0:
        raise ValueError(f"n_fine must be odd and >= 3, got {n_fine}")
    n_c = (n_fine - 1) // 2
    rows, cols, vals = [], [], []
    for j in range(n_c):
        center = 2 * j + 1
        rows.extend([center - 1, center, center + 1])
        cols.extend([j, j, j])
        vals.extend([0.5, 1.0, 0.5])
    P = sparse.csr_array(
        sparse.coo_array((vals, (rows, cols)), shape=(n_fine, n_c))
    )
    P.sort_indices()
    return P


def bilinear_interpolation(k_fine: int) -> sparse.csr_array:
    """2D tensor-product interpolation; rows carry at most 4 nonzeros."""
    one_d = linear_interpolation(k_fine)
    P = sparse.csr_array(sparse.kron(one_d, one_d))
    P.sort_indices()
    return P


class StructureError(ValueError):
    """An operator is not the matrix its stencil values rebuild."""


@dataclass(frozen=True, eq=False)
class LevelStencils:
    """A level's operators as stencil values on a grid of ``k`` points per axis.

    ``d`` is 1 or 2.  ``A`` and ``A_c`` are ``c[a_1, .., a_d]`` (each ``a_i``
    0 or 1): the coupling of points that differ by one along the axes where
    ``a_i = 1``.  ``p`` is the centre weight of ``P = p * interpolation``.
    """

    d: int
    k: int
    A: np.ndarray
    A_c: np.ndarray
    p: float


def _flat_index(point, k: int) -> int:
    out = 0
    for i in point:
        out = out * k + i
    return out


def _differs(stored, rebuilt) -> bool:
    return bool((sparse.csr_array(stored) != sparse.csr_array(rebuilt)).nnz)


def _stencil(matrix, d: int, k: int, name: str) -> np.ndarray:
    """The stencil of a symmetric operator on a ``k``-point grid, read at its centre.

    The matrix rebuilt from it must equal the stored one bit for bit.
    """
    if matrix.shape != (k**d, k**d):
        raise StructureError(f"{name} has shape {matrix.shape}, not that of a "
                             f"{'x'.join([str(k)] * d)} grid")
    M = sparse.csr_array(matrix)
    centre = (k // 2,) * d
    c = np.zeros((2,) * d)
    for a in itertools.product((0, 1), repeat=d):
        if all(i + s < k for i, s in zip(centre, a)):
            shifted = tuple(i + s for i, s in zip(centre, a))
            c[a] = M[_flat_index(centre, k), _flat_index(shifted, k)]
    eye = sparse.eye_array(k, format="csr")
    near = sparse.diags_array([np.ones(k - 1)] * 2, offsets=[-1, 1], shape=(k, k),
                              format="csr") if k > 1 else eye * 0.0
    rebuilt = 0
    for a in itertools.product((0, 1), repeat=d):
        factors = [near if s else eye for s in a]
        term = factors[0]
        for f in factors[1:]:
            term = sparse.kron(term, f)
        rebuilt = rebuilt + c[a] * term
    if _differs(M, rebuilt):
        raise StructureError(f"{name} is not the matrix of its stencil "
                             f"{c.ravel().tolist()}")
    return c


def level_stencils(level: GridLevel) -> LevelStencils:
    """The stencils of a model-problem level, each checked against its operator.

    The grid is 1D with ``k = n`` points or 2D with ``k`` by ``k``, read from
    the orders of ``A`` and ``A_c``, which a (bi)linear coarsening of an odd
    ``k`` relates as ``n_c = ((k - 1) / 2)^d``.  ``A``, ``A_c``, ``P`` and
    ``P'`` must each equal the matrix rebuilt from the stencil values read
    off them, bit for bit; otherwise :class:`StructureError` names the
    operator.
    """
    n, n_c = level.n, level.n_c
    k = math.isqrt(n)
    if n % 2 and n_c == (n - 1) // 2:
        d, k = 1, n
    elif k * k == n and k % 2 and n_c == ((k - 1) // 2) ** 2:
        d = 2
    else:
        raise StructureError(f"P maps {n} points to {n_c}: not a (bi)linear "
                             f"coarsening of a 1D or square 2D grid")
    A = _stencil(level.A.matrix, d, k, "A")
    A_c = _stencil(level.A_c.matrix, d, (k - 1) // 2, "A_c")
    interp = (linear_interpolation if d == 1 else bilinear_interpolation)(k)
    p = float(level.P[_flat_index((1,) * d, k), 0])
    if _differs(level.P, interp * p) or _differs(level.P_t, (interp * p).T):
        raise StructureError(f"P is not {p!r} times the interpolation stencil")
    return LevelStencils(d, k, A, A_c, p)


def galerkin_coarse(A: SparseSpd, P) -> SparseSpd:
    """The Galerkin coarse matrix ``P' A P`` in the carrier, symmetrized."""
    P = sparse.csr_array(P)
    B = sparse.csr_array(P.T @ A.matrix @ P)
    # the float64 triple product is symmetric only to roundoff; enforce it
    B = sparse.csr_array((B + B.T) * 0.5)
    return SparseSpd(B)


@dataclass(frozen=True, eq=False)
class GridLevel:
    """One normalized fine/coarse pair of a multigrid hierarchy.

    ``A`` and ``A_c`` have unit spectral norm: each scale is a certified
    upper end of the norm before scaling, so the norms lie within about
    ``1e-14`` below one and exceed it by at most the rounding of the
    scaling (a few units of roundoff).  ``A_c`` equals ``P' A P`` with the
    stored (rescaled) ``P``.  ``eta_A`` and ``eta_P`` are the spectral
    norms of the entrywise absolute values ``|A|`` and ``|P|``; the row
    counts the error model inflates are ``A.row_layout.m`` and
    ``P_layout.m``.
    """

    A: SparseSpd
    P: sparse.csr_array
    P_t: sparse.csr_array
    A_c: SparseSpd
    eta_A: float
    eta_P: float
    kappa: float
    kappa_c: float

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def n_c(self) -> int:
        return self.A_c.n

    @cached_property
    def P_layout(self) -> RowLayout:
        """The padded row layout of ``P`` for the rounded kernels, built once."""
        return RowLayout.of(self.P)

    @cached_property
    def P_t_layout(self) -> RowLayout:
        """The padded row layout of ``P'`` for the rounded kernels, built once."""
        return RowLayout.of(self.P_t)

    @cached_property
    def stencils(self) -> LevelStencils:
        """The checked stencils of :func:`level_stencils`, built once."""
        return level_stencils(self)


def _scaled(A) -> SparseSpd:
    """``A`` over the upper end of its norm: a norm one up to the scaling's rounding."""
    if not isinstance(A, SparseSpd):
        A = SparseSpd(A)
    s = spectral_norm(A)
    if s <= 0:
        raise SpdError("zero matrix cannot be normalized")
    return SparseSpd(A.matrix * (1.0 / s))


def _level(A: SparseSpd, P) -> GridLevel:
    """The level of an already scaled ``A``; see :func:`normalize_hierarchy`."""
    P = sparse.csr_array(P).astype(np.float64)
    if P.shape[0] != A.n or P.shape[1] > P.shape[0]:
        raise ValueError(f"prolongation shape {P.shape} incompatible with n={A.n}")
    s_c = spectral_norm(P.T @ A.matrix @ P)
    if s_c <= 0:
        raise SpdError("coarse operator has zero norm; P is rank deficient")
    P1 = sparse.csr_array(P * float(1.0 / np.sqrt(s_c)))
    P1.sort_indices()
    A_c = galerkin_coarse(A, P1)
    P1_t = sparse.csr_array(P1.T)
    P1_t.sort_indices()
    return GridLevel(
        A=A,
        P=P1,
        P_t=P1_t,
        A_c=A_c,
        eta_A=abs_matrix_norm(A),
        eta_P=abs_matrix_norm(P1),
        kappa=condition_number(A),
        kappa_c=condition_number(A_c),
    )


def normalize_hierarchy(A, P) -> GridLevel:
    """Scale ``A`` to unit norm and ``P`` so the Galerkin coarse matrix follows.

    ``P`` is multiplied by the scalar ``s_c**-0.5``, with ``s_c`` the upper
    end of ``norm(P' A P)`` (after the A-scaling): the minimal change that
    keeps ``A_c = P' A P`` exact while bringing ``norm(A_c)`` to one, up to
    the rounding of the scaling and of the recomputed Galerkin product.
    """
    return _level(_scaled(A), P)


def check_refinable(size: int, levels: int):
    """Raise ``ValueError`` unless a ``size``-point grid halves ``levels - 1`` times."""
    k = int(round(np.log2(size + 1)))
    if 2**k - 1 != size:
        raise ValueError(f"size must be 2**k - 1, got {size}")
    if k < levels:
        raise ValueError(f"size {size} cannot be coarsened {levels - 1} times")


def build_multilevel(n_finest: int, levels: int, problem: str = "poisson1d") -> list[GridLevel]:
    """The ``levels - 1`` normalized two-grid levels of a ``levels``-grid hierarchy.

    For ``poisson1d`` the finest grid has ``n_finest = 2**k - 1`` points;
    for ``poisson2d`` it is an ``n_finest``-by-``n_finest`` interior grid.
    Only the finest matrix is scaled: each level's ``A_c``, whose norm the
    scaled ``P`` bounds by one, is bit for bit the next level's ``A``, and
    the coarsest grid is ``levels[-1].A_c``.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    check_refinable(n_finest, levels)
    if problem == "poisson1d":
        A = poisson_1d(n_finest)
        interp = linear_interpolation
    elif problem == "poisson2d":
        A = poisson_2d(n_finest)
        interp = bilinear_interpolation
    else:
        raise ValueError(f"unknown problem {problem!r}")

    out: list[GridLevel] = []
    size = n_finest
    current = _scaled(A)
    for _ in range(levels - 1):
        lvl = _level(current, interp(size))
        out.append(lvl)
        current = lvl.A_c
        size = (size - 1) // 2
    return out
