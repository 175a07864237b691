"""Normalized grid hierarchies of the model problems, built in stencil space.

A :class:`GridLevel` packages one fine/coarse pair: the fine matrix scaled
to unit spectral norm, the prolongation weight ``p`` rescaled so the
Galerkin coarse matrix also has unit spectral norm; the structural
constants the error model needs are derived from those on first read.
Scalar rescaling of ``P`` preserves the Galerkin structure ``A_c = P' A
P``, which the projection arguments behind the convergence theory require.

Every operator of a hierarchy is made from its stencil (local Fourier
analysis; Trottenberg, Oosterlee and Schüller, *Multigrid*, 2001, ch.
3-4), and :func:`build_multilevel` builds each level in stencil space: the
Galerkin stencil of ``P' A P`` is summed on a probe grid of at most seven
points per axis (:func:`_galerkin_stencil`) in the float64 sparse product's
own order, so it is the product's interior stencil bit for bit.  A
:class:`SparseSpd` assembles each stencil's matrix, and
:func:`_interpolation` each ``P``.  No order-``n`` product is formed.

Every set-up constant comes from the symbol of a stencil the level holds:
the certified ends of :func:`mixedmg.fourier.symbol_ends` give
:func:`condition_number` and ``eta_A``, and
:func:`mixedmg.fourier.interpolation_norm` gives ``eta_P``.  Each scale is
the upper end of the norm before scaling, so a scaled norm exceeds one by
at most the rounding of the scaling itself: a few units of roundoff.
There is no dense or iterative fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sparse

from .fourier import StructureError, interpolation_norm, symbol_ends
from .linops import SparseSpd, _csr_rows, _outer, _read_only
from .precision import RowLayout, _csr

#: The stencils of the model problems (see :class:`mixedmg.linops.SparseSpd`).
_MODEL_STENCILS = {
    "poisson1d": np.array([2.0, -1.0]),
    "poisson2d": np.array([[4.0, -1.0], [-1.0, 0.0]]),
}


def _interpolation(d: int, k: int, p: float) -> sparse.csr_array:
    """``p`` times the (bi)linear interpolation from ``(k - 1) / 2`` to ``k``
    points per axis in ``d`` dimensions.

    Coarse point ``j`` sits at fine point ``2 j + 1``; fine point ``f``
    takes ``p / 2^t`` from it, with ``t`` the number of axes along which
    ``f`` is a neighbour of ``2 j + 1`` (and is ``2 j + 1`` along the
    others).
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"the fine grid must have an odd number >= 3 of points, got {k}")
    k_c = (k - 1) // 2
    fine = np.arange(k)[:, None]
    # along an axis fine point f reaches at most the coarse points f // 2 - 1
    # and f // 2; taken in this order, the columns come out sorted
    line = fine // 2 + np.array([-1, 0])
    weight = np.maximum(1.0 - 0.5 * np.abs(fine - (2 * line + 1)), 0.0)  # 1, 1/2 or 0
    inside = (line >= 0) & (line < k_c) & (weight > 0)
    cols, vals, keep = line, weight, inside
    for _ in range(d - 1):
        cols = _outer(cols, line, lambda a, b: a * k_c + b)
        vals = _outer(vals, weight, np.multiply)  # products of powers of two: exact
        keep = _outer(keep, inside, np.logical_and)
    return _csr_rows(cols, vals * p, keep, (k**d, k_c**d))


def condition_number(A: SparseSpd) -> float:
    """Certified upper end of the two-norm condition number of ``A``: the
    upper end of ``lambda_max`` over the lower end of ``lambda_min``, which
    :class:`SparseSpd` certifies positive."""
    lo, hi = A.spectrum_ends
    return float(np.nextafter(hi / lo, np.inf))


@dataclass(frozen=True, eq=False)
class GridLevel:
    """One normalized fine/coarse pair of a multigrid hierarchy.

    ``A`` and ``A_c`` have unit spectral norm: each scale is a certified
    upper end of the norm before scaling, so the norms lie within about
    ``1e-14`` below one and exceed it by at most the rounding of the
    scaling (a few units of roundoff).  The prolongation ``P`` is ``p``
    times the (bi)linear interpolation from ``A_c``'s grid to ``A``'s.  In
    a hierarchy of :func:`build_multilevel`, ``A_c`` is the matrix of the
    interior stencil of ``P' A P``, which is that product bit for bit
    wherever the product is a stencil matrix.  Construction refuses, with
    :class:`StructureError`, an ``A_c`` that is not on the (bi)linear
    coarsening of ``A``'s grid in the same dimension, and a ``p`` that is
    not finite and nonzero.  A level holds only ``A``, ``p`` and ``A_c``;
    ``P``, ``P'`` and the structural constants are derived from them on
    first read, so a level cannot carry another operator's constants.  The
    row counts the error model inflates are ``A.row_layout.m`` and
    ``P_layout.m``; the cycle's row kernels also run on the rows of ``P'``
    (``P_t_layout.m``).
    """

    A: SparseSpd
    p: float
    A_c: SparseSpd

    def __post_init__(self):
        d, k = self.d, self.k
        if self.A_c.stencil.ndim != d or k % 2 == 0 or self.A_c.k != (k - 1) // 2:
            raise StructureError(
                f"A_c, on {self.A_c.k} points per axis in {self.A_c.stencil.ndim}D, is not "
                f"the (bi)linear coarsening of A's grid of {k} points per axis in {d}D")
        if not (np.isfinite(self.p) and self.p != 0):
            raise StructureError(f"the interpolation weight p must be finite and "
                                 f"nonzero, got {self.p!r}")

    @property
    def d(self) -> int:
        """The grids' dimension, 1 or 2."""
        return self.A.stencil.ndim

    @property
    def k(self) -> int:
        """The fine grid's points per axis."""
        return self.A.k

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def n_c(self) -> int:
        return self.A_c.n

    @cached_property
    def P(self) -> sparse.csr_array:
        """``p`` times the (bi)linear interpolation, built once, its arrays
        read-only."""
        return _read_only(_interpolation(self.d, self.k, self.p))

    @cached_property
    def P_t(self) -> sparse.csr_array:
        """``P'`` as a csr array with sorted indices, built once, its arrays
        read-only."""
        return _read_only(_csr(self.P.T))

    @cached_property
    def eta_A(self) -> float:
        """Certified upper end of ``norm(|A|)``, from the symbol of ``|c|``."""
        return symbol_ends(np.abs(self.A.stencil), self.k)[1]

    @cached_property
    def eta_P(self) -> float:
        """Certified upper end of ``norm(|P|)``, from the interpolation symbol."""
        return interpolation_norm(self.p, self.d, self.k)

    @cached_property
    def kappa(self) -> float:
        """Certified upper end of the condition number of ``A``."""
        return condition_number(self.A)

    @cached_property
    def kappa_c(self) -> float:
        """Certified upper end of the condition number of ``A_c``."""
        return condition_number(self.A_c)

    @cached_property
    def P_layout(self) -> RowLayout:
        """The padded row layout of ``P`` for the rounded kernels, built once."""
        return RowLayout.of(self.P)

    @cached_property
    def P_t_layout(self) -> RowLayout:
        """The padded row layout of ``P'`` for the rounded kernels, built once."""
        return RowLayout.of(self.P_t)


@cache
def _probe(d: int, m: int) -> tuple:
    """The fixed geometry of a probe grid of ``m`` points per axis in ``d``
    dimensions, built once per shape, its arrays read-only.

    ``gap`` indexes a stencil by the offset of every ``(g, f)`` pair of
    fine points, ``near`` marks the pairs a stencil couples, ``P`` is the
    dense unit (bi)linear interpolation, ``centre`` is the flat index of
    the centre coarse point, and ``reach``, ``plus`` and ``minus`` index
    the stencil values, and the coarse points ``centre + o`` and ``centre -
    o``, of the offsets ``o`` that stay in the coarse grid.
    """
    point = np.indices((m,) * d).reshape(d, -1)
    gap = np.abs(point[:, :, None] - point[:, None, :])
    m_c = (m - 1) // 2
    P = _interpolation(d, m, 1.0).toarray()
    centre = np.full(d, m_c // 2)
    reach = np.array([a for a in itertools.product((0, 1), repeat=d)
                      if (centre + a < m_c).all()])
    step = m_c ** np.arange(d - 1, -1, -1)  # flat index of a coarse point
    plus, minus = (centre + reach) @ step, (centre - reach) @ step
    near, gap, reach = (gap <= 1).all(axis=0), tuple(np.minimum(gap, 1)), tuple(reach.T)
    for array in (*gap, near, P, *reach, plus, minus):
        array.flags.writeable = False  # shared by every later call
    return gap, near, P, int(centre @ step), reach, plus, minus


def _galerkin_stencil(c: np.ndarray, k: int, p: float) -> np.ndarray:
    """The stencil of the symmetrized ``(B + B') / 2`` of the float64 sparse
    product ``B = P' A P``, for ``A`` the matrix of the stencil ``c`` on
    ``k`` points per axis and ``P = p`` times the (bi)linear interpolation.

    It is summed on a probe grid of ``min(k, 7)`` points per axis: seven is
    the smallest grid whose centre coarse point ``x`` has every coarse
    neighbour.  The sums run in the float64 sparse product's own order:
    increasing fine index for ``P' A`` and then for ``(P' A) P``, whose row
    ``x`` is ``B[x, :]``, and the symmetrization last, ``(B[x, x + o] +
    B[x, x - o]) / 2`` for each offset ``o``: the product's ``B[x + o, x]``
    is the same sum as ``B[x, x - o]``, shifted by ``o``.  Each sum of a
    dense probe row adds exact zeros where the sparse product stores
    nothing, which leaves it unchanged.  So the result is the stencil the
    product's matrix holds in its interior, and bit for bit the stencil
    read off the product wherever the product is a stencil matrix.
    """
    gap, near, unit, centre, reach, plus, minus = _probe(c.ndim, min(k, 7))
    A = np.where(near, c[gap], 0.0)
    P = unit * p
    # np.cumsum adds along its axis strictly in order; the last row is the sum
    C = np.cumsum(A * P[:, centre, None], axis=0)[-1]
    B = np.cumsum(P * C[:, None], axis=0)[-1]
    out = np.zeros((2,) * c.ndim)
    out[reach] = (B[plus] + B[minus]) * 0.5
    return out


def _norm_end(c: np.ndarray, k: int) -> float:
    """Certified upper end of the spectral norm of the stencil ``c`` on ``k``
    points per axis."""
    lo, hi = symbol_ends(c, k)
    return max(hi, -lo)


def check_refinable(size: int, levels: int):
    """Raise ``ValueError`` unless a ``size``-point grid halves ``levels - 1`` times."""
    n = int(size)
    if n != size or n < 0 or (n + 1) & n:
        raise ValueError(f"size must be 2**k - 1, got {size}")
    if (n + 1).bit_length() - 1 < levels:
        raise ValueError(f"size {size} cannot be coarsened {levels - 1} times")


def build_multilevel(n_finest: int, levels: int, problem: str = "poisson1d") -> list[GridLevel]:
    """The ``levels - 1`` normalized two-grid levels of a ``levels``-grid hierarchy.

    For ``poisson1d`` the finest grid has ``n_finest = 2**k - 1`` points;
    for ``poisson2d`` it is an ``n_finest``-by-``n_finest`` interior grid.
    Each level is built in stencil space, with no order-``n`` product.
    The finest stencil is the model stencil over the upper end of its
    symbol.  Each ``P`` is the interpolation times ``s_c**-0.5``, with
    ``s_c`` the upper end of the symbol of the Galerkin stencil of the
    unscaled interpolation, and ``A_c`` is the matrix of the Galerkin
    stencil with that ``P`` (:func:`_galerkin_stencil`): bit for bit the
    symmetrized ``P' A P`` wherever that product is a stencil matrix.
    Only the finest matrix is scaled: each level's ``A_c``, whose norm the
    scaled ``P`` bounds by one, is the next level's ``A``, and the
    coarsest grid is ``levels[-1].A_c``.  Every operator is made from its
    stencil, or from its weight ``p``, and checked once, where it is made:
    a :class:`SparseSpd` is positive definite by its certified lower symbol
    end, and a :class:`GridLevel` pairs grids that coarsen.  None is
    factored.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    check_refinable(n_finest, levels)
    if problem not in _MODEL_STENCILS:
        raise ValueError(f"unknown problem {problem!r}")
    c = _MODEL_STENCILS[problem]

    out: list[GridLevel] = []
    k = n_finest
    c = c * (1.0 / _norm_end(c, k))
    A = SparseSpd(c, k)
    for _ in range(levels - 1):
        k_c = (k - 1) // 2
        p = float(1.0 / np.sqrt(_norm_end(_galerkin_stencil(c, k, 1.0), k_c)))
        c = _galerkin_stencil(c, k, p)
        A_c = SparseSpd(c, k_c)
        out.append(GridLevel(A, p, A_c))
        A, k = A_c, k_c
    return out
