"""Model problems, interpolation operators, and normalized grid hierarchies.

A :class:`GridLevel` packages one fine/coarse pair: the fine matrix scaled
to unit spectral norm, the prolongation rescaled by a scalar so the
Galerkin coarse matrix also has unit spectral norm; the structural
constants the error model needs are derived from those operators on first
read.  Scalar rescaling of ``P`` preserves the Galerkin structure ``A_c =
P' A P``, which the projection arguments behind the convergence theory
require.

Every operator of a hierarchy is a stencil matrix (local Fourier analysis;
Trottenberg, Oosterlee and Schüller, *Multigrid*, 2001, ch. 3-4), and
:func:`build_multilevel` builds each level in stencil space: the Galerkin
stencil of ``P' A P`` is summed on a probe grid of at most seven points per
axis (:func:`_galerkin_stencil`) in the float64 sparse product's own order,
so it is the product's interior stencil bit for bit, and one assembler
(:func:`_assemble`) turns every stencil into its matrix.  No order-``n``
product is formed.

Every set-up constant comes from the symbol of a stencil:
:mod:`mixedmg.fourier` reads an operator back as stencil values and checks
them bit for bit against the stored matrix, and the symbol's certified ends
give :func:`spectral_norm`, :func:`condition_number` and
:func:`abs_matrix_norm`.  Each scale is the upper end of the norm before
scaling, so a scaled norm exceeds one by at most the rounding of the
scaling itself: a few units of roundoff.  An operator that is not a stencil
matrix raises :class:`StructureError`; there is no dense or iterative
fallback.

:attr:`GridLevel.stencils` gathers a model-problem level's stencils, the
input of the Fourier analysis of the cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sparse

from .fourier import (
    StructureError,
    _grid,
    _interpolation_weight,
    _stencil,
    _symmetric_stencil,
    interpolation_norm,
    symbol_ends,
)
from .linops import SparseSpd, SpdError
from .precision import RowLayout, _csr

#: The stencils of the model problems (see :class:`LevelStencils`).
_MODEL_STENCILS = {
    "poisson1d": np.array([2.0, -1.0]),
    "poisson2d": np.array([[4.0, -1.0], [-1.0, 0.0]]),
}


def _csr_rows(cols: np.ndarray, vals: np.ndarray, keep: np.ndarray, shape) -> sparse.csr_array:
    """The csr array whose row ``i`` holds ``vals[i, j]`` at ``cols[i, j]`` for
    each ``j`` with ``keep[i, j]``, in that order."""
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_array((vals[keep], cols[keep], indptr), shape=shape)


def _outer(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """``op`` of every row pair and candidate pair of two ``(rows, candidates)``
    arrays, as one ``(rows, candidates)`` array in C order: the candidates
    of a grid row from those of one axis."""
    out = op(a[:, None, :, None], b[None, :, None, :])
    return out.reshape(a.shape[0] * b.shape[0], -1)


def _assemble(c: np.ndarray, k: int) -> sparse.csr_array:
    """The matrix of the symmetric stencil ``c`` on ``k`` points per axis.

    Point ``i`` couples to each in-grid point ``i + o`` with the value
    ``c[|o|]``, ``o`` in ``{-1, 0, 1}^d``; the offsets run in increasing
    column order, so the indices come out sorted, and a zero stencil value
    is not stored.
    """
    d = c.ndim
    step = np.array([-1, 0, 1])
    line = np.arange(k)[:, None] + step  # each point's neighbours along one axis
    inside = (line >= 0) & (line < k)
    cols, keep = line, inside
    for _ in range(d - 1):
        cols = _outer(cols, line, lambda a, b: a * k + b)
        keep = _outer(keep, inside, np.logical_and)
    offsets = np.array(list(itertools.product(step, repeat=d)))
    vals = np.broadcast_to(c[tuple(np.abs(offsets).T)], keep.shape)
    return _csr_rows(cols, vals, keep & (vals != 0), (k**d, k**d))


def poisson_1d(n: int) -> SparseSpd:
    """Tridiagonal (-1, 2, -1) stiffness matrix on ``n`` interior points."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return SparseSpd(_assemble(_MODEL_STENCILS["poisson1d"], n))


def poisson_2d(k: int) -> SparseSpd:
    """Standard 5-point Laplacian on a k-by-k interior grid (Dirichlet)."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    return SparseSpd(_assemble(_MODEL_STENCILS["poisson2d"], k))


def _interpolation(d: int, k: int, p: float = 1.0) -> sparse.csr_array:
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


def linear_interpolation(n_fine: int) -> sparse.csr_array:
    """1D linear interpolation with the (1/2, 1, 1/2) column stencil.

    Maps ``n_c = (n_fine - 1) / 2`` coarse points to ``n_fine`` fine
    points; rows carry at most 2 nonzeros and columns at most 3.
    """
    return _interpolation(1, n_fine)


def bilinear_interpolation(k_fine: int) -> sparse.csr_array:
    """2D tensor-product interpolation; rows carry at most 4 nonzeros."""
    return _interpolation(2, k_fine)


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


def _operator_stencil(A: SparseSpd, d: int, k: int, name: str) -> np.ndarray:
    """The stencil of ``A`` on a ``d``-dimensional grid of ``k`` points per axis.

    It is :attr:`SparseSpd.stencil`, read once per operator, when that read
    found this grid; otherwise the operator is read on this grid again, so
    that a mismatch raises :class:`StructureError` naming it ``name``.
    """
    c, k_read = A.stencil
    if c.ndim == d and k_read == k:
        return c
    return _stencil(A.matrix, d, k, name)


def level_stencils(level: GridLevel) -> LevelStencils:
    """The stencils of a model-problem level, each checked against its operator.

    The grid is 1D with ``k = n`` points or 2D with ``k`` by ``k``, read from
    the orders of ``A`` and ``A_c``, which a (bi)linear coarsening of an odd
    ``k`` relates as ``n_c = ((k - 1) / 2)^d``.  ``A``, ``A_c`` and ``P``
    must each equal the matrix rebuilt from the stencil values read off
    them, bit for bit; otherwise :class:`StructureError` names the
    operator.  ``A`` and ``A_c`` reuse the stencils their
    :class:`SparseSpd` read once.
    """
    d, k = _grid(level.n, level.n_c)
    A = _operator_stencil(level.A, d, k, "A")
    A_c = _operator_stencil(level.A_c, d, (k - 1) // 2, "A_c")
    p = _interpolation_weight(level.P, d, k)
    return LevelStencils(d, k, A, A_c, p)


def spectrum_ends(K) -> tuple[float, float]:
    """Certified ends of the spectrum of a symmetric stencil matrix.

    The lower end of ``lambda_min`` and the upper end of ``lambda_max``,
    from the symbol of the stencil read off ``K``
    (:func:`mixedmg.fourier.symbol_ends`); a :class:`SparseSpd` keeps its
    ends (:attr:`SparseSpd.spectrum_ends`).
    """
    if isinstance(K, SparseSpd):
        return K.spectrum_ends
    return symbol_ends(*_symmetric_stencil(_csr(K)))


def spectral_norm(K) -> float:
    """Certified upper end of the largest eigenvalue magnitude of a symmetric
    stencil matrix."""
    lo, hi = spectrum_ends(K)
    return max(hi, -lo)


def condition_number(A) -> float:
    """Certified upper end of the two-norm condition number of an SPD stencil matrix.

    The upper end of ``lambda_max`` over the lower end of ``lambda_min``.
    """
    lo, hi = spectrum_ends(A)
    if lo <= 0:
        raise SpdError(f"smallest eigenvalue is not certified positive (lower end {lo})")
    return float(np.nextafter(hi / lo, np.inf))


def abs_matrix_norm(K) -> float:
    """Certified upper end of the spectral norm of ``|K|``.

    ``K`` is a symmetric stencil matrix, whose ``|K|`` has the stencil
    ``|c|``, or a scaled (bi)linear interpolation or its transpose, whose
    ``|K|`` is the interpolation scaled by ``|p|``.  A :class:`SparseSpd`
    is read through its kept stencil (:attr:`SparseSpd.stencil`).
    """
    M = _csr(K)
    if M.shape[0] == M.shape[1]:
        c, k = K.stencil if isinstance(K, SparseSpd) else _symmetric_stencil(M)
        return symbol_ends(np.abs(c), k)[1]
    P = M if M.shape[0] > M.shape[1] else M.T
    d, k = _grid(*P.shape)
    return interpolation_norm(_interpolation_weight(P, d, k), d, k)


def _galerkin(A, P) -> sparse.csr_array:
    P = sparse.csr_array(P)
    B = sparse.csr_array(P.T @ _csr(A) @ P)
    # the float64 triple product is symmetric only to roundoff; enforce it
    return sparse.csr_array((B + B.T) * 0.5)


def galerkin_coarse(A, P) -> SparseSpd:
    """The Galerkin coarse matrix ``P' A P`` in the carrier, symmetrized.

    It raises :class:`mixedmg.fourier.StructureError` when the product is
    not the matrix of its stencil.  Below the first 2D coarsening, where
    ``A`` is a 9-point stencil matrix, the float64 product's ``(1, 1)`` and
    ``(1, -1)`` couplings can differ in the last bit, so the product need
    not be a stencil matrix: it is refused on the third grid pair (7 to 3
    points per axis) of ``build_multilevel(31, 4, "poisson2d")``, for one.
    :func:`build_multilevel` never forms this product; it builds every
    level's ``A_c`` in stencil space (:func:`_galerkin_stencil`).
    """
    return SparseSpd(_galerkin(A, P))


@dataclass(frozen=True, eq=False)
class GridLevel:
    """One normalized fine/coarse pair of a multigrid hierarchy.

    ``A`` and ``A_c`` have unit spectral norm: each scale is a certified
    upper end of the norm before scaling, so the norms lie within about
    ``1e-14`` below one and exceed it by at most the rounding of the
    scaling (a few units of roundoff).  In a hierarchy of
    :func:`build_multilevel`, ``A_c`` is the matrix of the interior stencil
    of ``P' A P`` with the stored (rescaled) ``P``, which is that product
    bit for bit wherever the product is a stencil matrix.  A level holds
    only these three operators; ``P'`` and the structural constants are
    derived from them on first read, so a level cannot carry another
    operator's constants.  The row counts the error model inflates are
    ``A.row_layout.m`` and ``P_layout.m``; the cycle's row kernels also
    run on the rows of ``P'`` (``P_t_layout.m``).
    """

    A: SparseSpd
    P: sparse.csr_array
    A_c: SparseSpd

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def n_c(self) -> int:
        return self.A_c.n

    @cached_property
    def P_t(self) -> sparse.csr_array:
        """``P'`` as a csr array with sorted indices, built once."""
        return _csr(self.P.T)

    @cached_property
    def eta_A(self) -> float:
        """Certified upper end of ``norm(|A|)``, from the stencil symbol."""
        return abs_matrix_norm(self.A)

    @cached_property
    def eta_P(self) -> float:
        """Certified upper end of ``norm(|P|)``, from the interpolation symbol."""
        return abs_matrix_norm(self.P)

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

    @cached_property
    def stencils(self) -> LevelStencils:
        """The checked stencils of :func:`level_stencils`, built once."""
        return level_stencils(self)


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
    line = np.abs(np.arange(m)[:, None] - (2 * np.arange(m_c) + 1))
    P = np.maximum(1.0 - 0.5 * line, 0.0)  # weights 1 and 1/2: exact
    for _ in range(d - 1):
        P = np.kron(P, P)
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
    """The stencil of the symmetrized ``P' A P`` (:func:`_galerkin`), for ``A``
    the matrix of the stencil ``c`` on ``k`` points per axis and ``P = p``
    times the (bi)linear interpolation.

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
    k = int(round(np.log2(size + 1)))
    if 2**k - 1 != size:
        raise ValueError(f"size must be 2**k - 1, got {size}")
    if k < levels:
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
    coarsest grid is ``levels[-1].A_c``.  Every matrix comes from
    :func:`_assemble` and is checked once, when its :class:`SparseSpd` is
    made (read back as a stencil bit for bit, positive definite by its
    certified lower symbol end), and none is factored; each ``P`` is
    checked to be a scaled (bi)linear interpolation when
    :attr:`GridLevel.stencils` is first read, as every coarse solve does.
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
    A = SparseSpd(_assemble(c, k))
    for _ in range(levels - 1):
        k_c = (k - 1) // 2
        p = float(1.0 / np.sqrt(_norm_end(_galerkin_stencil(c, k, 1.0), k_c)))
        c = _galerkin_stencil(c, k, p)
        A_c = SparseSpd(_assemble(c, k_c))
        out.append(GridLevel(A, _interpolation(c.ndim, k, p), A_c))
        A, k = A_c, k_c
    return out
