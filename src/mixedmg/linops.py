"""High-precision sparse SPD linear algebra: direct solves and energy norms.

Everything here runs in the float64 carrier.  Every :class:`SparseSpd` the
cycles solve is made from its stencil, so the orthonormal sine modes of its
grid diagonalise it: :func:`solve_spd` is one orthonormal DST-I pair, ``x =
Phi (f Phi' b / lambda)``, with ``lambda`` the matrix's eigenvalues on those
modes and ``f`` optional factors per mode, the stored ``f_j`` of a
sine-mode coarse solve.  The eigenvalues are the mids of
:attr:`SparseSpd.sine_symbol`, the stencil symbol on every sine mode in
midpoint-radius form (:func:`mixedmg.fourier.sine_symbol`), evaluated once
per operator; the Fourier blocks of :mod:`mixedmg.fourier` read each
class's symbol from the same ball.  This is the one place the sine
transform runs.  No matrix is factored, and no operator norm is formed
here either: the spectral set-up constants come from stencil symbols
(:mod:`mixedmg.hierarchy`), and ``rho_star`` and the coarse deviations from
Fourier blocks (:mod:`mixedmg.fourier`).  A :class:`SparseSpd` keeps its
stencil with the certified ends of its symbol, whose lower end certifies
that it is positive definite, and assembles its matrix from the stencil
(:func:`_assemble`), so the two cannot disagree.  Its arrays, the kept
symbol and eigenvalues among them, are read-only (:func:`_read_only`), so
an in-place edit raises ``ValueError`` instead of leaving those caches
stale; so are the arrays of a level's ``P`` and ``P'``
(:class:`mixedmg.hierarchy.GridLevel`).

:func:`energy_norm` and :func:`solve_spd` take a vector ``(n,)`` or a block
``(n, T)``, and each column of a block gives bit for bit what the same
vector gives on its own: norms are summed over contiguous column copies,
and the sine transforms treat each column alone.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from numbers import Integral

import numpy as np
import scipy.fft
import scipy.sparse as sparse

from .fourier import _Ball, sine_symbol, symbol_ends
from .precision import RowLayout, _columns, _per_column

_EPS = float(np.finfo(np.float64).eps)


class SpdError(ValueError):
    """The matrix is not symmetric positive definite (or numerically fails it)."""


def _csr_rows(cols: np.ndarray, vals: np.ndarray, keep: np.ndarray, shape) -> sparse.csr_array:
    """The csr array whose row ``i`` holds ``vals[i, j]`` at ``cols[i, j]`` for
    each ``j`` with ``keep[i, j]``, in that order."""
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_array((vals[keep], cols[keep], indptr), shape=shape)


def _read_only(M: sparse.csr_array) -> sparse.csr_array:
    """``M`` with its arrays made read-only: an edit would leave what was
    derived from them stale, so it raises ``ValueError`` instead."""
    for array in (M.data, M.indices, M.indptr):
        array.flags.writeable = False
    return M


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


class SparseSpd:
    """The symmetric positive definite matrix of a stencil on a grid.

    ``c`` is the stencil, of shape ``(2,) * d`` with ``d`` 1 or 2: ``c[a_1,
    .., a_d]`` (each ``a_i`` 0 or 1) couples the points that differ by one
    along the axes where ``a_i = 1``.  ``k`` is the number of points per
    axis.  Construction is the one check: a stencil of another shape, a
    non-finite value or a ``k`` that is not an integer of at least one
    raises ``ValueError``, and a stencil whose certified lower symbol end
    (:attr:`spectrum_ends`) is not positive :class:`SpdError`.  The matrix
    (:func:`_assemble`), the stencil and the kept :attr:`sine_symbol` are
    read-only arrays, so an instance cannot be edited in place and is safe
    to share across threads.
    """

    def __init__(self, c, k):
        c = np.array(c, dtype=np.float64)  # a copy: freezing it leaves the caller's
        if c.ndim not in (1, 2) or c.shape != (2,) * c.ndim:
            raise ValueError(f"a stencil has shape (2,) or (2, 2), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError(f"stencil {c.ravel().tolist()} has a non-finite value")
        if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        c.flags.writeable = False
        self.stencil, self.k = c, int(k)
        lo = self.spectrum_ends[0]
        if not lo > 0:
            raise SpdError(f"the stencil {c.ravel().tolist()} on {k} points per axis is "
                           f"not positive definite: the lower end of its spectrum is {lo}")
        self.matrix = _read_only(_assemble(c, self.k))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def row_layout(self) -> RowLayout:
        """The padded row layout the rounded kernels traverse, built once."""
        return RowLayout.of(self.matrix)

    @cached_property
    def spectrum_ends(self) -> tuple[float, float]:
        """Certified ends of the spectrum, from the symbol of :attr:`stencil`."""
        return symbol_ends(self.stencil, self.k)

    @cached_property
    def sine_symbol(self) -> _Ball:
        """The stencil symbol on every sine mode, a read-only ``(k^d, 1)``
        ball in Kronecker order, computed once
        (:func:`mixedmg.fourier.sine_symbol`)."""
        return sine_symbol(self.stencil, self.k)

    @property
    def sine_eigenvalues(self) -> np.ndarray:
        """The eigenvalues on the orthonormal sine modes, shaped as the grid:
        a read-only view of the mids of :attr:`sine_symbol`."""
        return self.sine_symbol.mid.reshape((self.k,) * self.stencil.ndim)

    @cached_property
    def _row_sum_bound(self) -> float:
        # max absolute row sum, a cheap upper bound on the spectral norm
        return float(abs(self.matrix).sum(axis=1).max(initial=0.0))


def energy_norm(w, A: SparseSpd):
    """The A-weighted norm ``sqrt(w' A w)`` evaluated in the carrier.

    A float for a vector, an array with one norm per column for a block.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[0] != A.n:
        raise ValueError(f"dimension mismatch: {w.shape} vs {A.n}")
    # A runs on w itself as an (n, T) block, not on a copy: the sparse
    # product gives each column the same bits for any layout of the block.
    # A w is dropped once its rows are copied, before w's rows are.
    products = _columns(A.matrix @ w.reshape(A.n, -1))
    rows = _columns(w)
    q = np.vecdot(rows, products)
    if np.any(q < 0):
        tol = 64 * _EPS * A._row_sum_bound * np.vecdot(rows, rows)
        if np.any(q < -tol):
            raise SpdError(f"negative quadratic form {q.min()}; matrix not SPD")
        q = np.where(q < 0, 0.0, q)
    return _per_column(np.sqrt(q), w)


def sine_transform(x: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """The orthonormal DST-I of a vector or block on ``grid``, its own inverse.

    ``x`` is ``(n,)`` or ``(n, T)`` with ``n`` the points of ``grid`` in C
    order (Kronecker order in 2D); the result has the shape of ``x`` and
    holds the coefficient of each sine mode.  Each column of a block gets
    the bits it gets as a vector.
    """
    axes = tuple(range(len(grid)))
    modes = scipy.fft.dstn(x.reshape(grid + x.shape[1:]), type=1, axes=axes,
                           norm="ortho")
    return modes.reshape(x.shape)


def solve_spd(A: SparseSpd, b, factors: np.ndarray | None = None) -> np.ndarray:
    """Direct sine-mode solve in the carrier; the 'exact' solve proxy.

    ``b`` is a vector or an ``(n, T)`` block.  The solve is one transform
    pair, ``x = Phi (f Phi' b / lambda)``, with ``lambda`` the eigenvalues
    of ``A`` on its sine modes (:attr:`SparseSpd.sine_eigenvalues`) and
    ``f`` the ``factors`` that scale each mode, in the same order: the
    perturbed sine-mode coarse solves of :mod:`mixedmg.cycles` pass theirs,
    and without them, as for the exact coarse solve, the solve is exact.  A non-finite
    ``b`` or one of the wrong shape raises ``ValueError``.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != A.n:
        raise ValueError(f"dimension mismatch: {b.shape} vs {A.n}")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has a non-finite entry")
    lam = A.sine_eigenvalues
    modes = sine_transform(b, lam.shape)
    per_mode = (-1, *(1,) * (b.ndim - 1))
    if factors is not None:
        modes *= factors.reshape(per_mode)
    modes /= lam.reshape(per_mode)
    return sine_transform(modes, lam.shape)
