"""High-precision sparse SPD linear algebra: direct solves and energy norms.

Everything here runs in the float64 carrier.  Every :class:`SparseSpd` the
cycles solve is a stencil matrix, which the orthonormal sine modes of its
grid diagonalise: :func:`solve_spd` is one orthonormal DST-I pair, ``x =
Phi (f Phi' b / lambda)``, with ``lambda`` the matrix's eigenvalues on those
modes from the stencil symbol (:func:`mixedmg.fourier.sine_eigenvalues`)
and ``f`` optional factors per mode, the stored ``f_j`` of a sine-mode
coarse solve.  This is the one place the sine transform runs.  No matrix
is factored, and no operator norm is formed here either: the
spectral set-up constants come from stencil symbols
(:mod:`mixedmg.hierarchy`), and ``rho_star`` and the coarse deviations from
Fourier blocks (:mod:`mixedmg.fourier`).  A :class:`SparseSpd` reads its
stencil back once, at construction, with the reader of :mod:`mixedmg.fourier`,
and keeps it with the certified ends of its symbol, whose lower end
certifies that it is positive definite.  Its arrays are read-only, so an
in-place edit raises ``ValueError`` instead of leaving those caches stale.

:func:`energy_norm` and :func:`solve_spd` take a vector ``(n,)`` or a block
``(n, T)``, and each column of a block gives bit for bit what the same
vector gives on its own: norms are summed over contiguous column copies,
and the sine transforms treat each column alone.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.fft
import scipy.sparse as sparse

from .fourier import _symmetric_stencil, sine_eigenvalues, symbol_ends
from .precision import RowLayout, _columns, _csr, _per_column

_EPS = float(np.finfo(np.float64).eps)


class SpdError(ValueError):
    """The matrix is not symmetric positive definite (or numerically fails it)."""


class SparseSpd:
    """A sparse symmetric positive definite stencil matrix.

    Construction is the one check: the stencil is read off the matrix and
    checked bit for bit (:attr:`stencil`), which also forces symmetry, and
    the certified lower end of its symbol (:attr:`spectrum_ends`) must be
    positive.  A matrix that is not a stencil matrix raises
    :class:`mixedmg.fourier.StructureError`, and one that is not positive
    definite :class:`SpdError`.  The matrix's arrays are read-only, so
    instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, matrix):
        M = _csr(matrix).copy()  # freezing shared arrays would freeze the caller's
        for array in (M.data, M.indices, M.indptr):
            array.flags.writeable = False  # an edit would leave the caches stale
        if M.shape[0] != M.shape[1]:
            raise SpdError(f"matrix must be square, got {M.shape}")
        self._matrix = M
        lo = self.spectrum_ends[0]
        if not lo > 0:
            raise SpdError(f"the {self.n}x{self.n} matrix is not positive definite: "
                           f"the lower end of its spectrum is {lo}")

    @property
    def matrix(self) -> sparse.csr_array:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @cached_property
    def row_layout(self) -> RowLayout:
        """The padded row layout the rounded kernels traverse, built once."""
        return RowLayout.of(self._matrix)

    @cached_property
    def stencil(self) -> tuple[np.ndarray, int]:
        """``(c, k)``: the stencil read off the matrix and checked bit for bit,
        on a square 2D grid or else a 1D one of ``k`` points per axis
        (``c.ndim`` axes), read once, at construction."""
        return _symmetric_stencil(self._matrix)

    @cached_property
    def spectrum_ends(self) -> tuple[float, float]:
        """Certified ends of the spectrum, from the symbol of :attr:`stencil`."""
        return symbol_ends(*self.stencil)

    @cached_property
    def sine_eigenvalues(self) -> np.ndarray:
        """The eigenvalues on the orthonormal sine modes, shaped as the grid,
        computed once from the stencil symbol."""
        return sine_eigenvalues(*self.stencil)

    @cached_property
    def _row_sum_bound(self) -> float:
        # max absolute row sum, a cheap upper bound on the spectral norm
        return float(abs(self._matrix).sum(axis=1).max(initial=0.0))


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
