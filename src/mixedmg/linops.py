"""High-precision sparse SPD linear algebra: direct solves and energy norms.

Everything here runs in the float64 carrier.  Each :class:`SparseSpd` keeps
one banded Cholesky factor ``A = L L'`` (bandwidth 1 for the 1D model
problem, ``k`` for the 2D one), built once from the sparse entries, which
serves the direct solves.  No operator norm is formed here: the spectral
set-up constants come from stencil symbols (:mod:`mixedmg.hierarchy`), and
``rho_star`` and the coarse deviations from Fourier blocks
(:mod:`mixedmg.fourier`).  A :class:`SparseSpd` reads its stencil back once,
on first use, with the reader of :mod:`mixedmg.fourier`, and keeps it with
the certified ends of its symbol.

:func:`energy_norm` and :func:`solve_spd` take a vector ``(n,)`` or a block
``(n, T)``, and each column of a block gives bit for bit what the same
vector gives on its own: norms are summed over contiguous column copies,
and the banded solve runs its triangular solves one column at a time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .fourier import _symmetric_stencil, symbol_ends
from .precision import RowLayout, _columns, _csr, _per_column

_EPS = float(np.finfo(np.float64).eps)


class SpdError(ValueError):
    """The matrix is not symmetric positive definite (or numerically fails it)."""


class SparseSpd:
    """A sparse symmetric positive definite matrix with a cached banded factor.

    Symmetry is checked entrywise at construction and positive definiteness
    is verified by the banded Cholesky factorization ``A = L L'``; with
    ``validate=False`` neither runs, and the factor is built on first use.
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, matrix, *, validate: bool = True):
        if sparse.issparse(matrix):
            M = sparse.csr_array(matrix).astype(np.float64)
        else:
            M = sparse.csr_array(np.asarray(matrix, dtype=np.float64))
        M.sort_indices()
        if M.shape[0] != M.shape[1]:
            raise SpdError(f"matrix must be square, got {M.shape}")
        self._matrix = M
        if validate:
            self._check_symmetric()
            self.cholesky  # noqa: B018  -- fails fast on non-PD input

    def _check_symmetric(self):
        gap = sparse.csr_array(self._matrix - self._matrix.T)
        scale = float(np.abs(self._matrix.data).max(initial=0.0))
        if gap.nnz and float(np.abs(gap.data).max()) > 8 * _EPS * max(scale, 1.0):
            raise SpdError("matrix is not symmetric")

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
        (``c.ndim`` axes), read once.

        A matrix that is not a stencil matrix raises
        :class:`mixedmg.fourier.StructureError` on every read.
        """
        return _symmetric_stencil(self._matrix)

    @cached_property
    def spectrum_ends(self) -> tuple[float, float]:
        """Certified ends of the spectrum, from the symbol of :attr:`stencil`."""
        return symbol_ends(*self.stencil)

    @cached_property
    def band(self) -> np.ndarray:
        """Lower band storage ``(b + 1, n)`` of the matrix, bandwidth ``b``."""
        return _lower_band(self._matrix)

    @cached_property
    def cholesky(self) -> np.ndarray:
        """The lower Cholesky factor ``L`` of ``A = L L'`` in lower band storage."""
        try:
            return scipy.linalg.cholesky_banded(self.band, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise SpdError(f"Cholesky factorization failed: {exc}") from exc

    @cached_property
    def _row_sum_bound(self) -> float:
        # max absolute row sum, a cheap upper bound on the spectral norm
        return float(abs(self._matrix).sum(axis=1).max(initial=0.0))

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self._matrix @ w


def energy_norm(w, A: SparseSpd):
    """The A-weighted norm ``sqrt(w' A w)`` evaluated in the carrier.

    A float for a vector, an array with one norm per column for a block.
    """
    rows = _columns(w, A.n)
    # A runs on w itself as an (n, T) block, not on a copy: the sparse
    # product gives each column the same bits for any layout of the block
    q = np.vecdot(rows, _columns(A.apply(np.reshape(w, (A.n, -1))), A.n))
    if np.any(q < 0):
        tol = 64 * _EPS * A._row_sum_bound * np.vecdot(rows, rows)
        if np.any(q < -tol):
            raise SpdError(f"negative quadratic form {q.min()}; matrix not SPD")
        q = np.where(q < 0, 0.0, q)
    return _per_column(np.sqrt(q), w)


def _lower_band(K) -> np.ndarray:
    """LAPACK lower band storage of a symmetric matrix: ``ab[i, j] = K[j + i, j]``.

    Built from the stored entries on and below the diagonal in one pass;
    the entries above it are not read, and the unused corner of the
    storage holds zeros.
    """
    M = _csr(K).tocoo()
    lower = M.row >= M.col
    depth = M.row[lower] - M.col[lower]
    ab = np.zeros((int(depth.max(initial=0)) + 1, M.shape[0]))
    ab[depth, M.col[lower]] = M.data[lower]
    return ab


def solve_spd(A: SparseSpd, b) -> np.ndarray:
    """Direct Cholesky solve in the carrier; the 'exact' solve proxy.

    ``b`` is a vector or an ``(n, T)`` block, solved in one LAPACK ``pbtrs``
    call against the cached banded factor.  ``pbtrs`` runs its two
    triangular band solves one column at a time, so each column of a block
    gets the bits it gets alone.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != A.n:
        raise ValueError(f"dimension mismatch: {b.shape} vs {A.n}")
    x = scipy.linalg.cho_solve_banded((A.cholesky, True), b)
    return np.ascontiguousarray(x)
