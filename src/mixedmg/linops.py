"""High-precision sparse SPD linear algebra: norms, spectra, structural constants.

Everything here runs in the float64 carrier.  Spectral quantities use dense
symmetric eigensolves (problems are desk scale, n up to a few thousand), so
no estimation error enters the bound validation.  Decompositions are cached
on the matrix object because energy norms and operator norms are evaluated
thousands of times per experiment sweep.

:func:`energy_norm` and :func:`solve_spd` take a vector ``(n,)`` or a block
``(n, T)``.  They work column by column on contiguous copies, so each column
of a block gives bit for bit what the same vector gives on its own: a
multi-column Cholesky solve and a reduction over a strided column both
round differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.io
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sparse

# mdot_plus_eps and abs_matrix_norm are defined with the kernels that use
# them and re-exported here
from .precision import (
    PrecisionFormat,
    RowLayout,
    _columns,
    _from_columns,
    _per_column,
    abs_matrix_norm,
    mdot_plus_eps,
)

_EPS = float(np.finfo(np.float64).eps)


class SpdError(ValueError):
    """The matrix is not symmetric positive definite (or numerically fails it)."""


class SparseSpd:
    """A sparse symmetric positive definite matrix with cached spectral data.

    Symmetry is checked entrywise at construction and positive definiteness
    is verified by a Cholesky factorization of the dense form.  Instances
    are immutable after construction and safe to share across threads.
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
    def m_row(self) -> int:
        """Maximum number of stored nonzeros in any row."""
        return int(np.diff(self._matrix.indptr).max(initial=0))

    @cached_property
    def row_layout(self) -> RowLayout:
        """The padded row layout the rounded kernels traverse, built once."""
        return RowLayout.of(self._matrix)

    @cached_property
    def dense(self) -> np.ndarray:
        return self._matrix.toarray()

    @cached_property
    def cholesky(self):
        try:
            return scipy.linalg.cho_factor(self.dense, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise SpdError(f"Cholesky factorization failed: {exc}") from exc

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors."""
        w, v = np.linalg.eigh(self.dense)
        return w, v

    @cached_property
    def sqrt_dense(self) -> np.ndarray:
        w, v = self.eigh
        if w[0] <= 0:
            raise SpdError(f"smallest eigenvalue {w[0]} is not positive")
        return (v * np.sqrt(w)) @ v.T

    @cached_property
    def inv_sqrt_dense(self) -> np.ndarray:
        w, v = self.eigh
        if w[0] <= 0:
            raise SpdError(f"smallest eigenvalue {w[0]} is not positive")
        return (v / np.sqrt(w)) @ v.T

    @cached_property
    def _row_sum_bound(self) -> float:
        # max absolute row sum, a cheap upper bound on the spectral norm
        return float(np.abs(self.dense).sum(axis=1).max(initial=0.0))

    def diagonal(self) -> np.ndarray:
        return self._matrix.diagonal()

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self._matrix @ w


@dataclass(frozen=True)
class OperatorConstants:
    """Structural constants of a sparse operator used by the error model.

    ``m`` is the maximum number of stored nonzeros per row; the model
    inflates it to ``m + 1`` through :func:`mdot_plus`.  ``eta_abs`` is the
    spectral norm of the entrywise absolute value of the operator.
    """

    m: int
    eta_abs: float


def energy_norm(w, A: SparseSpd):
    """The A-weighted norm ``sqrt(w' A w)`` evaluated in the carrier.

    A float for a vector, an array with one norm per column for a block.
    """
    rows = _columns(w, A.n)
    q = np.vecdot(rows, _columns(A.apply(rows.T), A.n))
    if np.any(q < 0):
        tol = 64 * _EPS * A._row_sum_bound * np.vecdot(rows, rows)
        if np.any(q < -tol):
            raise SpdError(f"negative quadratic form {q.min()}; matrix not SPD")
        q = np.where(q < 0, 0.0, q)
    return _per_column(np.sqrt(q), w)


def spectral_norm(K) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix (dense eigensolve)."""
    if isinstance(K, SparseSpd):
        w, _ = K.eigh
        return float(np.abs(w).max())
    dense = K.toarray() if sparse.issparse(K) else np.asarray(K, dtype=np.float64)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("spectral_norm requires a square matrix")
    return float(np.abs(np.linalg.eigvalsh(dense)).max())


def condition_number(A: SparseSpd) -> float:
    """Two-norm condition number from the cached dense eigendecomposition."""
    w, _ = A.eigh
    if w[0] <= 0:
        raise SpdError(f"smallest eigenvalue {w[0]} is not positive")
    return float(w[-1] / w[0])


def mdot_plus(m: int, fmt: PrecisionFormat) -> float:
    """:func:`mdot_plus_eps` at the unit roundoff of ``fmt``."""
    return mdot_plus_eps(m, fmt.unit_roundoff)


def solve_spd(A: SparseSpd, b) -> np.ndarray:
    """Direct Cholesky solve in the carrier; the 'exact' solve proxy.

    ``b`` is a vector or an ``(n, T)`` block, which is checked for
    finiteness once and solved one column at a time against the cached
    factor (LAPACK ``potrs`` with one right-hand side each).
    """
    rows = _columns(b, A.n)
    if not np.all(np.isfinite(rows)):
        raise ValueError("array must not contain infs or NaNs")
    c, lower = A.cholesky
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        out[i], info = scipy.linalg.lapack.dpotrs(c, row, lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of potrs")
    return _from_columns(out, b)


def energy_operator_norm(K, A: SparseSpd) -> float:
    """Operator norm of a dense square ``K`` in the A-energy inner product.

    Evaluates ``norm(A^(1/2) K A^(-1/2))`` with the cached matrix square
    roots; this equals the energy norm of ``K`` as a linear map.
    """
    K = np.asarray(K, dtype=np.float64)
    return float(np.linalg.norm(A.sqrt_dense @ K @ A.inv_sqrt_dense, 2))


def read_matrix_market(path) -> SparseSpd:
    """Import a real symmetric Matrix Market coordinate file as :class:`SparseSpd`."""
    M = scipy.io.mmread(path)
    return SparseSpd(M)


def write_matrix_market(path, K, comment: str = ""):
    """Write a sparse matrix in Matrix Market coordinate format."""
    M = K.matrix if isinstance(K, SparseSpd) else K
    scipy.io.mmwrite(path, sparse.coo_matrix(M), comment=comment)
