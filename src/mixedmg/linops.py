"""High-precision sparse SPD linear algebra: norms, spectra, structural constants.

Everything here runs in the float64 carrier.  Each :class:`SparseSpd` keeps
one banded Cholesky factor ``A = L L'`` (bandwidth 1 for the 1D model
problem, ``k`` for the 2D one), built once from the sparse entries.  It
serves the direct solves, and the energy operator norm
``norm(A^(1/2) K A^(-1/2)) = norm(L' K L'^{-1})``.

Extreme eigenvalues are certified ends, not estimates: :func:`eigenvalue_bound`
gives an upper end of ``lambda_max`` or a lower end of ``lambda_min`` of a
symmetric band or of a banded pencil ``(K, B)``.  By Sylvester's law of
inertia, a banded Cholesky factorization (``pbtrf``) of ``tau B - K`` that
succeeds proves ``lambda_max <= tau``; a Rump-style margin computed from the
factor absorbs the rounding of the factorization and of forming
``tau B - K`` (S. M. Rump, "Verification of positive definiteness", BIT 46,
2006).  Shifted inverse iteration moves ``tau`` down to the eigenvalue, so
each end costs a few factorizations of order ``n b**2`` and no band
reduction.  Every constant that feeds a bound is taken from the end on its
safe side.

:func:`energy_norm` and :func:`solve_spd` take a vector ``(n,)`` or a block
``(n, T)``, and each column of a block gives bit for bit what the same
vector gives on its own: norms are summed over contiguous column copies,
and the banded solve runs its triangular solves one column at a time.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse as sparse

from .precision import RowLayout, _columns, _csr, _per_column

_EPS = float(np.finfo(np.float64).eps)
_U = _EPS / 2  # unit roundoff of the carrier
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Factorizations one certified eigenvalue end may spend before it gives up.
MAX_FACTORIZATIONS = 100


class SpdError(ValueError):
    """The matrix is not symmetric positive definite (or numerically fails it)."""


class EigenvalueBoundError(ArithmeticError):
    """A certified eigenvalue end did not settle within its factorization budget."""


class SparseSpd:
    """A sparse symmetric positive definite matrix with a cached banded factor.

    Symmetry is checked entrywise at construction and positive definiteness
    is verified by the banded Cholesky factorization ``A = L L'``.
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
    def cholesky_upper(self) -> sparse.csr_array:
        """The transposed factor ``L'`` as a sparse upper triangular matrix."""
        L, n = self.cholesky, self.n
        return sparse.csr_array(sparse.diags_array(
            [L[i, :n - i] for i in range(L.shape[0])],
            offsets=list(range(L.shape[0])), shape=(n, n)))

    def solve_factor(self, B: np.ndarray, *, transposed: bool = False) -> np.ndarray:
        """``L^{-1} B``, or ``L'^{-1} B`` when ``transposed``, for an ``(n, k)`` ``B``."""
        X, info = scipy.linalg.lapack.dtbtrs(
            self.cholesky, B, uplo="L", trans="T" if transposed else "N")
        if info != 0:
            raise SpdError(f"banded triangular solve failed (info {info})")
        return X

    @cached_property
    def lambda_max_bound(self) -> float:
        """Certified upper end of the largest eigenvalue, computed once."""
        return eigenvalue_bound(self.band)

    @cached_property
    def lambda_min_bound(self) -> float:
        """Certified lower end of the smallest eigenvalue, computed once."""
        return eigenvalue_bound(self.band, end="min")

    @cached_property
    def _row_sum_bound(self) -> float:
        # max absolute row sum, a cheap upper bound on the spectral norm
        return float(abs(self._matrix).sum(axis=1).max(initial=0.0))

    def diagonal(self) -> np.ndarray:
        return self._matrix.diagonal()

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self._matrix @ w


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


def _gamma(m: int) -> float:
    """``gamma_m = m u / (1 - m u)``, the rounding of an ``m``-term recurrence."""
    return m * _U / (1.0 - m * _U)


def _up(x: float) -> float:
    """The next float above ``x``: an upper end of one rounded operation's exact result."""
    return float(np.nextafter(x, np.inf))


def _abs_row_sums(ab: np.ndarray) -> np.ndarray:
    """Row sums of ``|S|`` for a symmetric ``S`` in lower band storage.

    All terms are nonnegative, so each sum is within ``gamma_(2b)`` of exact.
    """
    a = np.abs(ab)
    n = ab.shape[1]
    rows = a[0].copy()
    for d in range(1, ab.shape[0]):
        rows[d:] += a[d, :n - d]
        rows[:n - d] += a[d, :n - d]
    return rows


def _norm_bound(ab: np.ndarray) -> float:
    """An upper end of ``norm(S)`` for a symmetric band: its largest ``|S|`` row sum."""
    return _up(float(_abs_row_sums(ab).max()) * (1.0 + _gamma(2 * ab.shape[0] + 2)))


def diagonal_congruence(A: SparseSpd, d: np.ndarray) -> tuple[np.ndarray, float]:
    """The lower band of ``D A D`` with ``D = diag(d)``, and its rounding bound.

    Each entry is rounded twice, so its error is below ``2 eps |D A D|``
    entrywise and the error's spectral norm below ``2 eps`` times the
    largest row sum of ``|D A D|``: the ``k_err`` that
    :func:`eigenvalue_bound` takes for this band.
    """
    K = d * A.band
    for i in range(K.shape[0]):
        K[i, :A.n - i] *= d[i:]
    return K, 2.0 * _EPS * _norm_bound(K)


def _gershgorin_upper(ab: np.ndarray) -> float:
    """Gershgorin's upper end of ``lambda_max``, exact for a diagonal band."""
    off = _abs_row_sums(np.vstack([np.zeros((1, ab.shape[1])), ab[1:]]))
    ends = np.where(off > 0, np.nextafter(
        ab[0] + off * (1.0 + _gamma(2 * ab.shape[0] + 2)), np.inf), ab[0])
    return float(ends.max())


def _sbmv(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``S x`` for a symmetric ``S`` in lower band storage (BLAS ``dsbmv``)."""
    return scipy.linalg.blas.dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1)


def _rayleigh(K: np.ndarray, B: np.ndarray | None, x: np.ndarray) -> float:
    """The Rayleigh quotient ``x' K x / x' B x`` (``B = I`` when None)."""
    Bx = x if B is None else _sbmv(B, x)
    return float(x @ _sbmv(K, x)) / float(x @ Bx)


def _factor_margin(C: np.ndarray, L: np.ndarray, tau: float, B: np.ndarray | None) -> float:
    """A bound on ``norm(E)`` with ``tau B - K + E`` positive semidefinite.

    ``C`` is ``tau B - K`` as formed in floating point and ``L`` its computed
    banded Cholesky factor.  ``L L' = C + F`` with ``|F| <= gamma |L| |L'|``
    (each entry of ``L`` comes from at most ``b + 1`` products, one square
    root or reciprocal scaling, and one partial sum per ``pbtrf`` block of
    32 columns); ``norm(|L| |L'|)`` is at most its largest row sum,
    ``|L| (|L'| 1)``.  Forming ``C`` rounds its diagonal (and, for a pencil,
    every ``tau B`` product and difference) once each.
    """
    b, n = L.shape[0] - 1, L.shape[1]
    a = np.abs(L)
    col = a.sum(axis=0)  # |L'| 1: the column sums of |L|
    rows = a[0] * col
    for d in range(1, b + 1):
        rows[d:] += a[d, :n - d] * col[:n - d]
    factor = _gamma(b + 3 + b // 32) * float(rows.max()) * (1.0 + _gamma(2 * b + 4))
    if B is None:
        forming = _U * float(np.abs(C[0]).max()) * (1.0 + 4 * _U)
    else:
        forming = _U * float((_abs_row_sums(tau * B) + _abs_row_sums(C)).max()) * (
            1.0 + _gamma(2 * b + 4))
    return factor + forming


def _band_copy(ab, width: int) -> np.ndarray:
    """A float64 copy of lower band storage widened to ``width`` rows.

    The unused corner, which LAPACK leaves unread, is cleared so that the
    row and column sums of :func:`_factor_margin` do not read it either.
    """
    ab = np.asarray(ab, dtype=np.float64)
    n = ab.shape[1]
    out = np.zeros((width, n))
    out[:ab.shape[0]] = ab
    out[np.add.outer(np.arange(width), np.arange(n)) >= n] = 0.0
    return out


def eigenvalue_bound(K, B=None, *, end: str = "max", b_floor: float | None = None,
                     k_err: float = 0.0) -> float:
    """A certified end of an extreme eigenvalue of a symmetric band or pencil.

    ``K`` is a symmetric matrix in lower band storage (:func:`_lower_band`).
    With ``B``, a positive definite matrix in lower band storage, the
    eigenvalues are those of the pencil ``K x = lambda B x``.
    ``end="max"`` gives an upper end of the largest eigenvalue, ``end="min"``
    a lower end of the smallest.  ``b_floor`` is a certified lower end of
    ``lambda_min(B)``; for a diagonal ``B`` it defaults to the smallest
    entry.  ``k_err`` bounds the spectral norm of the error in ``K`` itself,
    for a band that was formed with rounding.

    The test of a shift ``tau`` is one ``pbtrf`` of ``tau B - K``: success
    proves ``lambda_max <= tau + margin``, with the margin of
    :func:`_factor_margin` (plus ``k_err``) over ``b_floor``.  It starts at
    Gershgorin's end; each success runs shifted inverse iteration (``pbtrs``,
    more solves per factorization for a wide band, whose factorization costs
    about ``b`` solves) from a fixed start vector and moves ``tau`` to the
    Rayleigh quotient plus the margin; a failure bisects back toward the last
    certified end.  It stops when the certified end is within three margins
    and a few units of roundoff of the largest Rayleigh quotient or failed
    shift, so the same input always gives the same bits.  Spending
    :data:`MAX_FACTORIZATIONS` first raises :class:`EigenvalueBoundError`;
    no unrefined end is returned.
    """
    if end not in ("max", "min"):
        raise ValueError(f"end must be 'max' or 'min', got {end!r}")
    width = np.shape(K)[0]
    if B is None:
        b_floor = 1.0
    else:
        if np.shape(B)[1] != np.shape(K)[1]:
            raise ValueError(f"pencil orders differ: {np.shape(K)[1]} vs {np.shape(B)[1]}")
        if b_floor is None:
            if np.shape(B)[0] != 1:
                raise ValueError("a banded B needs a certified b_floor")
            b_floor = float(np.min(B[0]))
        if not b_floor > 0:
            raise ValueError(f"b_floor must be positive, got {b_floor}")
        width = max(width, np.shape(B)[0])
        B = _band_copy(B, width)
    K = _band_copy(K, width)
    if end == "min":
        # lambda_min(K, B) = -lambda_max(-K, B)
        return -_upper_end(-K, B, b_floor, k_err)
    return _upper_end(K, B, b_floor, k_err)


def _upper_end(K, B, b_floor, k_err) -> float:
    b, n = K.shape[0] - 1, K.shape[1]
    g = _gershgorin_upper(K)
    # for a pencil, x' K x <= g x' x <= max(g, 0) x' B x / b_floor
    hi = g if B is None else _up(max(g, 0.0) / b_floor)
    # a fixed positive start vector (golden-ratio fractional parts): not
    # orthogonal to a Perron vector, and without the mirror symmetry of the
    # model problems' eigenvectors
    x = 1.0 + np.modf(np.arange(1, n + 1) * _GOLDEN)[0]
    lo = _rayleigh(K, B, x)  # the largest Rayleigh quotient or failed shift
    margin = 0.0
    tau = hi
    solves = 1 + b // 8
    for _ in range(MAX_FACTORIZATIONS):
        if hi - lo <= 3 * margin + 8 * _U * max(abs(hi), abs(lo)):
            return hi
        if B is None:
            C = -K
            C[0] = tau - K[0]
        else:
            C = tau * B - K
        L, info = scipy.linalg.lapack.dpbtrf(C, lower=1)
        if info != 0:
            lo = max(lo, tau)
            tau = 0.5 * (tau + hi)
            continue
        margin = (_factor_margin(C, L, tau, B) + k_err) / b_floor * (1.0 + 8 * _U)
        hi = min(hi, _up(tau + margin))
        for _ in range(solves):
            rhs = x if B is None else _sbmv(B, x)
            y, _info = scipy.linalg.lapack.dpbtrs(L, rhs[:, None], lower=1)
            x = y[:, 0] / np.abs(y).max()
        lo = max(lo, _rayleigh(K, B, x))
        tau = lo + margin + 2 * _U * abs(lo)
        if tau >= hi:
            tau = 0.5 * (lo + hi)
    raise EigenvalueBoundError(
        f"eigenvalue end of the order-{n} band not settled in {MAX_FACTORIZATIONS} "
        f"factorizations (bracket [{lo!r}, {hi!r}])")


def abs_matrix_norm(K) -> float:
    """Certified upper end of the spectral norm of ``|K|`` (rectangular allowed).

    ``K`` is a dense or sparse matrix, or anything with a ``.matrix``
    (:class:`SparseSpd`).  For symmetric ``|K|`` this is the upper end of the
    largest eigenvalue of the nonnegative band ``|K|``, otherwise the square
    root of that of ``|K|' |K|``, widened by the rounding of the product:
    each entry sums at most as many nonnegative products as a column of
    ``K`` has nonzeros.
    """
    A = abs(_csr(K))
    if A.shape[0] == A.shape[1] and (A != A.T).nnz == 0:
        return eigenvalue_bound(_lower_band(A))
    terms = int(np.diff(sparse.csc_array(A).indptr).max(initial=1))
    top = eigenvalue_bound(_lower_band(A.T @ A)) * (1.0 + 2 * _gamma(terms))
    return _up(math.sqrt(_up(max(top, 0.0))))


def spectral_norm(K) -> float:
    """Certified upper end of the largest eigenvalue magnitude of a symmetric matrix.

    The upper end of ``lambda_max``; the lower end of ``lambda_min`` is
    computed too only when Gershgorin's discs leave room for an eigenvalue
    below ``-lambda_max``.
    """
    if isinstance(K, SparseSpd):
        band, hi = K.band, K.lambda_max_bound
    else:
        if np.shape(K)[0] != np.shape(K)[1]:
            raise ValueError("spectral_norm requires a square matrix")
        band = _lower_band(K)
        hi = eigenvalue_bound(band)
    if -_gershgorin_upper(-band) >= -hi:
        return hi
    lo = K.lambda_min_bound if isinstance(K, SparseSpd) else eigenvalue_bound(band, end="min")
    return max(hi, -lo)


def condition_number(A: SparseSpd) -> float:
    """Certified upper end of the two-norm condition number.

    The upper end of ``lambda_max`` over the lower end of ``lambda_min``.
    """
    lo = A.lambda_min_bound
    if lo <= 0:
        raise SpdError(f"smallest eigenvalue is not certified positive (lower end {lo})")
    return _up(A.lambda_max_bound / lo)


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


def energy_operator_norm(K, A: SparseSpd) -> float:
    """Operator norm of a square ``K`` in the A-energy inner product.

    With ``A = L L'`` this is the 2-norm of ``Y = L' K L'^{-1}``, which is
    orthogonally similar to ``A^(1/2) K A^(-1/2)``.  ``K`` need not be
    symmetric.  ``Y`` costs one banded triangular solve and one banded
    product; its norm is the square root of the largest eigenvalue of the
    dense Gram matrix ``Y' Y``, an order-``n`` eigenvalue problem.  It
    serves only the perturbed coarse solve, whose seeded dense ``G`` has no
    Fourier form: its normalisation and its ``rho_star``.  The exact and
    recursive solves' ``rho_star`` and deviation come from the Fourier
    blocks of :mod:`mixedmg.fourier`, and a banded operator's energy norm is
    a banded pencil (the smoothers' ``eta_energy`` in :mod:`mixedmg.cycles`).
    """
    K = K.toarray() if sparse.issparse(K) else np.asarray(K, dtype=np.float64)
    if K.shape != (A.n, A.n):
        raise ValueError(f"dimension mismatch: {K.shape} vs {A.n}")
    # K L'^{-1} = (L^{-1} K')'
    Y = A.cholesky_upper @ A.solve_factor(K.T).T
    # all eigenvalues by implicit QL/QR ('ev'): selecting the top one with
    # the 'evr' or 'evx' driver fails outright when all eigenvalues
    # coincide, as for a multiple of the identity
    top = scipy.linalg.eigvalsh(Y.T @ Y, driver="ev")[-1]
    return float(np.sqrt(max(top, 0.0)))
