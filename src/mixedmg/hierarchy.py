"""Model problems, interpolation operators, and normalized grid hierarchies.

A :class:`GridLevel` packages one fine/coarse pair: the fine matrix scaled
to unit spectral norm, the prolongation rescaled by a scalar so the
Galerkin coarse matrix also has unit spectral norm, and the structural
constants the error model needs.  Scalar rescaling of ``P`` preserves the
Galerkin structure ``A_c = P' A P`` exactly, which the projection
arguments behind the convergence theory require.

Every set-up constant comes from the symbol of a stencil (local Fourier
analysis): :mod:`mixedmg.fourier` reads an operator back as stencil values
and checks them bit for bit against the stored matrix, and the symbol's
certified ends give :func:`spectral_norm`, :func:`condition_number` and
:func:`abs_matrix_norm`.  Each scale is the upper end of the norm before
scaling, so a scaled norm exceeds one by at most the rounding of the
scaling itself: a few units of roundoff.  An operator that is not a stencil
matrix raises :class:`StructureError`; there is no dense or iterative
fallback.

:attr:`GridLevel.stencils` gathers a model-problem level's stencils, the
input of the Fourier analysis of the cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _poisson_1d(n: int) -> sparse.csr_array:
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sparse.csr_array(sparse.diags_array([off, main, off], offsets=[-1, 0, 1]))


def _poisson_2d(k: int) -> sparse.csr_array:
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    one_d = _poisson_1d(k)
    eye = sparse.eye_array(k)
    return sparse.csr_array(sparse.kron(one_d, eye) + sparse.kron(eye, one_d))


def poisson_1d(n: int) -> SparseSpd:
    """Tridiagonal (-1, 2, -1) stiffness matrix on ``n`` interior points."""
    return SparseSpd(_poisson_1d(n))


def poisson_2d(k: int) -> SparseSpd:
    """Standard 5-point Laplacian on a k-by-k interior grid (Dirichlet)."""
    return SparseSpd(_poisson_2d(k))


def linear_interpolation(n_fine: int) -> sparse.csr_array:
    """1D linear interpolation with the (1/2, 1, 1/2) column stencil.

    Maps ``n_c = (n_fine - 1) / 2`` coarse points to ``n_fine`` fine
    points; rows carry at most 2 nonzeros and columns at most 3.
    """
    if n_fine < 3 or n_fine % 2 == 0:
        raise ValueError(f"n_fine must be odd and >= 3, got {n_fine}")
    n_c = (n_fine - 1) // 2
    cols = np.repeat(np.arange(n_c), 3)
    # coarse point j sits at fine point 2 j + 1 and reaches its two neighbours
    rows = 2 * cols + np.tile([0, 1, 2], n_c)
    vals = np.tile([0.5, 1.0, 0.5], n_c)
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


def _differs(stored, rebuilt) -> bool:
    return bool((sparse.csr_array(stored) != sparse.csr_array(rebuilt)).nnz)


def _operator_stencil(A: SparseSpd, d: int, k: int, name: str) -> np.ndarray:
    """The stencil of ``A`` on a ``d``-dimensional grid of ``k`` points per axis.

    It is :attr:`SparseSpd.stencil`, read once per operator, when that read
    found this grid; otherwise the operator is read on this grid again, so
    that a mismatch raises :class:`StructureError` naming it ``name``.
    """
    try:
        c, k_read = A.stencil
        if c.ndim == d and k_read == k:
            return c
    except StructureError:
        pass
    return _stencil(A.matrix, d, k, name)


def level_stencils(level: GridLevel) -> LevelStencils:
    """The stencils of a model-problem level, each checked against its operator.

    The grid is 1D with ``k = n`` points or 2D with ``k`` by ``k``, read from
    the orders of ``A`` and ``A_c``, which a (bi)linear coarsening of an odd
    ``k`` relates as ``n_c = ((k - 1) / 2)^d``.  ``A``, ``A_c``, ``P`` and
    ``P'`` must each equal the matrix rebuilt from the stencil values read
    off them, bit for bit; otherwise :class:`StructureError` names the
    operator.  ``A`` and ``A_c`` reuse the stencils their
    :class:`SparseSpd` read once.
    """
    d, k = _grid(level.n, level.n_c)
    A = _operator_stencil(level.A, d, k, "A")
    A_c = _operator_stencil(level.A_c, d, (k - 1) // 2, "A_c")
    p = _interpolation_weight(level.P, d, k)
    if _differs(level.P_t, level.P.T):
        raise StructureError("P' is not the transpose of P")
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


def _galerkin(A: SparseSpd, P) -> sparse.csr_array:
    P = sparse.csr_array(P)
    B = sparse.csr_array(P.T @ A.matrix @ P)
    # the float64 triple product is symmetric only to roundoff; enforce it
    return sparse.csr_array((B + B.T) * 0.5)


def galerkin_coarse(A: SparseSpd, P) -> SparseSpd:
    """The Galerkin coarse matrix ``P' A P`` in the carrier, symmetrized."""
    return SparseSpd(_galerkin(A, P))


@dataclass(frozen=True, eq=False)
class GridLevel:
    """One normalized fine/coarse pair of a multigrid hierarchy.

    ``A`` and ``A_c`` have unit spectral norm: each scale is a certified
    upper end of the norm before scaling, so the norms lie within about
    ``1e-14`` below one and exceed it by at most the rounding of the
    scaling (a few units of roundoff).  ``A_c`` equals ``P' A P`` with the
    stored (rescaled) ``P``.  ``eta_A`` and ``eta_P`` are upper ends of the
    spectral norms of the entrywise absolute values ``|A|`` and ``|P|``,
    and ``kappa`` and ``kappa_c`` of the condition numbers, all from
    stencil symbols; the row counts the error model inflates are
    ``A.row_layout.m`` and ``P_layout.m``.
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


def _scaled(A: SparseSpd) -> SparseSpd:
    """``A`` over the upper end of its norm: a norm one up to the scaling's rounding."""
    return SparseSpd(A.matrix * (1.0 / spectral_norm(A)))


def _level(A: SparseSpd, P) -> GridLevel:
    """The level of an already scaled ``A``; see :func:`normalize_hierarchy`."""
    P = sparse.csr_array(P).astype(np.float64)
    if P.shape[0] != A.n or P.shape[1] > P.shape[0]:
        raise ValueError(f"prolongation shape {P.shape} incompatible with n={A.n}")
    s_c = spectral_norm(_galerkin(A, P))
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

    ``A`` must be a symmetric stencil matrix on a 1D or square 2D grid and
    ``P`` a scalar times its (bi)linear interpolation; otherwise
    :class:`StructureError` names the operator.
    """
    A = A if isinstance(A, SparseSpd) else SparseSpd(A)
    P = sparse.csr_array(P).astype(np.float64)
    d, k = _grid(A.n, P.shape[1])
    _operator_stencil(A, d, k, "A")
    _interpolation_weight(P, d, k)
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
    the coarsest grid is ``levels[-1].A_c``.  Every matrix is validated
    (symmetric, and positive definite by its certified lower symbol end)
    and none is factored.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    check_refinable(n_finest, levels)
    if problem == "poisson1d":
        A = _poisson_1d(n_finest)
        interp = linear_interpolation
    elif problem == "poisson2d":
        A = _poisson_2d(n_finest)
        interp = bilinear_interpolation
    else:
        raise ValueError(f"unknown problem {problem!r}")

    out: list[GridLevel] = []
    size = n_finest
    current = _scaled(SparseSpd(A))
    for _ in range(levels - 1):
        lvl = _level(current, interp(size))
        out.append(lvl)
        current = lvl.A_c
        size = (size - 1) // 2
    return out
