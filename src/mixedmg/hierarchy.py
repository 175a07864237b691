"""Model problems, interpolation operators, and normalized grid hierarchies.

A :class:`GridLevel` packages one fine/coarse pair: the fine matrix scaled
to unit spectral norm, the prolongation rescaled by a scalar so the
Galerkin coarse matrix also has unit spectral norm; the structural
constants the error model needs are derived from those operators on first
read.  Scalar rescaling of ``P`` preserves the Galerkin structure ``A_c =
P' A P`` exactly, which the projection arguments behind the convergence
theory require.

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


def poisson_1d(n: int) -> SparseSpd:
    """Tridiagonal (-1, 2, -1) stiffness matrix on ``n`` interior points."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    off = -np.ones(n - 1)
    return SparseSpd(sparse.diags_array([off, 2.0 * np.ones(n), off], offsets=[-1, 0, 1]))


def poisson_2d(k: int) -> SparseSpd:
    """Standard 5-point Laplacian on a k-by-k interior grid (Dirichlet)."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    n = k * k
    along = -np.ones(n - 1)
    along[k - 1::k] = 0.0  # no coupling across the end of a grid row
    across = -np.ones(n - k)
    A = sparse.csr_array(sparse.diags_array(
        [across, along, 4.0 * np.ones(n), along, across], offsets=[-k, -1, 0, 1, k]))
    A.eliminate_zeros()  # a stored zero would count in the rows' nonzeros
    return SparseSpd(A)


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
    return _csr(sparse.coo_array((vals, (rows, cols)), shape=(n_fine, n_c)))


def bilinear_interpolation(k_fine: int) -> sparse.csr_array:
    """2D tensor-product interpolation; rows carry at most 4 nonzeros."""
    one_d = linear_interpolation(k_fine)
    return _csr(sparse.kron(one_d, one_d))


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
    """The Galerkin coarse matrix ``P' A P`` in the carrier, symmetrized."""
    return SparseSpd(_galerkin(A, P))


@dataclass(frozen=True, eq=False)
class GridLevel:
    """One normalized fine/coarse pair of a multigrid hierarchy.

    ``A`` and ``A_c`` have unit spectral norm: each scale is a certified
    upper end of the norm before scaling, so the norms lie within about
    ``1e-14`` below one and exceed it by at most the rounding of the
    scaling (a few units of roundoff).  ``A_c`` equals ``P' A P`` with the
    stored (rescaled) ``P``.  A level holds only these three operators;
    ``P'`` and the structural constants are derived from them on first
    read, so a level cannot carry another operator's constants.  The row
    counts the error model inflates are ``A.row_layout.m`` and
    ``P_layout.m``.
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


def _scaled(A: SparseSpd) -> SparseSpd:
    """``A`` over the upper end of its norm: a norm one up to the scaling's rounding."""
    return SparseSpd(A.matrix * (1.0 / spectral_norm(A)))


def _level(A: SparseSpd, P) -> GridLevel:
    """The level of an already scaled ``A`` and an interpolation ``P``.

    ``P`` is multiplied by the scalar ``s_c**-0.5``, with ``s_c`` the upper
    end of ``norm(P' A P)``: the minimal change that keeps ``A_c = P' A P``
    exact while bringing ``norm(A_c)`` to one, up to the rounding of the
    scaling and of the recomputed Galerkin product.
    """
    s_c = spectral_norm(_galerkin(A, P))
    P1 = _csr(P * float(1.0 / np.sqrt(s_c)))
    return GridLevel(A, P1, galerkin_coarse(A, P1))


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
    the coarsest grid is ``levels[-1].A_c``.  Every matrix is checked once,
    when its :class:`SparseSpd` is made (a stencil matrix, positive
    definite by its certified lower symbol end), and none is factored;
    each ``P`` is checked to be a scaled (bi)linear interpolation when
    :attr:`GridLevel.stencils` is first read, as every coarse solve does.
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
