"""Model problems, interpolation operators, and normalized grid hierarchies.

A :class:`GridLevel` packages one fine/coarse pair: the fine matrix scaled
to unit spectral norm, the prolongation rescaled by a scalar so the
Galerkin coarse matrix also has unit spectral norm, and the structural
constants the error model needs.  Scalar rescaling of ``P`` preserves the
Galerkin structure ``A_c = P' A P`` exactly, which the projection
arguments behind the convergence theory require.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from .linops import (
    OperatorConstants,
    SparseSpd,
    SpdError,
    abs_matrix_norm,
    condition_number,
    spectral_norm,
    write_matrix_market,
)
from .precision import RowLayout

_EPS = float(np.finfo(np.float64).eps)


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

    ``A`` and ``A_c`` have unit spectral norm; ``A_c`` equals ``P' A P``
    with the stored (rescaled) ``P``.  The coarsest level of a hierarchy
    has ``P``, ``A_c`` and the coarse constants set to ``None``.
    """

    A: SparseSpd
    P: sparse.csr_array | None
    P_t: sparse.csr_array | None
    A_c: SparseSpd | None
    a_constants: OperatorConstants
    p_constants: OperatorConstants | None
    kappa: float
    kappa_c: float | None
    a_scale: float
    p_scale: float | None

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def n_c(self) -> int | None:
        return None if self.A_c is None else self.A_c.n

    @property
    def xi(self) -> float | None:
        """The conditioning ratio sqrt(kappa_c / kappa)."""
        if self.kappa_c is None:
            return None
        return float(np.sqrt(self.kappa_c / self.kappa))

    @cached_property
    def P_layout(self) -> RowLayout:
        """The padded row layout of ``P`` for the rounded kernels, built once."""
        return RowLayout.of(self.P)

    @cached_property
    def P_t_layout(self) -> RowLayout:
        """The padded row layout of ``P'`` for the rounded kernels, built once."""
        return RowLayout.of(self.P_t)


def _unit_scale(A: SparseSpd) -> tuple[SparseSpd, float]:
    s = spectral_norm(A)
    if s <= 0:
        raise SpdError("zero matrix cannot be normalized")
    # keep already-normalized input bit-identical so that repeated
    # normalization is idempotent along a hierarchy chain
    if abs(s - 1.0) <= 8 * _EPS:
        return A, 1.0
    return SparseSpd(A.matrix * (1.0 / s)), s


def normalize_hierarchy(A, P) -> GridLevel:
    """Scale ``A`` to unit norm and ``P`` so the Galerkin coarse matrix follows.

    ``P`` is multiplied by the scalar ``norm(P' A P)**-0.5`` (after the
    A-scaling), the minimal change that keeps ``A_c = P' A P`` exact while
    enforcing ``norm(A_c) = 1``.
    """
    if not isinstance(A, SparseSpd):
        A = SparseSpd(A)
    A1, a_scale = _unit_scale(A)
    P = sparse.csr_array(P).astype(np.float64)
    if P.shape[0] != A1.n or P.shape[1] > P.shape[0]:
        raise ValueError(f"prolongation shape {P.shape} incompatible with n={A1.n}")
    raw = galerkin_coarse(A1, P)
    s_c = spectral_norm(raw)
    if s_c <= 0:
        raise SpdError("coarse operator has zero norm; P is rank deficient")
    p_scale = float(1.0 / np.sqrt(s_c))
    P1 = sparse.csr_array(P * p_scale)
    P1.sort_indices()
    A_c = galerkin_coarse(A1, P1)
    P1_t = sparse.csr_array(P1.T)
    P1_t.sort_indices()
    m_p = int(np.diff(P1.indptr).max(initial=0))
    return GridLevel(
        A=A1,
        P=P1,
        P_t=P1_t,
        A_c=A_c,
        a_constants=OperatorConstants(m=A1.m_row, eta_abs=abs_matrix_norm(A1)),
        p_constants=OperatorConstants(m=m_p, eta_abs=abs_matrix_norm(P1)),
        kappa=condition_number(A1),
        kappa_c=condition_number(A_c),
        a_scale=a_scale,
        p_scale=p_scale,
    )


def coarsest_level(A) -> GridLevel:
    """Wrap a matrix as the terminal (direct-solve) level of a hierarchy."""
    if not isinstance(A, SparseSpd):
        A = SparseSpd(A)
    A1, a_scale = _unit_scale(A)
    return GridLevel(
        A=A1,
        P=None,
        P_t=None,
        A_c=None,
        a_constants=OperatorConstants(m=A1.m_row, eta_abs=abs_matrix_norm(A1)),
        p_constants=None,
        kappa=condition_number(A1),
        kappa_c=None,
        a_scale=a_scale,
        p_scale=None,
    )


def _check_refinable(size: int, levels: int):
    k = int(round(np.log2(size + 1)))
    if 2**k - 1 != size:
        raise ValueError(f"size must be 2**k - 1, got {size}")
    if k < levels:
        raise ValueError(f"size {size} cannot be coarsened {levels - 1} times")


def build_multilevel(n_finest: int, levels: int, problem: str = "poisson1d") -> list[GridLevel]:
    """Chain of normalized grid levels for a model problem.

    For ``poisson1d`` the finest grid has ``n_finest = 2**k - 1`` points;
    for ``poisson2d`` it is an ``n_finest``-by-``n_finest`` interior grid.
    Each level's ``A_c`` is, bit for bit, the next level's ``A``.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    _check_refinable(n_finest, levels)
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
    current: SparseSpd | sparse.csr_array = A
    for _ in range(levels - 1):
        lvl = normalize_hierarchy(current, interp(size))
        out.append(lvl)
        current = lvl.A_c
        size = (size - 1) // 2
    out.append(coarsest_level(current))
    return out


def save_hierarchy(levels: list[GridLevel], directory) -> Path:
    """Serialize a hierarchy as Matrix Market files plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, lvl in enumerate(levels):
        entry = {
            "level": i,
            "n": lvl.n,
            "n_c": lvl.n_c,
            "kappa": lvl.kappa,
            "kappa_c": lvl.kappa_c,
            "m_A": lvl.a_constants.m,
            "eta_A": lvl.a_constants.eta_abs,
            "m_P": None if lvl.p_constants is None else lvl.p_constants.m,
            "eta_P": None if lvl.p_constants is None else lvl.p_constants.eta_abs,
            "a_scale": lvl.a_scale,
            "p_scale": lvl.p_scale,
            "a_file": f"level{i}_A.mtx",
            "p_file": None if lvl.P is None else f"level{i}_P.mtx",
        }
        write_matrix_market(directory / entry["a_file"], lvl.A)
        if lvl.P is not None:
            write_matrix_market(directory / entry["p_file"], lvl.P)
        manifest.append(entry)
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path
