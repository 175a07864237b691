"""Dense ``O(n^3)`` formulas for the set-up constants: the test oracle.

The library takes its spectral constants from stencil symbols.  These are
the textbook forms (dense copies, full eigendecompositions, banded
eigenvalue reductions, dense Cholesky factors and SVDs), used only to check
it at small orders.
"""

import numpy as np
import scipy.linalg

import mixedmg


def dense(A) -> np.ndarray:
    """A dense copy of a :class:`SparseSpd`."""
    return A.matrix.toarray()


def eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues of a :class:`SparseSpd`, from its band.

    LAPACK's banded reduction to tridiagonal form followed by a tridiagonal
    eigenvalue solve, without eigenvectors.
    """
    return scipy.linalg.eig_banded(A.band, lower=True, eigvals_only=True)


def cholesky(A) -> np.ndarray:
    """The dense lower Cholesky factor ``L`` of ``A = L L'``."""
    return np.linalg.cholesky(dense(A))


def condition_number(A) -> float:
    w = np.linalg.eigvalsh(dense(A))
    return float(w[-1] / w[0])


def abs_matrix_norm(K) -> float:
    """Spectral norm of ``|K|`` by a dense SVD."""
    K = K.toarray() if hasattr(K, "toarray") else np.asarray(K)
    return float(np.linalg.norm(np.abs(K), 2))


def energy_operator_norm(K, A) -> float:
    """``norm(A^(1/2) K A^(-1/2)) = norm(L' K L'^{-1})`` by a dense SVD.

    ``L' K L'^{-1}`` is orthogonally similar to ``A^(1/2) K A^(-1/2)``, and
    its triangular solve keeps the rounding near ``u`` relative where
    forming the square roots by ``eigh`` loses ``u kappa``.
    """
    L = cholesky(A)
    # K L'^{-1} = (L^{-1} K')'
    right = scipy.linalg.solve_triangular(L, np.asarray(K).T, lower=True).T
    return float(np.linalg.norm(L.T @ right, 2))


def contraction(A, diag: np.ndarray) -> float:
    """Energy norm of ``I - diag(diag) A``: ``max |eig(I - L' D L)|``."""
    L = cholesky(A)
    S = L.T @ (diag[:, None] * L)
    S = 0.5 * (S + S.T)
    return float(np.abs(np.linalg.eigvalsh(np.eye(A.n) - S)).max())


def bc_matrix(level, sigma, seed) -> np.ndarray:
    """``B_c = I + sigma G`` of :func:`mixedmg.make_perturbed_coarse`.

    ``G`` is drawn again from ``seed`` and scaled by the library's energy
    operator norm, so this is, bit for bit, the matrix the perturbed solve
    multiplies by; the dense forms below then check its normalisation.
    """
    n_c = level.n_c
    G = np.random.default_rng(seed).standard_normal((n_c, n_c))
    G = 0.5 * (G + G.T)
    G /= mixedmg.energy_operator_norm(G, level.A_c)
    return np.eye(n_c) + sigma * G


def coarse_matrix(level, sigma=0.0, seed=0) -> np.ndarray:
    """``B_c A_c^{-1}`` by dense solves: the exact solve at ``sigma = 0``,
    else the perturbed one drawn from ``seed``."""
    inverse = np.linalg.solve(dense(level.A_c), np.eye(level.n_c))
    return inverse if sigma == 0.0 else bc_matrix(level, sigma, seed) @ inverse


def rho_star(level, M, N, X) -> float:
    """Energy norm of the dense two-grid error propagator with ``X = B_c A_c^{-1}``."""
    A, P = dense(level.A), level.P.toarray()
    eye = np.eye(level.n)
    correction = eye - P @ (X @ (P.T @ A))
    pre = eye - M.diag[:, None] * A
    post = eye - N.diag[:, None] * A
    return energy_operator_norm(post @ correction @ pre, level.A)


def bc_deviation(level, X) -> float:
    """Coarse energy norm of ``B_c - I`` with ``B_c = X A_c``."""
    B_c = X @ dense(level.A_c)
    return energy_operator_norm(B_c - np.eye(level.n_c), level.A_c)
