"""Dense ``O(n^3)`` formulas for the set-up constants: the test oracle.

The library certifies its spectral constants by shifted banded Cholesky
factorizations.  These are the textbook forms (dense copies, full
eigendecompositions, banded eigenvalue reductions, matrix square roots and
SVDs), used only to check it at small orders.
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


def sqrt_pair(A) -> tuple[np.ndarray, np.ndarray]:
    """``A^(1/2)`` and ``A^(-1/2)`` of a :class:`SparseSpd` by dense ``eigh``."""
    w, v = np.linalg.eigh(dense(A))
    assert w[0] > 0
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def condition_number(A) -> float:
    w = np.linalg.eigvalsh(dense(A))
    return float(w[-1] / w[0])


def abs_matrix_norm(K) -> float:
    """Spectral norm of ``|K|`` by a dense SVD."""
    K = K.toarray() if hasattr(K, "toarray") else np.asarray(K)
    return float(np.linalg.norm(np.abs(K), 2))


def energy_operator_norm(K, A) -> float:
    """``norm(A^(1/2) K A^(-1/2))`` by a dense SVD."""
    W, Wi = sqrt_pair(A)
    return float(np.linalg.norm(W @ np.asarray(K) @ Wi, 2))


def contraction(A, diag: np.ndarray) -> float:
    """Energy norm of ``I - diag(diag) A``: ``max |eig(I - A^(1/2) D A^(1/2))|``."""
    W, _ = sqrt_pair(A)
    S = W @ (diag[:, None] * W)
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
