"""Dense ``O(n^3)`` formulas for the set-up constants: the test oracle.

The library certifies its spectral constants by shifted banded Cholesky
factorizations.  These are the textbook forms (dense copies, full
eigendecompositions, banded eigenvalue reductions, matrix square roots and
SVDs), used only to check it at small orders.
"""

import numpy as np
import scipy.linalg


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


def coarse_matrix(level, coarse) -> np.ndarray:
    """``B_c A_c^{-1}``: dense solves for the exact and perturbed variants."""
    if coarse.variant == "recursive":
        return coarse.solve_matrix(level)
    inverse = np.linalg.solve(dense(level.A_c), np.eye(level.n_c))
    return inverse if coarse.variant == "exact" else coarse.bc_matrix @ inverse


def rho_star(level, M, N, coarse) -> float:
    """Energy norm of the dense two-grid error propagator."""
    A, P = dense(level.A), level.P.toarray()
    eye = np.eye(level.n)
    correction = eye - P @ (coarse_matrix(level, coarse) @ (P.T @ A))
    pre = eye - M.diag[:, None] * A
    post = eye - N.diag[:, None] * A
    return energy_operator_norm(post @ correction @ pre, level.A)


def bc_deviation(level, coarse) -> float:
    """Coarse energy norm of ``B_c - I``."""
    B_c = coarse_matrix(level, coarse) @ dense(level.A_c)
    return energy_operator_norm(B_c - np.eye(level.n_c), level.A_c)
