"""Dense ``O(n^3)`` formulas for the set-up constants: the test oracle.

The library takes its spectral constants from stencil symbols and its
``rho_star`` from Fourier blocks.  These are the textbook forms (dense
copies, full eigendecompositions, banded eigenvalue reductions, dense
Cholesky factors and SVDs, the explicit sine matrix), used only to check it
at small orders.
"""

import math

import numpy as np
import scipy.linalg


def dense(A) -> np.ndarray:
    """A dense copy of a :class:`SparseSpd`."""
    return A.matrix.toarray()


def eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues of a :class:`SparseSpd`, from its lower band.

    The LAPACK lower band storage ``ab[i, j] = A[j + i, j]`` is built from
    the stored entries on and below the diagonal.  LAPACK's banded reduction
    to tridiagonal form follows, then a tridiagonal eigenvalue solve,
    without eigenvectors.
    """
    M = A.matrix.tocoo()
    lower = M.row >= M.col
    depth = M.row[lower] - M.col[lower]
    ab = np.zeros((int(depth.max(initial=0)) + 1, A.n))
    ab[depth, M.col[lower]] = M.data[lower]
    return scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True)


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


def contraction(A, w: float) -> float:
    """Energy norm of ``I - w A``: ``max |eig(I - L' w L)|``."""
    L = cholesky(A)
    S = L.T @ (w * L)
    S = 0.5 * (S + S.T)
    return float(np.abs(np.linalg.eigvalsh(np.eye(A.n) - S)).max())


def sine_basis(level) -> np.ndarray:
    """The orthonormal sine matrix of ``level``'s coarse grid.

    ``sqrt(2 / (k + 1)) sin(pi i j / (k + 1))`` on ``k`` points, and its
    Kronecker square on a 2D grid of ``k`` by ``k``; a 1D level halves
    ``n = 2 n_c + 1`` points, a 2D one ``k^2`` to ``n_c = ((k - 1) / 2)^2``.
    """
    one_d = level.n == 2 * level.n_c + 1
    k = level.n_c if one_d else math.isqrt(level.n_c)
    j = np.arange(1, k + 1)
    S = np.sqrt(2.0 / (k + 1)) * np.sin(np.pi * np.outer(j, j) / (k + 1))
    return S if one_d else np.kron(S, S)


def bc_matrix(level, sigma, seed) -> np.ndarray:
    """``B_c = I + sigma Phi diag(s) Phi'`` of :func:`mixedmg.make_perturbed_coarse`.

    ``Phi`` is the explicit sine matrix and ``s`` the signs drawn again
    from ``seed`` as the library draws them; no library norm or transform
    enters, so the dense forms below check the library's deviation and apply.
    """
    Phi = sine_basis(level)
    s = np.random.default_rng(seed).choice((-1.0, 1.0), size=level.n_c)
    return np.eye(level.n_c) + sigma * (Phi * s) @ Phi.T


def solve_matrix(coarse) -> np.ndarray:
    """``B_c A_c^{-1}`` of a coarse solver: its correction of the identity block."""
    return coarse.apply(np.eye(coarse.level.n_c))


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
    pre = eye - M.w * A
    post = eye - N.w * A
    return energy_operator_norm(post @ correction @ pre, level.A)


def bc_deviation(level, X) -> float:
    """Coarse energy norm of ``B_c - I`` with ``B_c = X A_c``."""
    B_c = X @ dense(level.A_c)
    return energy_operator_norm(B_c - np.eye(level.n_c), level.A_c)


def _projector_similarity(level) -> np.ndarray:
    # orthogonal complement projector of range(L' P), A = L L'; the energy
    # projector below is its similarity transform by L'^{-1}
    U, _ = np.linalg.qr(cholesky(level.A).T @ level.P.toarray())
    S = np.eye(level.n) - U @ U.T
    return 0.5 * (S + S.T)


def coarse_complement_projector(level) -> np.ndarray:
    """The energy-orthogonal projector ``I - P (P' A P)^{-1} P' A``.

    Formed as ``L'^{-1} (I - U U') L'`` with ``A = L L'`` and ``U`` an
    orthonormal basis of ``L' P``, so that the computed matrix is
    idempotent up to roundoff.
    """
    Lt = cholesky(level.A).T
    return scipy.linalg.solve_triangular(Lt, _projector_similarity(level) @ Lt)


def projector_energy_norm(level) -> float:
    """Energy operator norm of the coarse complement projector.

    The energy norm of the projector equals the Euclidean norm of its
    similarity form ``I - U U'``; measuring that form directly avoids the
    condition-number amplification a redundant conjugation round trip
    through ``L' .. L'^{-1}`` would add.
    """
    return float(np.linalg.norm(_projector_similarity(level), 2))
