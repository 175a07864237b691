"""Textbook forms of the operators and dense ``O(n^3)`` formulas for the
set-up constants: the test oracle.

The library makes every operator from its stencil in one assembler, takes
its spectral constants from stencil symbols and its ``rho_star`` from
Fourier blocks.  These are the textbook forms (the unscaled model matrices
and interpolations from ``scipy.sparse.diags_array`` and ``kron``, the
float64 sparse Galerkin product, dense copies, full eigendecompositions,
banded eigenvalue reductions, dense Cholesky factors and SVDs, the explicit
sine matrix), used only to check it at small orders.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from mixedmg import SparseSpd


def laplacian(d: int, k: int) -> sparse.csr_array:
    """The unscaled second difference ``(-1, 2, -1)`` on ``k`` points, or in
    2D the 5-point Laplacian on a ``k`` by ``k`` grid, its Kronecker sum."""
    T = sparse.csr_array(sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1],
                                            shape=(k, k)))
    if d == 1:
        return T
    eye = sparse.eye_array(k, format="csr")
    return sparse.csr_array(sparse.kron(T, eye) + sparse.kron(eye, T))


def poisson_1d(n: int) -> SparseSpd:
    """The tridiagonal ``(-1, 2, -1)`` stiffness matrix on ``n`` points, made
    from its stencil; its matrix is :func:`laplacian` bit for bit."""
    return SparseSpd(np.array([2.0, -1.0]), n)


def poisson_2d(k: int) -> SparseSpd:
    """The 5-point Laplacian on a ``k`` by ``k`` interior grid (Dirichlet),
    made from its stencil; its matrix is :func:`laplacian` bit for bit."""
    return SparseSpd(np.array([[4.0, -1.0], [-1.0, 0.0]]), k)


def interpolation(d: int, k: int) -> sparse.csr_array:
    """The linear interpolation from ``(k - 1) / 2`` to ``k`` points, the
    column ``(1/2, 1, 1/2)`` on fine points ``2 j, 2 j + 1, 2 j + 2`` for
    coarse point ``j``, or in 2D its Kronecker square, the bilinear one."""
    steps = sparse.diags_array([0.5, 1.0, 0.5], offsets=[0, -1, -2], shape=(k, k - 1))
    one_d = sparse.csr_array(steps)[:, ::2]
    return one_d if d == 1 else sparse.csr_array(sparse.kron(one_d, one_d))


def linear_interpolation(n: int) -> sparse.csr_array:
    return interpolation(1, n)


def bilinear_interpolation(k: int) -> sparse.csr_array:
    return interpolation(2, k)


def galerkin(A, P) -> sparse.csr_array:
    """The float64 sparse product ``B = P' A P``, symmetrized as ``(B + B') / 2``.

    Below the first 2D coarsening, where ``A`` is a 9-point stencil matrix,
    the product's ``(1, 1)`` and ``(1, -1)`` couplings can differ in the last
    bit, so that it is no stencil matrix: on the third grid pair (7 to 3
    points per axis) of ``build_multilevel(31, 4, "poisson2d")``, for one.
    The library builds every level's ``A_c`` in stencil space and forms no
    such product.
    """
    P = sparse.csr_array(P)
    B = sparse.csr_array(P.T @ sparse.csr_array(getattr(A, "matrix", A)) @ P)
    # the float64 triple product is symmetric only to roundoff; enforce it
    return sparse.csr_array((B + B.T) * 0.5)


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
