"""Norms, spectra, condition numbers, and the norm inequalities they satisfy."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import dense_oracle as oracle
from mixedmg import (
    CARRIER,
    GridLevel,
    PrecisionFormat,
    PrecisionTooLowError,
    SparseSpd,
    SpdError,
    build_multilevel,
    condition_number,
    energy_norm,
    make_jacobi,
    make_richardson,
    mdot_plus_eps,
    solve_spd,
)
from mixedmg.fourier import symbol_ends
from mixedmg.linops import _assemble
from dense_oracle import poisson_1d, poisson_2d

EPS = float(np.finfo(np.float64).eps)


def spectral_norm(A: SparseSpd) -> float:
    """The certified upper end of the largest eigenvalue magnitude, from
    the ends of the stencil symbol."""
    lo, hi = A.spectrum_ends
    return max(hi, -lo)


#: The stencil (-0.5, 1) on 7 points: eigenvalues -0.5 + 2 cos(j pi / 8).
INDEFINITE = np.array([-0.5, 1.0])

IDENTITY = np.array([1.0, 0.0])


class TestSparseSpd:
    @pytest.mark.parametrize("c, k, error, match", [
        pytest.param(2.0, 3, ValueError, r"got \(\)$", id="0-axes"),
        pytest.param(np.ones((2, 2, 2)), 3, ValueError, r"got \(2, 2, 2\)$", id="3-axes"),
        # a line has one coupling value: separate left and right values are
        # no symmetric stencil
        pytest.param([2.0, -1.0, 0.0], 3, ValueError, r"got \(3,\)$", id="asymmetric"),
        pytest.param([[4.0, -1.0]], 3, ValueError, r"got \(1, 2\)$", id="wrong-shape"),
        pytest.param([2.0, np.nan], 3, ValueError, "non-finite", id="nan"),
        pytest.param([np.inf, -1.0], 3, ValueError, "non-finite", id="inf"),
        pytest.param([2.0, -1.0], True, ValueError, "got True$", id="bool-k"),
        pytest.param([2.0, -1.0], 3.0, ValueError, r"got 3\.0$", id="float-k"),
        pytest.param([2.0, -1.0], 0, ValueError, "got 0$", id="zero-k"),
        pytest.param(INDEFINITE, 7, SpdError,
                     r"^the stencil \[-0\.5, 1\.0\] on 7 points per axis is not "
                     r"positive definite", id="indefinite"),
        pytest.param([-2.0, 1.0], 7, SpdError, "not positive definite", id="negative"),
    ])
    def test_refuses(self, c, k, error, match):
        with pytest.raises(error, match=match) as info:
            SparseSpd(c, k)
        assert type(info.value) is error

    def test_rejects_a_matrix_that_is_no_stencil(self):
        # a matrix given for a stencil is refused by its shape; a 2x2 one has
        # the shape of a 2D stencil and is read as one, and diag(1, -1) is
        # then the indefinite stencil with centre 1 and corners -1
        with pytest.raises(ValueError, match=re.escape("got (5, 5)")):
            SparseSpd(oracle.laplacian(1, 5).toarray(), 5)
        with pytest.raises(SpdError, match=r"^the stencil \[1\.0, 0\.0, 0\.0, -1\.0\]"):
            SparseSpd(np.diag([1.0, -1.0]), 3)

    def test_stencil_is_a_read_only_copy(self):
        c = np.array([2.0, -1.0])
        A = SparseSpd(c, 5)
        c[1] = 0.0
        assert A.stencil.tolist() == [2.0, -1.0] and A.k == 5
        with pytest.raises(ValueError, match="read-only"):
            A.stencil[1] = 0.0

    def test_m_row_counts_stored_nonzeros(self):
        assert poisson_1d(8).row_layout.m == 3

    @pytest.mark.parametrize("array", ["data", "indices", "indptr"])
    def test_in_place_edit_raises(self, array):
        # an edit would leave the kept stencil, spectrum ends and sine
        # eigenvalues stale
        A = poisson_1d(5)
        with pytest.raises(ValueError, match="read-only"):
            getattr(A.matrix, array)[0] = 2


class TestEnergyNorm:
    def test_zero_vector(self, level31):
        assert energy_norm(np.zeros(31), level31.A) == 0.0

    def test_identity_unit_vector(self):
        I3 = SparseSpd(IDENTITY, 3)
        e1 = np.array([1.0, 0.0, 0.0])
        assert energy_norm(e1, I3) == 1.0

    def test_ones_against_quadratic_form(self):
        # w' A w = 2 for the n=3 stiffness matrix and the all-ones vector
        A = poisson_1d(3)
        assert energy_norm(np.ones(3), A) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_matches_inner_product(self):
        rng = np.random.default_rng(1)
        for A in (poisson_1d(12), poisson_2d(5)):
            for _ in range(25):
                w = rng.standard_normal(A.n)
                q = float(w @ (A.matrix @ w))
                assert energy_norm(w, A) ** 2 == pytest.approx(q, rel=1e-12)

    def test_dimension_mismatch(self, level31):
        with pytest.raises(ValueError):
            energy_norm(np.ones(30), level31.A)

    def test_indefinite_matrix_detected(self):
        # construction certified A; negating its stored entries in place,
        # past the read-only flag, is the case the runtime guard exists for
        A = poisson_1d(5)
        A.matrix.data.flags.writeable = True
        A.matrix.data *= -1.0
        with pytest.raises(SpdError, match="^negative quadratic form"):
            energy_norm(np.ones(5), A)


class TestSpectralQuantities:
    def test_spectral_norm_identity(self):
        assert spectral_norm(SparseSpd(IDENTITY, 4)) == pytest.approx(1.0, abs=1e-15)

    def test_spectral_norm_diagonal(self):
        # a diagonal that is not constant has no stencil: a matrix given for
        # one is refused, with no dense or iterative fallback
        X = np.random.default_rng(9).standard_normal((12, 12))
        for K in (np.diag([3.0, 1.0, 0.5]), X @ X.T + 12 * np.eye(12)):
            with pytest.raises(ValueError, match=re.escape(f"got {K.shape}")):
                SparseSpd(K, len(K))

    def test_spectral_norm_2d_closed_form(self):
        # eigenvalues 4 - 2 cos(i pi / 6) - 2 cos(j pi / 6), largest 4 + 2 sqrt(3)
        assert spectral_norm(poisson_2d(5)) == pytest.approx(
            4.0 + 2.0 * math.sqrt(3.0), rel=1e-14)

    def test_spectral_norm_tridiagonal_closed_form(self):
        # eigenvalues 2 - 2 cos(k pi / 4), largest 2 + sqrt(2)
        assert spectral_norm(poisson_1d(3)) == pytest.approx(
            2.0 + math.sqrt(2.0), rel=1e-14)

    def test_condition_number_identity(self):
        assert condition_number(SparseSpd(IDENTITY, 5)) == pytest.approx(1.0)

    def test_condition_number_diagonal(self):
        # diag(4, 1) is the 2D stencil with centre 4 and corners 1: on 3
        # points per axis its eigenvalues are 4 + 4 cos(i pi / 4) cos(j pi / 4),
        # from 2 to 6
        A = SparseSpd(np.diag([4.0, 1.0]), 3)
        w = np.linalg.eigvalsh(A.matrix.toarray())
        assert w[0] == pytest.approx(2.0, rel=1e-14) and w[-1] == pytest.approx(6.0, rel=1e-14)
        kappa = condition_number(A)
        assert w[-1] / w[0] <= kappa == pytest.approx(3.0, rel=1e-13)

    def test_condition_number_tridiagonal(self):
        expected = (2.0 + math.sqrt(2.0)) / (2.0 - math.sqrt(2.0))
        assert condition_number(poisson_1d(3)) == pytest.approx(expected, rel=1e-13)

    def test_condition_number_scale_invariant(self):
        A = poisson_1d(9)
        scaled = SparseSpd(A.stencil * 7.5, A.k)
        assert condition_number(scaled) == pytest.approx(
            condition_number(A), rel=1e-12)

    def test_abs_matrix_norm_identity_and_sign(self):
        # eta_A of the identity, and eta_P of a weight of either sign
        for p in (1.0, -1.0):
            level = GridLevel(SparseSpd(IDENTITY, 3), p, SparseSpd(IDENTITY, 1))
            assert level.eta_A == pytest.approx(1.0)
            assert level.eta_P == pytest.approx(oracle.abs_matrix_norm(level.P))

    def test_abs_matrix_norm_rectangular_and_unsymmetric(self):
        # eta_P of a scaled interpolation is the norm of |P| and of |P'|
        for model, k in ((poisson_1d, 3), (poisson_1d, 15), (poisson_1d, 31), (poisson_2d, 7)):
            level = GridLevel(model(k), -0.75, model((k - 1) // 2))
            for K in (level.P, level.P_t):
                assert level.eta_P == pytest.approx(oracle.abs_matrix_norm(K), rel=1e-12)

    def test_spectral_norm_indefinite(self):
        # the stencil (-0.5, 1) has the eigenvalues -0.5 + 2 cos(j pi / 8);
        # the one of largest magnitude is the smallest
        lo, hi = symbol_ends(INDEFINITE, 7)
        assert max(hi, -lo) == pytest.approx(0.5 + 2 * math.cos(math.pi / 8), rel=1e-14)

    def test_abs_matrix_norm_tridiagonal(self):
        # |A| = tridiag(1, 2, 1) has largest eigenvalue 2 + sqrt(2)
        level = GridLevel(poisson_1d(3), 1.0, poisson_1d(1))
        assert level.eta_A == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14)


class TestMdotPlus:
    def test_limit_at_carrier_precision(self):
        got = mdot_plus_eps(3, PrecisionFormat(53).unit_roundoff)
        assert got == pytest.approx(4.0, rel=1e-12)

    def test_formula_value(self):
        # 4 / (1 - 4 * 2**-10) = 4096 / 1020
        got = mdot_plus_eps(3, PrecisionFormat(10).unit_roundoff)
        assert got == pytest.approx(4096.0 / 1020.0, rel=1e-15)
        assert got == pytest.approx(4.015686274509804)

    def test_denominator_zero_raises(self):
        # (1023 + 1) * 2**-10 = 1 exactly
        with pytest.raises(PrecisionTooLowError):
            mdot_plus_eps(1023, PrecisionFormat(10).unit_roundoff)

    def test_exceeds_one_raises(self):
        with pytest.raises(PrecisionTooLowError):
            mdot_plus_eps(2000, PrecisionFormat(10).unit_roundoff)


class TestSolveSpd:
    def test_identity(self):
        # the transform pair is orthonormal only up to rounding
        b = np.arange(1.0, 6.0)
        assert solve_spd(SparseSpd(IDENTITY, 5), b) == pytest.approx(b, rel=4 * EPS)

    def test_zero_rhs(self, level31):
        assert np.array_equal(solve_spd(level31.A, np.zeros(31)), np.zeros(31))

    def test_tridiagonal_hand_solution(self):
        x = solve_spd(poisson_1d(3), np.array([1.0, 0.0, 0.0]))
        assert x == pytest.approx([0.75, 0.5, 0.25], rel=1e-14)

    def test_residual_contract(self):
        # a backward-stable residual, and the A-norm gap to a dense LU solve.
        # Plain LU is the less accurate of the two at 1D n = 4095 (about
        # 4e-12 against 3e-13 for the transforms), so the reference takes one
        # refinement step with its residual in extended precision.
        rng = np.random.default_rng(3)
        for A in (poisson_1d(255), poisson_1d(4095), poisson_2d(31), poisson_2d(63)):
            kappa = condition_number(A)
            B = rng.standard_normal((A.n, 8))
            X = solve_spd(A, B)
            lu = scipy.linalg.lu_factor(A.matrix.toarray())
            dense = scipy.linalg.lu_solve(lu, B)
            residual = A.matrix.astype(np.longdouble) @ dense.astype(np.longdouble) - B
            dense -= scipy.linalg.lu_solve(lu, residual.astype(np.float64))
            for x, b, ref in zip(X.T, B.T, dense.T):
                res = np.linalg.norm(A.matrix @ x - b)
                assert res <= 100 * EPS * kappa * np.linalg.norm(b)
                assert energy_norm(x - ref, A) <= 1e-12 * energy_norm(ref, A)

    def test_shape_mismatch_raises(self, level31):
        for b in (np.ones(30), np.ones((30, 2)), np.ones((31, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                solve_spd(level31.A, b)


class TestNormInequalities:
    """The Euclidean/energy comparison inequalities for unit-norm operators."""

    def test_euclid_bounded_by_energy_of_preimage(self, level31):
        # norm(w) <= energy_norm(A^{-1} w) when the matrix has unit norm
        A = level31.A
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.standard_normal(31)
            assert np.linalg.norm(w) <= energy_norm(solve_spd(A, w), A) * (1 + 1e-12)

    def test_coarse_euclid_energy_comparison(self, level31):
        A_c = level31.A_c
        root_kappa_c = math.sqrt(level31.kappa_c)
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.standard_normal(A_c.n)
            assert np.linalg.norm(w) <= root_kappa_c * energy_norm(w, A_c) * (1 + 1e-12)

    def test_energy_euclid_sandwich(self, level31):
        A = level31.A
        root_kappa = math.sqrt(level31.kappa)
        rng = np.random.default_rng(6)
        for _ in range(50):
            w = rng.standard_normal(31)
            ew = energy_norm(w, A)
            assert ew <= np.linalg.norm(w) * (1 + 1e-12)
            assert np.linalg.norm(w) <= root_kappa * ew * (1 + 1e-12)


class TestEnergyOperatorNorm:
    """The dense oracle's ``norm(L' K L'^{-1})``, the reference of every
    ``rho_star`` and coarse-deviation cross-check."""

    def test_identity_has_unit_norm(self, level31):
        assert oracle.energy_operator_norm(np.eye(31), level31.A) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.28271484375, 2.0 / 3.0])
    def test_scalar_multiple_of_identity(self, scale):
        # every singular value coincides
        A = build_multilevel(7, 2, problem="poisson2d")[0].A
        norm = oracle.energy_operator_norm(scale * np.eye(A.n), A)
        assert norm == pytest.approx(scale, rel=1e-12)

    def test_not_symmetric(self, level15):
        # the energy adjoint of K is A^{-1} K' A, not K'; an upper shift and
        # its transpose have different energy norms, each the square root of
        # the top eigenvalue of the pencil (K' A K, A)
        A = level15.A
        dense = oracle.dense(A)
        for K in (np.eye(15, k=1), np.eye(15, k=-1)):
            top = scipy.linalg.eigh(K.T @ dense @ K, dense, eigvals_only=True)[-1]
            assert oracle.energy_operator_norm(K, A) == pytest.approx(
                math.sqrt(top), rel=1e-10)

    def test_matches_vector_definition(self, level15):
        A = level15.A
        rng = np.random.default_rng(7)
        K = rng.standard_normal((15, 15))
        norm = oracle.energy_operator_norm(K, A)
        sup = 0.0
        for _ in range(200):
            w = rng.standard_normal(15)
            sup = max(sup, energy_norm(K @ w, A) / energy_norm(w, A))
        assert sup <= norm * (1 + 1e-10)
        assert sup >= 0.2 * norm  # random probing gets within a small factor


def _ends(c, k):
    lo, hi = symbol_ends(np.asarray(c, dtype=np.float64), k)
    assert lo <= hi
    return lo, hi


class TestEigenvalueBound:
    """Certified ends of extreme eigenvalues from the stencil symbol."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("c", [1.0, 2.0 / 3.0, -0.375])
    def test_multiple_of_identity(self, c, d):
        # every eigenvalue coincides, on a line and on a square grid
        stencil = np.zeros((2,) * d)
        stencil.flat[0] = c
        lo, hi = _ends(stencil, 40)
        assert lo <= c <= hi
        assert hi - lo <= 4 * EPS * abs(c)

    def test_indefinite_band(self):
        # a 2D nine-point stencil with both signs, the textbook kron(T, T) -
        # 3 I: the ends bracket its dense eigenvalues within a few units of
        # roundoff
        one_d = oracle.laplacian(1, 6)
        S = sparse.csr_array(sparse.kron(one_d, one_d) - 3.0 * sparse.eye_array(36))
        c = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert np.array_equal(_assemble(c, 6).toarray(), S.toarray())
        w = np.linalg.eigvalsh(S.toarray())
        lo, hi = _ends(c, 6)
        assert lo < 0 < hi
        assert w[0] - 1e-14 * np.abs(w).max() <= lo <= w[0]
        assert w[-1] <= hi <= w[-1] + 1e-14 * np.abs(w).max()

    def test_one_by_one(self):
        lo, hi = _ends([2.5, 0.0], 1)
        assert lo <= 2.5 <= hi and hi - lo <= 4 * EPS * 2.5

    def test_two_by_two(self):
        # [[2, 1], [1, 2]] has eigenvalues 1 and 3; the radii of the sines
        # and cosines dominate the width of the ends
        lo, hi = _ends([2.0, 1.0], 2)
        assert 1.0 - 1e-14 <= lo <= 1.0
        assert 3.0 <= hi <= 3.0 * (1 + 1e-14)

    @pytest.mark.parametrize("c", [0.5, 2.0 / 3.0, 1.28271484375])
    def test_pencil_of_a_scalar_diagonal(self, c):
        # S = c I commutes with A, so its energy norm, once the top of the
        # pencil (S A S, A), is c exactly
        A = build_multilevel(63, 2)[0].A
        assert make_richardson(A, c, CARRIER).eta == c

    def test_pencil_with_diagonal_b_is_the_scaled_matrix(self):
        # a stencil matrix has its centre c_0 on the whole diagonal, so the
        # Jacobi pencil is Richardson's at weight omega / c_0
        A = SparseSpd([2.5, -1.0], 15)
        assert np.array_equal(A.matrix.diagonal(), np.full(15, 2.5))
        jacobi = make_jacobi(A, 2.0 / 3.0, CARRIER)
        richardson = make_richardson(A, (2.0 / 3.0) / 2.5, CARRIER)
        assert (jacobi.w, jacobi.eta, jacobi.contraction) == (
            richardson.w, richardson.eta, richardson.contraction)

    def test_same_bits_on_every_call(self):
        A = poisson_2d(15)
        first = [x.hex() for x in A.spectrum_ends]
        again = [x.hex() for x in SparseSpd(A.stencil, A.k).spectrum_ends]
        assert first == again
