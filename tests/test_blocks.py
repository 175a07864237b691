"""Blocks of right-hand sides: an (n, T) call equals T one-column calls bit for bit."""

import numpy as np
import pytest

from mixedmg import (
    CARRIER,
    PrecisionFormat,
    energy_norm,
    make_exact_coarse,
    make_jacobi,
    make_perturbed_coarse,
    make_recursive_coarse,
    quantize_vector,
    round_vector,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
    solve_spd,
    tg_cycle,
    v_cycle,
)
from mixedmg.hierarchy import coarsest_level, poisson_2d
from mixedmg.precision import RowLayout, column_norms

FMT = PrecisionFormat(10)
T = 6
BIG = float(np.finfo(np.float64).max)


def _block(rng, n, fmt=FMT):
    # columns of very different scales, representable in fmt
    return round_vector(rng.standard_normal((n, T)) * np.logspace(-3, 3, T), fmt)


def _assert_columns_match(call, *blocks):
    """``call(*blocks)`` against ``call`` on each column alone.

    ``call`` returns ``(value, bound)``; the bound of the block call is an
    array with one entry per column and that of a single call is a float.
    """
    value, bound = call(*blocks)
    assert value.shape[1] == T
    assert np.shape(bound) == (T,)
    for t in range(T):
        v_t, b_t = call(*(np.array(b[:, t]) for b in blocks))
        assert v_t.ndim == 1 and isinstance(b_t, float)
        assert np.array_equal(value[:, t], v_t)
        assert bound[t] == b_t


def _pair(result):
    return result.value, result.a_priori_bound


@pytest.fixture(scope="module")
def jacobi31(level31):
    return make_jacobi(level31.A, 2.0 / 3.0, FMT)


class TestKernels:
    def test_quantize(self):
        W = np.random.default_rng(0).standard_normal((40, T)) * 1e5
        call = lambda w: _pair(quantize_vector(w, FMT))  # noqa: E731
        _assert_columns_match(call, W)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_add_sub(self, sign):
        rng = np.random.default_rng(1)
        V, W = _block(rng, 40), _block(rng, 40)
        call = lambda v, w: _pair(rounded_add_sub(v, w, sign, FMT))  # noqa: E731
        _assert_columns_match(call, V, W)

    @pytest.mark.parametrize("which", ["P", "P_t"])
    def test_matvec(self, level31, which):
        K = level31.P if which == "P" else level31.P_t
        W = _block(np.random.default_rng(2), K.shape[1])
        eta = level31.p_constants.eta_abs
        call = lambda w: _pair(rounded_matvec(K, w, FMT, eta_abs=eta))  # noqa: E731
        _assert_columns_match(call, W)

    def test_residual(self, level31):
        rng = np.random.default_rng(3)
        W, C = _block(rng, 31), _block(rng, 31)
        call = lambda w, c: _pair(rounded_residual(level31.A, w, c, FMT))  # noqa: E731
        _assert_columns_match(call, W, C)

    def test_relaxation(self, jacobi31):
        W = _block(np.random.default_rng(4), 31)
        call = lambda z: jacobi31.apply_rounded(z, FMT)  # noqa: E731
        _assert_columns_match(call, W)
        exact = jacobi31.apply_exact(W)
        for t in range(T):
            assert np.array_equal(exact[:, t], jacobi31.apply_exact(np.array(W[:, t])))

    def test_cached_layout_matches_fresh_one(self, level31):
        assert level31.A.row_layout is level31.A.row_layout
        assert level31.P_layout is level31.P_layout
        W = _block(np.random.default_rng(5), 15)
        cached = rounded_matvec(level31.P_layout, W, FMT)
        fresh = rounded_matvec(level31.P, W, FMT)
        assert np.array_equal(cached.value, fresh.value)
        assert np.array_equal(cached.a_priori_bound, fresh.a_priori_bound)
        assert RowLayout.of(level31.A) is level31.A.row_layout

    def test_column_norms(self):
        W = np.random.default_rng(6).standard_normal((50, T))
        norms = column_norms(W)
        for t in range(T):
            assert norms[t] == np.linalg.norm(np.array(W[:, t]))
        assert isinstance(column_norms(W[:, 0]), float)


class TestCarrierOperations:
    def test_solve_spd(self, level31):
        B = np.random.default_rng(7).standard_normal((31, T))
        X = solve_spd(level31.A, B)
        for t in range(T):
            assert np.array_equal(X[:, t], solve_spd(level31.A, np.array(B[:, t])))

    def test_solve_spd_large_factor(self):
        # at this order a multi-column LAPACK solve rounds some columns
        # differently from the one-column solve
        A = poisson_2d(31)
        B = np.random.default_rng(7).standard_normal((A.n, 32))
        X = solve_spd(A, B)
        for t in range(32):
            assert np.array_equal(X[:, t], solve_spd(A, np.array(B[:, t])))

    def test_energy_norm(self, level31):
        W = np.random.default_rng(8).standard_normal((31, T))
        norms = energy_norm(W, level31.A)
        assert norms.shape == (T,)
        for t in range(T):
            assert norms[t] == energy_norm(np.array(W[:, t]), level31.A)


def _coarse_variants(levels31_3):
    lvl = levels31_3[0]
    return {
        "exact": make_exact_coarse(),
        "perturbed": make_perturbed_coarse(lvl, 0.4, seed=3),
        "recursive": make_recursive_coarse(levels31_3, 1, 1),
    }


class TestCycles:
    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_tg_cycle(self, levels31_3, variant):
        lvl = levels31_3[0]
        coarse = _coarse_variants(levels31_3)[variant]
        M = make_jacobi(lvl.A, 2.0 / 3.0, FMT)
        R = np.random.default_rng(9).standard_normal((31, T))
        Y, trace = tg_cycle(lvl, R, M, M, coarse, FMT)
        for t in range(T):
            y, single = tg_cycle(lvl, np.array(R[:, t]), M, M, coarse, FMT)
            assert np.array_equal(Y[:, t], y)
            assert np.array_equal(trace.y_reference[:, t], single.y_reference)
            assert trace.delta_y_energy[t] == single.delta_y_energy
            for name, norms in trace.line_norms.items():
                assert norms[t] == single.line_norms[name], name

    @pytest.mark.parametrize("fmt", [FMT, CARRIER])
    def test_v_cycle(self, levels31_3, fmt):
        R = np.random.default_rng(10).standard_normal((31, T))
        Y = v_cycle(levels31_3, 2, 1, R, fmt)
        for t in range(T):
            assert np.array_equal(Y[:, t], v_cycle(levels31_3, 2, 1, np.array(R[:, t]), fmt))

    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_solve_matrix_columns_are_unit_vector_solves(self, levels31_3, variant):
        lvl = levels31_3[0]
        coarse = _coarse_variants(levels31_3)[variant]
        W = coarse.solve_matrix(lvl)
        assert W.flags.c_contiguous
        for i in (0, 7, lvl.n_c - 1):
            e = np.zeros(lvl.n_c)
            e[i] = 1.0
            assert np.array_equal(W[:, i], coarse.apply(lvl, e))

    def test_two_level_v_cycle_block_matches_tg_cycle(self, level31, jacobi31):
        levels = [level31, coarsest_level(level31.A_c)]
        R = np.random.default_rng(11).standard_normal((31, T))
        y_tg, _ = tg_cycle(level31, R, jacobi31, jacobi31, make_exact_coarse(), FMT)
        y_v = v_cycle(levels, 1, 1, R, FMT, smoothers=[(jacobi31, jacobi31)])
        assert np.array_equal(y_tg, y_v)


def _poison(block, value, column=3):
    out = np.array(block)
    out[5, column] = value
    return out


class TestFailuresInOneColumn:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_raises(self, level31, jacobi31, bad):
        W = _block(np.random.default_rng(12), 31)
        X = _poison(W, bad)
        with pytest.raises(ValueError):
            quantize_vector(X, FMT)
        with pytest.raises(ValueError):
            rounded_add_sub(W, X, "+", FMT)
        with pytest.raises(ValueError):
            rounded_add_sub(X, W, "-", FMT)
        with pytest.raises(ValueError):
            rounded_residual(level31.A, X, W, FMT)
        with pytest.raises(ValueError):
            rounded_residual(level31.A, W, X, FMT)
        with pytest.raises(ValueError):
            rounded_matvec(level31.P_t_layout, X, FMT)
        with pytest.raises(ValueError):
            jacobi31.apply_rounded(X, FMT)
        with pytest.raises(ValueError):
            solve_spd(level31.A, X)
        with pytest.raises(ValueError):
            tg_cycle(level31, X, jacobi31, jacobi31, make_exact_coarse(), FMT)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_raises(self, level31):
        fmt = PrecisionFormat(2)
        W = _block(np.random.default_rng(13), 31, fmt)
        with pytest.raises(OverflowError):
            quantize_vector(_poison(W, BIG), fmt)
        with pytest.raises(OverflowError):
            rounded_add_sub(_poison(W, BIG), _poison(W, BIG), "+", fmt)
        K = np.diag(np.full(31, 4.0))
        with pytest.raises(OverflowError):
            rounded_matvec(K, _poison(W, BIG), fmt)
        with pytest.raises(OverflowError):
            rounded_residual(K, _poison(W, BIG), W, fmt)
        fmt12 = PrecisionFormat(12)
        M = make_jacobi(level31.A, 2.0 / 3.0, fmt12)
        # the Jacobi diagonal of the unit-norm matrix exceeds one
        with pytest.raises(OverflowError):
            M.apply_rounded(_poison(round_vector(W, fmt12), BIG), fmt12)

    def test_mismatched_blocks_rejected(self, level31):
        W = _block(np.random.default_rng(14), 31)
        with pytest.raises(ValueError):
            rounded_add_sub(W, W[:, :2], "+", FMT)
        with pytest.raises(ValueError):
            rounded_residual(level31.A, W, W[:, 0], FMT)
        with pytest.raises(ValueError):
            quantize_vector(W[None], FMT)
