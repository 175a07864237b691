"""Blocks of right-hand sides: an (n, T) call equals T one-column calls bit for bit,
also when each column has a format of its own."""

import numpy as np
import pytest

import dense_oracle as oracle
from mixedmg import (
    CARRIER,
    PrecisionFormat,
    PrecisionTooLowError,
    build_multilevel,
    energy_norm,
    make_exact_coarse,
    make_jacobi,
    make_perturbed_coarse,
    make_recursive_coarse,
    quantize_vector,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
    solve_spd,
    tg_cycle,
    v_cycle,
)
from mixedmg.bounds import KERNEL_BOUNDS
from mixedmg.precision import Rounding, RowLayout, column_norms, rounded_scale

FMT = PrecisionFormat(10)
T = 6
BIG = float(np.finfo(np.float64).max)


def _block(rng, n, fmt=FMT):
    # columns of very different scales, representable in fmt
    return quantize_vector(rng.standard_normal((n, T)) * np.logspace(-3, 3, T), fmt).value


def _assert_columns_match(call, *blocks):
    """``call(*blocks)`` against ``call`` on each column alone.

    ``call`` returns ``(value, bound)``, a kernel's value and its table
    bound on the same inputs; the bound of the block call is an array with
    one entry per column and that of a single call is a float.
    """
    value, bound = call(*blocks)
    assert value.shape[1] == T
    assert np.shape(bound) == (T,)
    for t in range(T):
        v_t, b_t = call(*(np.array(b[:, t]) for b in blocks))
        assert v_t.ndim == 1 and isinstance(b_t, float)
        assert np.array_equal(value[:, t], v_t)
        assert bound[t] == b_t


def _bound(op, *inputs, **params):
    """``KERNEL_BOUNDS[op]`` in ``FMT`` on the Euclidean norms of ``inputs``."""
    return KERNEL_BOUNDS[op](FMT.unit_roundoff, *map(column_norms, inputs), **params)


@pytest.fixture(scope="module")
def jacobi31(level31):
    return make_jacobi(level31.A, 2.0 / 3.0, FMT)


class TestKernels:
    def test_quantize(self):
        W = np.random.default_rng(0).standard_normal((40, T)) * 1e5
        call = lambda w: (quantize_vector(w, FMT).value, _bound("quantize", w))  # noqa: E731
        _assert_columns_match(call, W)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_add_sub(self, sign):
        rng = np.random.default_rng(1)
        V, W = _block(rng, 40), _block(rng, 40)
        exact = {"+": np.add, "-": np.subtract}[sign]
        call = lambda v, w: (rounded_add_sub(v, w, sign, FMT).value,  # noqa: E731
                             _bound("subtract", exact(v, w)))
        _assert_columns_match(call, V, W)

    @pytest.mark.parametrize("which", ["P", "P_t"])
    def test_matvec(self, level31, which):
        K = level31.P if which == "P" else level31.P_t
        W = _block(np.random.default_rng(2), K.shape[1])
        op = "prolong" if which == "P" else "restrict"
        params = dict(m=RowLayout.of(K).m, eta=level31.eta_P)
        call = lambda w: (rounded_matvec(K, w, FMT).value,  # noqa: E731
                          _bound(op, w, **params))
        _assert_columns_match(call, W)

    def test_residual(self, level31):
        rng = np.random.default_rng(3)
        W, C = _block(rng, 31), _block(rng, 31)
        params = dict(m=level31.A.row_layout.m, eta=level31.eta_A)
        call = lambda w, c: (rounded_residual(level31.A, w, c, FMT).value,  # noqa: E731
                             _bound("residual", w, c, **params))
        _assert_columns_match(call, W, C)

    def test_relaxation(self, jacobi31):
        W = _block(np.random.default_rng(4), 31)
        call = lambda z: (rounded_scale(jacobi31.w, z, jacobi31.fmt).value,  # noqa: E731
                          _bound("relax", z, alpha=jacobi31.alpha))
        _assert_columns_match(call, W)

    def test_cached_layout_matches_fresh_one(self, level31):
        assert level31.A.row_layout is level31.A.row_layout
        assert level31.P_layout is level31.P_layout
        W = _block(np.random.default_rng(5), 15)
        cached = rounded_matvec(level31.P_layout, W, FMT)
        fresh = rounded_matvec(level31.P, W, FMT)
        assert np.array_equal(cached.value, fresh.value)
        assert np.array_equal(
            _bound("prolong", W, m=level31.P_layout.m, eta=level31.eta_P),
            _bound("prolong", W, m=RowLayout.of(level31.P).m, eta=level31.eta_P))
        assert RowLayout.of(level31.A) is level31.A.row_layout

    def test_column_norms(self):
        W = np.random.default_rng(6).standard_normal((50, T))
        norms = column_norms(W)
        for t in range(T):
            assert norms[t] == np.linalg.norm(np.array(W[:, t]))
        assert isinstance(column_norms(W[:, 0]), float)


#: One format per column of a mixed block, some widths repeated.
MIXED = [PrecisionFormat(bits) for bits in (5, 8, 12, 23, 52, 8, 5)]


class _NoFallback(Rounding):
    """A rounding whose fallback fails the test."""

    def fallback(self, *args):
        raise AssertionError("the kernel fell back to frexp rounding")


def _mixed_kernels(level, rounding=lambda fmt: fmt):
    """Every kernel as ``call(w, c, fmt)`` on ``level``'s operators, given
    ``rounding(fmt)`` as its format: the relaxation takes the ``w`` of a
    Jacobi smoother built for each format."""
    w = {f: make_jacobi(level.A, 2.0 / 3.0, f).w for f in set(MIXED)}
    return {
        "quantize": lambda v, c, fmt: quantize_vector(v, rounding(fmt)),
        "add": lambda v, c, fmt: rounded_add_sub(v, c, "+", rounding(fmt)),
        "subtract": lambda v, c, fmt: rounded_add_sub(v, c, "-", rounding(fmt)),
        "scale": lambda v, c, fmt: rounded_scale(
            w[fmt] if isinstance(fmt, PrecisionFormat) else [w[f] for f in fmt], v,
            rounding(fmt)),
        "residual": lambda v, c, fmt: rounded_residual(level.A, v, c, rounding(fmt)),
        "matvec": lambda v, c, fmt: rounded_matvec(level.P_t_layout, v, rounding(fmt)),
    }


def _assert_each_column_in_its_format(call, V, C, formats=MIXED):
    """``call(V, C, formats)`` against each column's one-format call, bit for bit."""
    value = call(V, C, formats).value
    assert value.shape[1] == len(formats)
    for t, fmt in enumerate(formats):
        alone = call(np.array(V[:, t]), np.array(C[:, t]), fmt).value
        assert alone.ndim == 1
        assert value[:, t].tobytes() == alone.tobytes(), (t, fmt)


class TestMixedFormats:
    """A block whose columns have formats of their own: the Veltkamp
    constant, the fallback's widths and the relaxation's scale are rows over
    the columns, and each column gets the bits of its own one-format call."""

    @pytest.mark.parametrize("problem", ["poisson1d", "poisson2d"])
    @pytest.mark.parametrize("kernel", ["quantize", "add", "subtract", "scale",
                                        "residual", "matvec"])
    def test_each_column_rounds_in_its_own_format(self, problem, kernel):
        level = build_multilevel(15, 2, problem=problem)[0]
        rng = np.random.default_rng(20)
        scales = np.logspace(-4, 4, len(MIXED))
        V, C = rng.standard_normal((2, level.n, len(MIXED))) * scales
        _assert_each_column_in_its_format(_mixed_kernels(level)[kernel], V, C)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kernel", ["quantize", "add", "subtract", "scale",
                                        "residual", "matvec"])
    def test_one_column_overflows_its_splitting(self, level31, kernel):
        # c = 2**48 + 1 at 5 bits: c x overflows in column 0 alone, whose own
        # call reruns through frexp; every other column alone splits without
        # the fallback, and in the block the rerun gives it the same bits
        fallbacks = []

        class Counted(Rounding):
            def fallback(self, *args):
                fallbacks.append(1)
                return super().fallback(*args)

        call = _mixed_kernels(level31, Counted)[kernel]
        rng = np.random.default_rng(21)
        V, C = rng.standard_normal((2, 31, len(MIXED)))
        V[:, 0] *= 2.0 ** 990
        C[:, 0] *= 2.0 ** 990
        assert MIXED[0].significand_bits == 5 and MIXED[-1].significand_bits == 5
        _assert_each_column_in_its_format(call, V, C)
        assert fallbacks
        call = _mixed_kernels(level31, _NoFallback)[kernel]
        with pytest.raises(AssertionError, match="fell back"):
            call(np.array(V[:, 0]), np.array(C[:, 0]), MIXED[0])
        for t in range(1, len(MIXED)):
            call(np.array(V[:, t]), np.array(C[:, t]), MIXED[t])
        call(np.array(V[:, 1:]), np.array(C[:, 1:]), MIXED[1:])

    @pytest.mark.parametrize("coarsest", [0, 2, 4])
    def test_row_kernel_checks_the_largest_roundoff(self, level31, coarsest):
        # the rows of P' hold m = 3 entries: (3 + 1) 2^-2 >= 1 at 2 bits, in
        # whichever column the 2-bit format sits; the other widths pass
        formats = [PrecisionFormat(b) for b in (52, 23, 12, 8, 3)]
        W = np.random.default_rng(22).standard_normal((31, len(formats)))
        assert rounded_matvec(level31.P_t_layout, W, formats).value.shape == (15, 5)
        formats[coarsest] = PrecisionFormat(2)
        for kernel in (lambda w: rounded_matvec(level31.P_t_layout, w, formats),
                       lambda w: rounded_residual(level31.A, w, w, formats)):
            with pytest.raises(PrecisionTooLowError, match=r"^\(m \+ 1\) \* u = 1\.0 >= 1"):
                kernel(W)

    def test_formats_must_match_the_columns(self, level31):
        W = np.random.default_rng(23).standard_normal((31, 3))
        with pytest.raises(ValueError, match="one per column"):
            quantize_vector(W, MIXED[:2])
        with pytest.raises(ValueError, match="one per column"):
            rounded_matvec(level31.P_t_layout, W, MIXED[:4])
        with pytest.raises(ValueError, match="one per column"):
            rounded_scale([0.5, 0.25], W, MIXED[:3])
        with pytest.raises(ValueError, match="one per column"):
            quantize_vector(W[:, 0], MIXED[:2])
        # no format at all is named as such, by the kernels and by a rounding
        for make in (lambda: quantize_vector(W, []),
                     lambda: rounded_residual(level31.A, W, W, ()),
                     lambda: Rounding([])):
            with pytest.raises(ValueError, match="one per column of a block, got 0"):
                make()
        # one format in a sequence is the one format
        assert np.array_equal(quantize_vector(W, MIXED[:1]).value,
                              quantize_vector(W, MIXED[0]).value)

    def test_relaxation_block_of_one_format_is_its_row(self, jacobi31):
        # one smoother's relaxation is the scale row of one entry
        Z = _block(np.random.default_rng(24), 31)
        assert np.array_equal(rounded_scale(jacobi31.w, Z, jacobi31.fmt).value,
                              rounded_scale([jacobi31.w] * T, Z, [FMT] * T).value)


def _assert_solve_columns_match(matrices, seed):
    rng = np.random.default_rng(seed)
    for A in matrices:
        for width in (1, 7, 50, 64):
            B = rng.standard_normal((A.n, width))
            X = solve_spd(A, B)
            for t in range(width):
                assert np.array_equal(X[:, t], solve_spd(A, np.array(B[:, t])))


class TestCarrierOperations:
    def test_solve_spd(self):
        # the transforms run several columns side by side; each column of a
        # block of any width gets the bits it gets alone
        _assert_solve_columns_match((oracle.poisson_1d(255), oracle.poisson_2d(31)), seed=7)

    def test_solve_spd_large_factor(self):
        # the same at the large orders, where a multi-column solve is most
        # likely to round some column differently from the one-column solve
        _assert_solve_columns_match((oracle.poisson_1d(8191), oracle.poisson_2d(63)),
                                    seed=8)

    @pytest.mark.parametrize("problem", ["poisson1d", "poisson2d"])
    def test_kernels_at_carrier_are_plain_float64(self, problem):
        # the exact cycle runs these plain operations in place of the kernels
        lvl = build_multilevel(15, 2, problem=problem)[0]
        rng = np.random.default_rng(15)
        Y, C = rng.standard_normal((2, lvl.n, T))
        Z = rng.standard_normal((lvl.n_c, T))
        M = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        pairs = [
            (quantize_vector(Y, CARRIER).value, Y),
            (rounded_residual(lvl.A, Y, C, CARRIER).value,
             lvl.A.matrix @ Y - C),
            (rounded_matvec(lvl.P_t_layout, Y, CARRIER).value, lvl.P_t @ Y),
            (rounded_matvec(lvl.P_layout, Z, CARRIER).value, lvl.P @ Z),
            (rounded_add_sub(Y, C, "-", CARRIER).value, Y - C),
            (rounded_scale(M.w, Y, CARRIER).value, M.w * Y),
        ]
        for kernel, plain in pairs:
            assert kernel.shape == plain.shape
            assert kernel.tobytes() == plain.tobytes()

    def test_energy_norm(self, level31):
        W = np.random.default_rng(8).standard_normal((31, T))
        norms = energy_norm(W, level31.A)
        assert norms.shape == (T,)
        for t in range(T):
            assert norms[t] == energy_norm(np.array(W[:, t]), level31.A)


def _coarse_variants(levels31_3, jacobi_smoothers):
    lvl = levels31_3[0]
    return {
        "exact": make_exact_coarse(lvl),
        "perturbed": make_perturbed_coarse(lvl, 0.4, seed=3),
        "recursive": make_recursive_coarse(levels31_3, 1, 1,
                                           jacobi_smoothers(levels31_3[1:])),
    }


def _assert_apply_columns_match(coarse, R):
    Y = coarse.apply(R)
    assert Y.shape == R.shape and Y.flags.c_contiguous
    for t in range(R.shape[1]):
        assert np.array_equal(Y[:, t], coarse.apply(np.array(R[:, t]))), t


class TestCycles:
    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_tg_cycle(self, levels31_3, jacobi_smoothers, variant):
        lvl = levels31_3[0]
        coarse = _coarse_variants(levels31_3, jacobi_smoothers)[variant]
        S = make_jacobi(lvl.A, 2.0 / 3.0, FMT)
        R = np.random.default_rng(9).standard_normal((31, T))
        Y, trace = tg_cycle(R, S, coarse)
        for t in range(T):
            y, single = tg_cycle(np.array(R[:, t]), S, coarse)
            assert np.array_equal(Y[:, t], y)
            assert np.array_equal(trace.y_reference[:, t], single.y_reference)
            for name, norms in trace.line_norms.items():
                assert norms[t] == single.line_norms[name], name

    @pytest.mark.parametrize("fmt", [FMT, CARRIER])
    def test_v_cycle(self, levels31_3, jacobi_smoothers, fmt):
        smoothers = jacobi_smoothers(levels31_3, fmt)
        R = np.random.default_rng(10).standard_normal((31, T))
        Y = v_cycle(levels31_3, 2, 1, R, smoothers=smoothers)
        for t in range(T):
            assert np.array_equal(Y[:, t], v_cycle(levels31_3, 2, 1, np.array(R[:, t]),
                                                   smoothers=smoothers))

    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_solve_matrix_columns_are_unit_vector_solves(self, levels31_3, jacobi_smoothers,
                                                         variant):
        # the identity block, as the dense oracle applies it
        lvl = levels31_3[0]
        coarse = _coarse_variants(levels31_3, jacobi_smoothers)[variant]
        W = oracle.solve_matrix(coarse)
        assert W.flags.c_contiguous
        for i in (0, 7, lvl.n_c - 1):
            e = np.zeros(lvl.n_c)
            e[i] = 1.0
            assert np.array_equal(W[:, i], coarse.apply(e))

    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_coarse_apply_gives_each_column_its_bits(self, levels31_3, jacobi_smoothers,
                                                     variant):
        coarse = _coarse_variants(levels31_3, jacobi_smoothers)[variant]
        R = np.random.default_rng(15).standard_normal((levels31_3[0].n_c, 64))
        _assert_apply_columns_match(coarse, R)

    @pytest.mark.parametrize("problem, size", [("poisson1d", 255), ("poisson1d", 16383),
                                               ("poisson2d", 31), ("poisson2d", 127)])
    def test_sine_transform_gives_each_column_its_bits(self, problem, size):
        # the perturbed solve's sine transforms on 64 columns, on 1D coarse
        # grids of 127 and 8191 points and 2D ones of 15 and 63 per axis
        level = build_multilevel(size, 2, problem=problem)[0]
        coarse = make_perturbed_coarse(level, 0.4, seed=3)
        R = np.random.default_rng(16).standard_normal((level.n_c, 64))
        _assert_apply_columns_match(coarse, R)

    def test_two_level_v_cycle_block_matches_tg_cycle(self, level31, jacobi31):
        R = np.random.default_rng(11).standard_normal((31, T))
        y_tg, _ = tg_cycle(R, jacobi31, make_exact_coarse(level31))
        y_v = v_cycle([level31], 1, 1, R, smoothers=[jacobi31])
        assert np.array_equal(y_tg, y_v)


def _poison(block, value, column=3):
    out = np.array(block)
    out[5, column] = value
    return out


class TestFailuresInOneColumn:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_raises(self, level31, jacobi31, jacobi_smoothers, bad):
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
            rounded_scale(jacobi31.w, X, FMT)
        with pytest.raises(ValueError):
            solve_spd(level31.A, X)
        with pytest.raises(ValueError):
            tg_cycle(X, jacobi31, make_exact_coarse(level31))
        with pytest.raises(ValueError):
            tg_cycle(X, jacobi_smoothers([level31])[0], make_exact_coarse(level31))
        with pytest.raises(ValueError):
            v_cycle([level31], 1, 1, X, smoothers=jacobi_smoothers([level31]))

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
            rounded_scale(M.w, _poison(quantize_vector(W, fmt12).value, BIG), M.fmt)

    def test_mismatched_blocks_rejected(self, level31):
        W = _block(np.random.default_rng(14), 31)
        with pytest.raises(ValueError):
            rounded_add_sub(W, W[:, :2], "+", FMT)
        with pytest.raises(ValueError):
            rounded_residual(level31.A, W, W[:, 0], FMT)
        with pytest.raises(ValueError):
            quantize_vector(W[None], FMT)
