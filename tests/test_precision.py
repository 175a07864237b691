"""Kernel-level tests: bit-exact rounding and certified a-priori bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedmg import (
    CARRIER,
    CARRIER_BITS,
    PrecisionFormat,
    PrecisionTooLowError,
    abs_matrix_norm,
    build_multilevel,
    make_jacobi,
    mdot_plus_eps,
    quantize_vector,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
)
from mixedmg.hierarchy import linear_interpolation, poisson_1d
from mixedmg.precision import RowLayout, _round_array, column_norms, rounded_scale


def round_oracle(x: float, bits: int) -> float:
    """Independent round-to-nearest-even via exact rational arithmetic."""
    if x == 0.0:
        return 0.0
    f = Fraction(x)
    sign = 1 if f > 0 else -1
    f = abs(f)
    e = f.numerator.bit_length() - f.denominator.bit_length()
    while f >= Fraction(2) ** e:
        e += 1
    while f < Fraction(2) ** (e - 1):
        e -= 1
    q = f / Fraction(2) ** (e - bits)  # in [2**(bits-1), 2**bits)
    n, rem = divmod(q.numerator, q.denominator)
    frac = Fraction(rem, q.denominator)
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and n % 2 == 1):
        n += 1
    return float(sign * n * Fraction(2) ** (e - bits))


def rounds_in_range(x: float, bits: int) -> bool:
    """Whether ``x`` rounded to ``bits`` stays below ``2**1024``."""
    try:
        round_oracle(x, bits)
    except OverflowError:
        return False
    return True


# the whole finite range, subnormals included, at every reduced width
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
small_bits = st.integers(min_value=2, max_value=CARRIER_BITS - 1)


class TestPrecisionFormat:
    def test_unit_roundoff(self):
        assert PrecisionFormat(8).unit_roundoff == 2.0**-8
        assert PrecisionFormat(53).unit_roundoff == 2.0**-53

    @pytest.mark.parametrize("bits", [0, 1, 54, -3, 12.5, 12.0, "12", True])
    def test_rejects_bad_widths(self, bits):
        with pytest.raises(ValueError):
            PrecisionFormat(bits)

    def test_numpy_integer_width_is_stored_as_int(self):
        fmt = PrecisionFormat(np.int64(12))
        assert type(fmt.significand_bits) is int and fmt == PrecisionFormat(12)


class TestRoundScalar:
    def test_zero_is_exact(self):
        assert quantize_vector([0.0], PrecisionFormat(5)).value[0] == 0.0

    def test_below_half_ulp_rounds_down(self):
        # 2**-9 is below half the spacing 2**-8 at 1.0 for an 8-bit format
        assert quantize_vector([1.0 + 2.0**-9], PrecisionFormat(8)).value[0] == 1.0

    def test_above_half_ulp_rounds_up(self):
        expected = round_oracle(1.0 + 3 * 2.0**-9, 8)
        assert expected == 1.0 + 2.0**-7
        assert quantize_vector([1.0 + 3 * 2.0**-9], PrecisionFormat(8)).value[0] == expected

    def test_halfway_ties_to_even(self):
        fmt = PrecisionFormat(8)
        # 1 + 2**-8 is exactly between 1 and 1 + 2**-7; even mantissa wins
        assert quantize_vector([1.0 + 2.0**-8], fmt).value[0] == 1.0
        assert quantize_vector([1.0 + 3 * 2.0**-8], fmt).value[0] == 1.0 + 2.0**-6

    @given(x=finite_floats, bits=small_bits)
    @settings(max_examples=300)
    def test_matches_rational_oracle(self, x, bits):
        try:
            expected = round_oracle(x, bits)
        except OverflowError:
            with pytest.raises(OverflowError):
                quantize_vector([x], PrecisionFormat(bits))
            return
        assert quantize_vector([x], PrecisionFormat(bits)).value[0] == expected

    @given(x=finite_floats, bits=small_bits)
    def test_idempotent(self, x, bits):
        assume(rounds_in_range(x, bits))
        fmt = PrecisionFormat(bits)
        once = quantize_vector([x], fmt).value[0]
        assert quantize_vector([once], fmt).value[0] == once

    @given(x=finite_floats, y=finite_floats, bits=small_bits)
    def test_monotone(self, x, y, bits):
        assume(rounds_in_range(x, bits) and rounds_in_range(y, bits))
        fmt = PrecisionFormat(bits)
        lo, hi = min(x, y), max(x, y)
        assert quantize_vector([lo], fmt).value[0] <= quantize_vector([hi], fmt).value[0]

    @given(x=finite_floats, bits=small_bits)
    def test_relative_error_at_most_unit_roundoff(self, x, bits):
        assume(rounds_in_range(x, bits))
        fmt = PrecisionFormat(bits)
        assert abs(quantize_vector([x], fmt).value[0] - x) <= fmt.unit_roundoff * abs(x)

    def test_carrier_width_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100) * 10.0 ** rng.integers(-30, 30, size=100)
        assert np.array_equal(quantize_vector(x, CARRIER).value, x)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            quantize_vector([math.inf], PrecisionFormat(8))

    def test_carrier_overflow_signals_range_error(self):
        # rounding the largest double up at 2 bits crosses 2**1024
        with pytest.raises(OverflowError):
            quantize_vector([float(np.finfo(np.float64).max)], PrecisionFormat(2))


class TestQuantizeVector:
    def test_zero_vector(self):
        out = quantize_vector(np.zeros(7), PrecisionFormat(8))
        assert np.array_equal(out.value, np.zeros(7))
        assert out.a_priori_bound == 0.0

    def test_representable_vectors_are_fixed_points(self):
        fmt = PrecisionFormat(9)
        rng = np.random.default_rng(1)
        w = quantize_vector(rng.standard_normal(64), fmt).value
        out = quantize_vector(w, fmt)
        assert np.array_equal(out.value, w)
        assert out.a_priori_bound == fmt.unit_roundoff * np.linalg.norm(w)

    def test_error_within_bound_1000_draws(self):
        fmt = PrecisionFormat(8)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            w = rng.standard_normal(64)
            out = quantize_vector(w, fmt)
            assert np.linalg.norm(out.value - w) <= out.a_priori_bound
            assert np.linalg.norm(out.value - w) <= 2.0**-8 * np.linalg.norm(w)


class TestRoundedAddSub:
    def test_adding_zero_is_exact(self):
        fmt = PrecisionFormat(6)
        v = quantize_vector(np.linspace(-3, 5, 17), fmt).value
        out = rounded_add_sub(v, np.zeros(17), "+", fmt)
        assert np.array_equal(out.value, v)

    def test_self_subtraction_is_exact_zero(self):
        fmt = PrecisionFormat(6)
        v = quantize_vector(np.random.default_rng(3).standard_normal(33), fmt).value
        out = rounded_add_sub(v, v, "-", fmt)
        assert np.array_equal(out.value, np.zeros(33))
        assert out.a_priori_bound == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rounded_add_sub(np.ones(3), np.ones(4), "+", PrecisionFormat(8))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            rounded_add_sub(np.ones(3), np.ones(3), "*", PrecisionFormat(8))

    def test_error_within_bound_1000_draws(self):
        fmt = PrecisionFormat(10)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            v = quantize_vector(rng.standard_normal(32), fmt).value
            w = quantize_vector(rng.standard_normal(32), fmt).value
            out = rounded_add_sub(v, w, "-", fmt)
            exact = v - w
            assert np.linalg.norm(out.value - exact) <= out.a_priori_bound
            assert (np.linalg.norm(out.value - exact)
                    <= 2.0**-10 * np.linalg.norm(exact))


class TestRoundedResidual:
    def test_identity_rows_cancel(self):
        fmt = PrecisionFormat(8)
        w = quantize_vector(np.random.default_rng(5).standard_normal(16), fmt).value
        K = np.eye(16)
        out = rounded_residual(K, w, w, fmt, eta_abs=abs_matrix_norm(K))
        assert np.array_equal(out.value, np.zeros(16))

    def test_zero_inputs_zero_bound(self):
        fmt = PrecisionFormat(8)
        K = poisson_1d(7).matrix
        out = rounded_residual(K, np.zeros(7), np.zeros(7), fmt,
                               eta_abs=abs_matrix_norm(K))
        assert np.array_equal(out.value, np.zeros(7))
        assert out.a_priori_bound == 0.0

    def test_precision_too_low(self):
        # (m + 1) * u = 4 * 0.25 = 1 for the tridiagonal stencil at 2 bits
        K = poisson_1d(7).matrix
        with pytest.raises(PrecisionTooLowError):
            rounded_residual(K, np.ones(7), np.ones(7), PrecisionFormat(2),
                             eta_abs=abs_matrix_norm(K))

    def test_error_within_bound_1000_draws(self):
        fmt = PrecisionFormat(8)
        K = poisson_1d(24).matrix
        eta = abs_matrix_norm(K)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            w = quantize_vector(rng.standard_normal(24), fmt).value
            c = quantize_vector(rng.standard_normal(24), fmt).value
            out = rounded_residual(K, w, c, fmt, eta_abs=eta)
            exact = K @ w - c
            assert np.linalg.norm(out.value - exact) <= out.a_priori_bound


class TestRoundedMatvec:
    def test_identity_is_exact(self):
        fmt = PrecisionFormat(7)
        w = quantize_vector(np.random.default_rng(7).standard_normal(9), fmt).value
        K = np.eye(9)
        out = rounded_matvec(K, w, fmt, eta_abs=abs_matrix_norm(K))
        assert np.array_equal(out.value, w)

    def test_zero_vector(self):
        K = poisson_1d(5).matrix
        out = rounded_matvec(K, np.zeros(5), PrecisionFormat(8), eta_abs=abs_matrix_norm(K))
        assert np.array_equal(out.value, np.zeros(5))
        assert out.a_priori_bound == 0.0

    def test_interpolation_error_within_bound_1000_draws(self):
        fmt = PrecisionFormat(8)
        P = linear_interpolation(31)
        eta = abs_matrix_norm(P)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            wc = quantize_vector(rng.standard_normal(15), fmt).value
            out = rounded_matvec(P, wc, fmt, eta_abs=eta)
            exact = P @ wc
            assert np.linalg.norm(out.value - exact) <= out.a_priori_bound

    def test_restriction_error_within_bound(self):
        # 3 nonzeros per row of the transposed interpolation
        fmt = PrecisionFormat(8)
        Pt = linear_interpolation(31).T
        eta = abs_matrix_norm(Pt)
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = quantize_vector(rng.standard_normal(31), fmt).value
            out = rounded_matvec(Pt, w, fmt, eta_abs=eta)
            assert np.linalg.norm(out.value - Pt @ w) <= out.a_priori_bound


class TestOperatorDuckTyping:
    def test_kernels_accept_wrapped_matrices(self):
        # SparseSpd (and anything exposing .matrix) works directly
        fmt = PrecisionFormat(10)
        A = poisson_1d(9)
        w = quantize_vector(np.random.default_rng(12).standard_normal(9), fmt).value
        via_wrapper = rounded_matvec(A, w, fmt, eta_abs=abs_matrix_norm(A))
        via_csr = rounded_matvec(A.matrix, w, fmt, eta_abs=abs_matrix_norm(A.matrix))
        assert np.array_equal(via_wrapper.value, via_csr.value)
        assert via_wrapper.a_priori_bound == via_csr.a_priori_bound


class TestCarrierWidthExactness:
    def test_all_kernels_exact_at_carrier_width(self):
        rng = np.random.default_rng(10)
        K = poisson_1d(12).matrix
        eta = abs_matrix_norm(K)
        w = rng.standard_normal(12)
        c = rng.standard_normal(12)
        assert np.array_equal(quantize_vector(w, CARRIER).value, w)
        assert np.array_equal(
            rounded_add_sub(w, c, "+", CARRIER).value, w + c)
        # row-sequential accumulation in the carrier matches a plain
        # CSR matvec evaluated in the same order
        assert np.allclose(
            rounded_residual(K, w, c, CARRIER, eta_abs=eta).value, K @ w - c,
            rtol=0, atol=1e-15)
        assert np.allclose(
            rounded_matvec(K, w, CARRIER, eta_abs=eta).value, K @ w, rtol=0, atol=1e-15)

    def test_bits_above_25_still_certified(self):
        # double rounding through the carrier cannot occur for products and
        # sums of values that are representable at <= 25 bits; wider
        # formats stay inside the certified bounds regardless
        fmt = PrecisionFormat(40)
        rng = np.random.default_rng(11)
        K = poisson_1d(16).matrix
        eta = abs_matrix_norm(K)
        for _ in range(100):
            w = quantize_vector(rng.standard_normal(16), fmt).value
            c = quantize_vector(rng.standard_normal(16), fmt).value
            out = rounded_residual(K, w, c, fmt, eta_abs=eta)
            assert np.linalg.norm(out.value - (K @ w - c)) <= out.a_priori_bound


def _bits_of(x) -> np.ndarray:
    """The bit patterns of ``x``, so that ``-0.0`` and ``0.0`` differ."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _grid(bits: int, rng) -> np.ndarray:
    """Every binary exponent of the carrier, subnormals included, with random
    significands, the exact ties of ``bits`` and both zeros, in random order."""
    exponents = np.arange(-1074, 1024)
    random = 1.0 + rng.integers(0, 2**52, size=(exponents.size, 3)) / 2.0**52
    ties = 1.0 + (2 * rng.integers(0, 2 ** (bits - 1), size=(exponents.size, 1)) + 1) * 2.0**-bits
    values = np.ldexp(np.hstack([random, ties]), exponents[:, None]).ravel()
    values = np.concatenate([values, -values, [0.0, -0.0]])
    return rng.permutation(values)


def _row_reference(K: np.ndarray, W: np.ndarray, C, bits: int) -> np.ndarray:
    """``K @ W - C`` through ``frexp`` rounding over ``K``'s padded row
    layout: slot by slot, every product and partial sum rounded."""
    layout = RowLayout.of(K)
    with np.errstate(all="ignore"):
        acc = _round_array(layout.vals[0] * W[layout.cols[0]], bits)
        for vals, cols in zip(layout.vals[1:], layout.cols[1:]):
            acc = _round_array(acc + _round_array(vals * W[cols], bits), bits)
        return acc if C is None else _round_array(acc - C, bits)


def _no_fallback(*args):
    raise AssertionError("the kernel fell back to frexp rounding")


class TestRoundingGrid:
    """Every kernel against rounding through ``frexp``, bit for bit, at every
    width from 2 to 52 and every binary exponent of the carrier.  Inputs small
    enough that no splitting overflows must round without the fallback; the
    rest run the fallback, and raise where the rounded value overflows."""

    # rows of 1 to 4 stored nonzeros, some not powers of two, so that
    # products round too; the largest absolute row sum is 6.6
    K = np.array([[2.0, -1.0, 0.0, 0.0, 0.3],
                  [-1.0, 2.0, -1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.75, 0.0, 0.0],
                  [0.5, 0.0, -3.0, 2.0, -1.1],
                  [0.0, 0.0, 0.0, -1.0, 2.2]])

    @staticmethod
    def _check(kernel, expected, *inputs, columns=False):
        """``kernel(*inputs)`` bit for bit where ``expected`` is finite (per
        entry, or per column), ``OverflowError`` elsewhere."""
        finite = np.isfinite(expected)
        if columns:
            finite = finite.all(axis=0)

        def pick(keep):
            return [None if x is None else np.compress(keep, x, axis=-1) for x in inputs]
        value = kernel(*pick(finite)).value
        assert np.array_equal(_bits_of(value),
                              _bits_of(np.compress(finite, expected, axis=-1)))
        if not finite.all():
            with pytest.raises(OverflowError):
                kernel(*pick(~finite))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bits", range(2, CARRIER_BITS))
    def test_entrywise_kernels(self, bits, monkeypatch):
        fmt = PrecisionFormat(bits)
        rng = np.random.default_rng(bits)
        x = _grid(bits, rng)
        y = rng.permutation(x)
        s = float(_round_array(np.float64(2.0 / 3.0), bits))
        kernels = [
            (lambda v, w: quantize_vector(v, fmt), lambda v, w: v),
            (lambda v, w: rounded_add_sub(v, w, "+", fmt), np.add),
            (lambda v, w: rounded_add_sub(v, w, "-", fmt), np.subtract),
            (lambda v, w: rounded_scale(s, v, fmt, 1.0), lambda v, w: s * v),
        ]
        # c (v +- w) stays below 2**1024 for |v|, |w| < 2**(968 + bits)
        small = np.maximum(abs(x), abs(y)) < 2.0 ** (968 + bits)
        for part, fallback in ((small, False), (~small, True)):
            v, w = x[part], y[part]
            with monkeypatch.context() as patch:
                if not fallback:
                    patch.setattr("mixedmg.precision._frexp_round", _no_fallback)
                for kernel, exact in kernels:
                    with np.errstate(all="ignore"):
                        expected = _round_array(exact(v, w), bits)
                    assert fallback or np.isfinite(expected).all()
                    self._check(kernel, expected, v, w)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bits", range(3, CARRIER_BITS))
    def test_row_kernels(self, bits, monkeypatch):
        # from 3 bits, where (m + 1) u < 1 for the rows of 4 nonzeros
        fmt = PrecisionFormat(bits)
        rng = np.random.default_rng(100 + bits)
        x = _grid(bits, rng)
        W, C = x[: x.size - x.size % 10].reshape(2, 5, -1)
        # every product, partial sum and difference stays below 2**(964 + bits)
        small = (np.maximum(abs(W), abs(C)) < 2.0 ** (960 + bits)).all(axis=0)

        def kernel(w, c):
            if c is None:
                return rounded_matvec(self.K, w, fmt, eta_abs=4.0)
            return rounded_residual(self.K, w, c, fmt, eta_abs=4.0)
        for part, fallback in ((small, False), (~small, True)):
            with monkeypatch.context() as patch:
                if not fallback:
                    patch.setattr("mixedmg.precision._frexp_round", _no_fallback)
                for c in (None, C[:, part]):
                    expected = _row_reference(self.K, W[:, part], c, bits)
                    assert fallback or np.isfinite(expected).all()
                    self._check(kernel, expected, W[:, part], c, columns=True)


class TestSplittingFallback:
    """Values where Veltkamp splitting overflows: the kernel reruns with
    rounding through ``frexp``, and only a result beyond the carrier raises."""

    @pytest.mark.parametrize("bits", [2, 12, 52])
    def test_largest_value_of_the_format_is_a_fixed_point(self, bits):
        top = float(np.ldexp(2.0 - 2.0 ** (1 - bits), 1023))
        assert top * (2.0 ** (CARRIER_BITS - bits) + 1.0) == math.inf
        assert quantize_vector([top], PrecisionFormat(bits)).value[0] == top

    def test_quantize_where_splitting_overflows(self):
        fmt = PrecisionFormat(12)
        with np.errstate(over="ignore"):
            assert 1.7e308 * (2.0**41 + 1.0) == math.inf
        value = quantize_vector([1.7e308], fmt).value[0]
        assert math.isfinite(value) and value == round_oracle(1.7e308, 12)

    def test_matvec_with_products_near_2_to_1000(self):
        fmt = PrecisionFormat(2)
        K = np.array([[1.5, -1.25], [0.75, 1.0]])
        w = np.array([1.3 * 2.0**1000, 1.1 * 2.0**999])
        value = rounded_matvec(K, w, fmt, eta_abs=4.0).value
        expected = [round_oracle(round_oracle(a * w[0], 2) + round_oracle(b * w[1], 2), 2)
                    for a, b in K]
        assert np.all(np.isfinite(value)) and list(value) == expected

    @pytest.mark.parametrize("bits", [2, 12, 52])
    def test_largest_double_still_overflows(self, bits):
        with pytest.raises(OverflowError):
            quantize_vector([float(np.finfo(np.float64).max)], PrecisionFormat(bits))


class TestKernelsLeaveInputs:
    """Every kernel runs on read-only inputs, and a bound read after the
    kernel returns is the formula on the untouched inputs."""

    @pytest.mark.parametrize("T", [None, 5])
    def test_read_only_inputs(self, T):
        fmt = PrecisionFormat(12)
        u = fmt.unit_roundoff
        level = build_multilevel(31, 2)[0]
        S = make_jacobi(level.A, 2.0 / 3.0, fmt)
        for layout in (level.A.row_layout, level.P_layout, level.P_t_layout):
            assert not layout.vals.flags.writeable and not layout.cols.flags.writeable
        rng = np.random.default_rng(21)
        shape = lambda n: (n,) if T is None else (n, T)  # noqa: E731
        w, c = (quantize_vector(rng.standard_normal(shape(31)), fmt).value for _ in range(2))
        wc = quantize_vector(rng.standard_normal(shape(15)), fmt).value
        pristine = [x.copy() for x in (w, c, wc)]
        for x in (w, c, wc):
            x.flags.writeable = False

        def inflation(layout):
            return u * mdot_plus_eps(layout.m, u)
        cases = [
            (quantize_vector(w, fmt), u * column_norms(w)),
            (rounded_add_sub(w, c, "-", fmt), u * column_norms(w - c)),
            (rounded_scale(S.w, w, fmt, S.alpha), S.alpha * u * column_norms(w)),
            (S.apply_rounded(w, fmt), S.alpha * u * column_norms(w)),
            (rounded_residual(level.A, w, c, fmt, eta_abs=level.eta_A),
             inflation(level.A.row_layout)
             * (column_norms(c) + level.eta_A * column_norms(w))),
            (rounded_matvec(level.P_t_layout, w, fmt, eta_abs=level.eta_P),
             inflation(level.P_t_layout) * (level.eta_P * column_norms(w))),
            (rounded_matvec(level.P_layout, wc, fmt, eta_abs=level.eta_P),
             inflation(level.P_layout) * (level.eta_P * column_norms(wc))),
        ]
        for x, before in zip((w, c, wc), pristine):
            assert np.array_equal(_bits_of(x), _bits_of(before))
        for result, bound in cases:
            assert np.shape(result.a_priori_bound) == np.shape(bound)
            assert np.array_equal(result.a_priori_bound, bound)
