"""Kernel-level tests: bit-exact rounding and certified a-priori bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedmg import (
    CARRIER,
    CARRIER_BITS,
    PrecisionFormat,
    PrecisionTooLowError,
    abs_matrix_norm,
    quantize_vector,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
)
from mixedmg.hierarchy import linear_interpolation, poisson_1d


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


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=False,
    min_value=-1e100, max_value=1e100,
)
small_bits = st.integers(min_value=2, max_value=24)


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
        assert quantize_vector([x], PrecisionFormat(bits)).value[0] == round_oracle(x, bits)

    @given(x=finite_floats, bits=small_bits)
    def test_idempotent(self, x, bits):
        fmt = PrecisionFormat(bits)
        once = quantize_vector([x], fmt).value[0]
        assert quantize_vector([once], fmt).value[0] == once

    @given(x=finite_floats, y=finite_floats, bits=small_bits)
    def test_monotone(self, x, y, bits):
        fmt = PrecisionFormat(bits)
        lo, hi = min(x, y), max(x, y)
        assert quantize_vector([lo], fmt).value[0] <= quantize_vector([hi], fmt).value[0]

    @given(x=finite_floats, bits=small_bits)
    def test_relative_error_at_most_unit_roundoff(self, x, bits):
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
