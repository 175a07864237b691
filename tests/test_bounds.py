"""Constants engine: dual-evaluation oracle, monotonicity, per-line catalog."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import sqrt as msqrt

from mixedmg import (
    CARRIER_BITS,
    BoundInputs,
    PROOF_LINES,
    PrecisionFormat,
    PrecisionTooLowError,
    PrecisionUnachievableError,
    compute_constants,
    gamma_constants,
    per_line_bounds,
    progressive_epsilon,
)


def constants_oracle(p: BoundInputs):
    """Second, independently written evaluation of the six constants.

    Uses 60-digit arithmetic and different association than the library
    path, so a transcription slip in either copy shows up as disagreement.
    """
    with mp.workdps(60):
        e = mpf(p.eps)
        s = msqrt(mpf(p.kappa))
        sc = msqrt(mpf(p.kappa_c))
        hA, hP = mpf(p.eta_A), mpf(p.eta_P)
        hM, hN = mpf(p.eta_M), mpf(p.eta_N)
        aM = mpf(p.alpha_M)
        mA, mP = mpf(p.mdot_A), mpf(p.mdot_P)

        relax = hM + aM * (1 + e)
        c0 = e + e * mA * (1 + hA * hM) + e * e * mA + e * hA * relax \
            + e * e * mA * hA * relax
        c1 = sc * hP * (c0 + e * mP + e * mP * hA * hM + e * mP * c0)
        c2 = 2 * (sc * e * mP * hP + sc * e * mP * hP * c1 + c1)
        c3 = c2 + 2 * e * s + e * s * c2 + e * relax + e * e * relax
        c4 = hA * c3 + e * mA * s * (2 * hA + hA * c3 + 1) + e * e * mA
        c5 = s * e * (2 + c3 + hN * c4 + e + e * s * c4)
        return [float(v) for v in (c0, c1, c2, c3, c4, c5)]


def identity_like_inputs(eps):
    return BoundInputs(
        eps=eps, kappa=1.0, kappa_c=1.0,
        eta_A=1.0, eta_P=1.0, eta_M=1.0, eta_N=1.0,
        m_A=1, m_P=1, alpha_M=1.0, alpha_N=1.0,
    )


def random_inputs(rng):
    eps = 2.0 ** -float(rng.uniform(6, 40))
    m_A = int(rng.integers(1, 9))
    m_P = int(rng.integers(1, 9))
    kappa = float(rng.uniform(1.0, 1e4))
    return BoundInputs(
        eps=eps,
        kappa=kappa,
        kappa_c=float(rng.uniform(1.0, kappa)),
        eta_A=float(rng.uniform(0.5, 4.0)),
        eta_P=float(rng.uniform(0.5, 4.0)),
        eta_M=float(rng.uniform(0.1, 3.0)),
        eta_N=float(rng.uniform(0.1, 3.0)),
        m_A=m_A,
        m_P=m_P,
        alpha_M=float(rng.uniform(0.1, 3.0)),
        alpha_N=float(rng.uniform(0.1, 3.0)),
    )


class TestBoundInputs:
    def test_rejects_eps_at_least_one(self):
        with pytest.raises(ValueError):
            identity_like_inputs(1.0)

    def test_rejects_bad_kappa(self):
        good = identity_like_inputs(2.0**-20)
        with pytest.raises(ValueError):
            BoundInputs(**{**good.__dict__, "kappa": 0.5})

    def test_rejects_nonpositive_eta(self):
        good = identity_like_inputs(2.0**-20)
        with pytest.raises(ValueError):
            BoundInputs(**{**good.__dict__, "eta_P": 0.0})

    def test_rejects_empty_rows(self):
        good = identity_like_inputs(2.0**-20)
        with pytest.raises(ValueError):
            BoundInputs(**{**good.__dict__, "m_A": 0})

    def test_rejects_undefined_inflation(self):
        good = identity_like_inputs(2.0**-10)
        with pytest.raises(PrecisionTooLowError):
            BoundInputs(**{**good.__dict__, "m_P": 1023})

    def test_inflation_factors(self):
        eps = 2.0**-12
        inputs = BoundInputs(**{**identity_like_inputs(eps).__dict__,
                                "m_A": 5, "m_P": 3})
        assert inputs.mdot_A == 6 / (1 - 6 * eps)
        assert inputs.mdot_P == 4 / (1 - 4 * eps)


class TestComputeConstants:
    def test_zero_roundoff_zeroes_everything(self):
        report = compute_constants(identity_like_inputs(0.0))
        assert (report.c0, report.c1, report.c2, report.c3,
                report.c4, report.c5) == (0.0,) * 6
        assert report.delta_rho == 0.0
        assert report.pi_dot == 0.0

    def test_identity_like_against_oracle(self):
        inputs = identity_like_inputs(2.0**-20)
        report = compute_constants(inputs)
        expected = constants_oracle(inputs)
        got = [report.c0, report.c1, report.c2, report.c3, report.c4, report.c5]
        assert got == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_eps(self):
        eps_grid = [2.0**-b for b in range(30, 7, -2)]
        prev = None
        for eps in eps_grid:
            r = compute_constants(identity_like_inputs(eps))
            cur = (r.c0, r.c1, r.c2, r.c3, r.c4, r.c5)
            if prev is not None:
                assert all(c > p for c, p in zip(cur, prev))
            prev = cur

    def test_monotone_in_structure(self):
        # nondecreasing in every structural input (alpha_N only enters the
        # per-line catalog, so its column stays constant)
        base = identity_like_inputs(2.0**-16)
        r0 = compute_constants(base)
        for field in ("kappa", "kappa_c", "eta_A", "eta_P", "eta_M", "eta_N",
                      "m_A", "m_P", "alpha_M", "alpha_N"):
            bumped = dict(base.__dict__)
            bumped[field] = bumped[field] * 2
            r1 = compute_constants(BoundInputs(**bumped))
            assert r1.c5 >= r0.c5
            assert r1.delta_rho >= r0.delta_rho

    def test_rho_tg_combines_rho_star(self):
        report = compute_constants(identity_like_inputs(2.0**-20), rho_star=0.25)
        assert report.rho_tg == 0.25 + report.delta_rho


class TestDeltaRho:
    def test_zero_case(self):
        assert compute_constants(identity_like_inputs(0.0)).delta_rho == 0.0

    def test_simple_sum(self):
        report = compute_constants(identity_like_inputs(2.0**-12))
        assert report.delta_rho == report.c3 + report.c4 + report.c5

    def test_matches_oracle_sum(self):
        inputs = identity_like_inputs(2.0**-20)
        expected = constants_oracle(inputs)
        assert compute_constants(inputs).delta_rho == pytest.approx(
            expected[3] + expected[4] + expected[5], rel=1e-13)


class TestDualEvaluationGrid:
    def test_fifty_point_randomized_agreement(self):
        rng = np.random.default_rng(20240501)
        for _ in range(50):
            inputs = random_inputs(rng)
            report = compute_constants(inputs)
            expected = constants_oracle(inputs)
            got = [report.c0, report.c1, report.c2,
                   report.c3, report.c4, report.c5]
            for g, x in zip(got, expected):
                assert abs(g - x) <= 1e-12 * abs(x)


class TestGammaConstants:
    def test_gamma5_is_two(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gammas = gamma_constants(random_inputs(rng))
            assert gammas[4] == 2.0

    def test_report_gammas_take_m_plus_one(self):
        # the 2D level has m_A + 1 = 6, which the inflation factor at 12 bits
        # does not give back exactly: the report's gammas must use m + 1
        from mixedmg import build_multilevel, make_jacobi
        from mixedmg.harness import bound_inputs_for

        fmt = PrecisionFormat(12)
        level = build_multilevel(15, 2, problem="poisson2d")[0]
        inputs = bound_inputs_for(level, make_jacobi(level.A, 2.0 / 3.0, fmt))
        assert (inputs.m_A, inputs.m_P) == (5, 4)
        limit = BoundInputs(**{**inputs.__dict__, "eps": 0.0})
        assert compute_constants(inputs).gamma == gamma_constants(limit)

    def test_eta_m_small_limit(self):
        # as eta_M -> 0 the third coefficient approaches xi*g2 + 2
        base = identity_like_inputs(0.0)
        tiny = BoundInputs(**{**base.__dict__, "eta_M": 1e-300})
        g = gamma_constants(tiny)
        assert g[2] == pytest.approx(math.sqrt(1.0) * g[1] + 2.0, rel=1e-12)

    def test_formula_chain(self):
        inputs = BoundInputs(
            eps=0.0, kappa=400.0, kappa_c=100.0,
            eta_A=1.0, eta_P=2.0, eta_M=1.5, eta_N=1.5,
            m_A=3, m_P=2, alpha_M=1.5, alpha_N=1.5,
        )
        g1, g2, g3, g4, g5 = gamma_constants(inputs)
        xi = 0.5
        assert g1 == pytest.approx(
            xi * (2.0 * (1 + 4 * (1 + 1.5) + (1.5 + 1.5)) + 3 * 2.0 * (1 + 1.5)))
        assert g2 == pytest.approx(2 * 3 * 2.0 + 2 * g1)
        assert g3 == pytest.approx(xi * g2 + 2 + 1.5)
        assert g4 == pytest.approx(g3 + 4.0 * 3)
        assert g5 == 2.0

    def test_linearization_exact_for_first_and_last(self, level31):
        # the first and last coefficients are the true linear terms: the
        # quadratic remainder stays bounded as the roundoff shrinks
        from mixedmg.harness import bound_inputs_for
        from mixedmg.cycles import make_jacobi
        from mixedmg.precision import CARRIER

        S = make_jacobi(level31.A, 2.0 / 3.0, CARRIER)
        limit = BoundInputs(
            eps=0.0, kappa=level31.kappa, kappa_c=level31.kappa_c,
            eta_A=level31.eta_A, eta_P=level31.eta_P,
            eta_M=S.eta, eta_N=S.eta,
            m_A=3, m_P=2,
            alpha_M=S.eta, alpha_N=S.eta,
        )
        gammas = gamma_constants(limit)
        ratios_first, ratios_last = [], []
        for bits in (16, 24, 32, 40):
            eps = 2.0**-bits
            inputs = BoundInputs(**{**limit.__dict__, "eps": eps})
            rep = compute_constants(inputs)
            pi = rep.pi_dot
            ratios_first.append(abs(rep.c1 - gammas[0] * pi) / pi**2)
            ratios_last.append(abs(rep.c5 - gammas[4] * pi) / pi**2)
        assert max(ratios_first) <= 4 * min(ratios_first) + 1.0
        assert max(ratios_last) <= 4 * min(ratios_last) + 1.0


class TestPerLineBounds:
    def test_catalog_is_complete_and_ordered(self):
        coeffs = per_line_bounds(identity_like_inputs(2.0**-16))
        assert tuple(coeffs) == PROOF_LINES

    def test_quantize_line_is_unit_roundoff(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            inputs = random_inputs(rng)
            assert per_line_bounds(inputs)["rhs_quantize"] == inputs.eps

    def test_pre_relax_line_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_inputs(rng)
            expected = p.alpha_M * (1 + p.eps) * p.eps
            assert per_line_bounds(p)["pre_relax_step"] == pytest.approx(
                expected, rel=1e-15)

    def test_totals_agree_with_constants(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_inputs(rng)
            coeffs = per_line_bounds(p)
            rep = compute_constants(p)
            assert coeffs["pre_residual_total"] == rep.c0
            assert coeffs["coarse_correction_total"] == 2 * rep.c1
            assert coeffs["prolong_total"] == rep.c2
            assert coeffs["corrected_total"] == rep.c3
            assert coeffs["post_residual_total"] == rep.c4
            assert coeffs["final_sub_step"] == rep.c5

    def test_all_positive_for_positive_eps(self):
        coeffs = per_line_bounds(identity_like_inputs(2.0**-20))
        assert all(v > 0 for v in coeffs.values())


class TestProgressiveEpsilon:
    def test_unit_kappa(self):
        assert progressive_epsilon(1.0, 2.0**-10).significand_bits == 10

    def test_kappa_four_costs_one_bit(self):
        assert progressive_epsilon(4.0, 2.0**-10).significand_bits == 11

    def test_coarsest_satisfying_format(self):
        fmt = progressive_epsilon(414.345, 2.0**-8)
        pi = math.sqrt(414.345) * fmt.unit_roundoff
        assert pi <= 2.0**-8
        wider = math.sqrt(414.345) * 2.0 ** -(fmt.significand_bits - 1)
        assert wider > 2.0**-8

    def test_pi_dot_within_factor_two_across_sizes(self):
        from mixedmg import build_multilevel

        target = 2.0**-8
        for n in (15, 31, 63, 127):
            lvl = build_multilevel(n, 2)[0]
            fmt = progressive_epsilon(lvl.kappa, target)
            pi = math.sqrt(lvl.kappa) * fmt.unit_roundoff
            assert target / 2 < pi <= target

    def test_unachievable_target(self):
        with pytest.raises(PrecisionUnachievableError):
            progressive_epsilon(1e12, 2.0**-50)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            progressive_epsilon(2.0, 1.5)
        with pytest.raises(ValueError):
            progressive_epsilon(0.5, 0.25)

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0, 4.0, 414.345, 2.0**20, 1e12, 2.0**100])
    def test_smallest_width_meeting_the_target(self, kappa):
        # the definition: the smallest width in 2..53 with 2**-bits <= need,
        # on powers of two, values between them and both sides of 2**-53
        targets = [2.0**-e for e in range(1, 110)] + [
            0.999, 0.3, 0.1, 1e-3, 1e-8, 1e-16, 1.5 * 2.0**-53,
            math.nextafter(2.0**-53, 0.0), math.nextafter(2.0**-53, 1.0)]
        for pi_target in targets:
            need = pi_target / math.sqrt(kappa)
            widths = [b for b in range(2, CARRIER_BITS + 1) if 2.0**-b <= need]
            if widths:
                assert progressive_epsilon(kappa, pi_target).significand_bits == widths[0]
            else:
                needed = next(b for b in range(CARRIER_BITS + 1, 2000) if 2.0**-b <= need)
                with pytest.raises(PrecisionUnachievableError,
                                   match=f"needs {needed} significand bits"):
                    progressive_epsilon(kappa, pi_target)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa must be finite"):
            progressive_epsilon(kappa, 0.25)


class TestReportSerialization:
    def test_csv_column_order(self):
        from mixedmg.bounds import REPORT_COLUMNS

        assert REPORT_COLUMNS[:3] == ("n", "n_c", "significand_bits")
        assert REPORT_COLUMNS[-5:] == (
            "gamma1", "gamma2", "gamma3", "gamma4", "gamma5")
        report = compute_constants(identity_like_inputs(2.0**-16), rho_star=0.5,
                                   n=31, n_c=15, significand_bits=16)
        fields = report.csv_fields()
        assert len(fields) == len(REPORT_COLUMNS)
        assert fields[0] == 31 and fields[1] == 15 and fields[2] == 16

    def test_json_round_trip(self):
        import json

        report = compute_constants(identity_like_inputs(2.0**-16), rho_star=0.5)
        data = json.loads(report.to_json())
        assert data["rho_tg"] == report.rho_tg
        assert data["gamma5"] == 2.0
