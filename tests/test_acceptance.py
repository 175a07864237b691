"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and the reported constants.

A5 is known to fail for the middle coefficients: the simplified asymptotic
constants returned by ``gamma_constants`` are not the exact linear
coefficients of the full formulas (they drop coarse/fine conditioning-ratio
factors), so the quadratic-remainder ratio it checks grows like the inverse
roundoff instead of staying bounded.  The criterion is implemented exactly
as stated and left red; see the printed table for the measured growth.
"""

import math
import time

import numpy as np
import pytest

import dense_oracle as oracle
from mixedmg import (
    CARRIER,
    BoundInputs,
    PROOF_LINES,
    PrecisionFormat,
    build_multilevel,
    compute_constants,
    energy_norm,
    gamma_constants,
    make_exact_coarse,
    make_jacobi,
    make_perturbed_coarse,
    quantize_vector,
    rho_star,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
    solve_spd,
    tg_cycle,
    v_cycle,
)
from mixedmg.harness import ExperimentConfig, progressive_study, run_experiment
from mixedmg.bounds import KERNEL_BOUNDS
from mixedmg.fourier import interpolation_norm, symbol_ends
from mixedmg.precision import RowLayout, column_norms, rounded_scale

from test_bounds import constants_oracle, random_inputs
from test_cycles import exact_stages

EPS = float(np.finfo(np.float64).eps)

SWEEP_SIZES = (15, 31, 63)
SWEEP_BITS = (8, 12, 16, 23)
SWEEP_TRIALS = 100
SWEEP_SEED = 20240801


def _line(name: str, ok: bool, detail: str):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    records = []
    for n in SWEEP_SIZES:
        cfg = ExperimentConfig(size=n, bits=SWEEP_BITS, trials=SWEEP_TRIALS,
                               rng_seed=SWEEP_SEED)
        records.extend(run_experiment(cfg))
    return records, time.perf_counter() - t0


def test_a1_final_error_bound(sweep):
    records, elapsed = sweep
    violations = [r for r in records if r.measured_ratio > r.report.rho_tg]
    worst = max(r.measured_ratio / r.report.rho_tg for r in records)
    ok = not violations and elapsed < 120.0
    _line("A1", ok,
          f"{len(records)} trials, {len(violations)} violations, worst "
          f"measured/bound {worst:.4f}, sweep time {elapsed:.1f}s")
    assert not violations
    assert elapsed < 120.0


def test_a2_per_line_proof_bounds(sweep):
    records, _ = sweep
    worst_name, worst_val = None, 0.0
    violations = 0
    for rec in records:
        for name, ratio in rec.line_ratios.items():
            if ratio > 1.0:
                violations += 1
            if ratio > worst_val:
                worst_name, worst_val = name, ratio
    ok = violations == 0
    _line("A2", ok,
          f"{len(records)} trials x {len(PROOF_LINES)} lines, "
          f"{violations} violations, worst ratio {worst_val:.4f} "
          f"({worst_name})")
    assert violations == 0


def test_a3_kernel_certification():
    # every entry of the kernel error model, against each kernel on the
    # draws of its format: a plain <= between the measured error and the
    # table on the kernel's input norms
    t0 = time.perf_counter()
    draws = 1000
    A = oracle.poisson_1d(24)
    K = A.matrix
    P = oracle.linear_interpolation(31)
    Pt = RowLayout.of(P.T)
    level2d = build_multilevel(7, 2, problem="poisson2d")[0]
    # each operator's eta and row count once, not on every call of a row kernel
    # (the certified ends of the symbols of |A| and of the interpolation,
    # which P' shares)
    eta_K, eta_P = symbol_ends(np.abs(A.stencil), A.k)[1], interpolation_norm(1.0, 1, 31)
    rows = {"residual": dict(m=RowLayout.of(K).m, eta=eta_K),
            "prolong": dict(m=RowLayout.of(P).m, eta=eta_P),
            "restrict": dict(m=Pt.m, eta=eta_P),
            "restrict2d": dict(m=level2d.P_t_layout.m, eta=level2d.eta_P)}
    assert (rows["restrict"]["m"], rows["restrict2d"]["m"]) == (3, 9)
    checked = 0
    for bits in (5, 8, 12, 16):
        fmt = PrecisionFormat(bits)
        eps = fmt.unit_roundoff
        S = make_jacobi(A, 2.0 / 3.0, fmt)
        rng = np.random.default_rng(bits)
        for _ in range(draws):
            w = rng.standard_normal(64)
            out = quantize_vector(w, fmt)
            assert np.linalg.norm(out.value - w) <= KERNEL_BOUNDS["quantize"](
                eps, column_norms(w))

            v = quantize_vector(rng.standard_normal(24), fmt).value
            u = quantize_vector(rng.standard_normal(24), fmt).value
            out = rounded_add_sub(v, u, "-", fmt)
            assert np.linalg.norm(out.value - (v - u)) <= KERNEL_BOUNDS["subtract"](
                eps, column_norms(v - u))

            c = quantize_vector(rng.standard_normal(24), fmt).value
            out = rounded_residual(K, v, c, fmt)
            assert np.linalg.norm(out.value - (K @ v - c)) <= KERNEL_BOUNDS["residual"](
                eps, column_norms(v), column_norms(c), **rows["residual"])

            wc = quantize_vector(rng.standard_normal(15), fmt).value
            out = rounded_matvec(P, wc, fmt)
            assert np.linalg.norm(out.value - P @ wc) <= KERNEL_BOUNDS["prolong"](
                eps, column_norms(wc), **rows["prolong"])

            # relaxation and restriction reuse the draws above
            out = rounded_scale(S.w, v, fmt)
            assert np.linalg.norm(out.value - S.w * v) <= KERNEL_BOUNDS["relax"](
                eps, column_norms(v), alpha=S.alpha)

            wq = quantize_vector(w, fmt).value
            out = rounded_matvec(Pt, wq[:31], fmt)
            assert np.linalg.norm(out.value - Pt.matrix @ wq[:31]) <= KERNEL_BOUNDS["restrict"](
                eps, column_norms(wq[:31]), **rows["restrict"])

            out = rounded_matvec(level2d.P_t_layout, wq[:49], fmt)
            assert (np.linalg.norm(out.value - level2d.P_t @ wq[:49])
                    <= KERNEL_BOUNDS["restrict"](eps, column_norms(wq[:49]),
                                                 **rows["restrict2d"]))
            checked += 7

        # exact cases commit zero error
        v = quantize_vector(rng.standard_normal(24), fmt).value
        assert np.array_equal(quantize_vector(v, fmt).value, v)
        assert np.array_equal(
            rounded_add_sub(v, np.zeros(24), "+", fmt).value, v)
        assert np.array_equal(
            rounded_add_sub(v, v, "-", fmt).value, np.zeros(24))
        assert np.array_equal(
            rounded_matvec(K, np.zeros(24), fmt).value, np.zeros(24))
        assert np.array_equal(
            rounded_residual(np.eye(24), v, v, fmt).value, np.zeros(24))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _line("A3", ok, f"{checked} certified kernel calls, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_a4_exact_arithmetic_structure():
    lvl = build_multilevel(31, 2)[0]
    S = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
    bound_dc = 2.0 * math.sqrt(lvl.kappa_c)
    worst_ynu = worst_dc = worst_y = 0.0
    for sigma in (0.0, 0.3, 0.9):
        coarse = make_perturbed_coarse(lvl, sigma, seed=13)
        rho = rho_star(S, coarse)
        assert rho < 1.0
        rng = np.random.default_rng(int(sigma * 10))
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(lvl.A, r)
            xn = energy_norm(x, lvl.A)
            st = exact_stages(r, S, coarse)
            ynu = energy_norm(st["y_nu"] - x, lvl.A) / xn
            dc = float(np.linalg.norm(st["d_c"])) / xn
            ytot = energy_norm(st["y"], lvl.A) / xn
            worst_ynu = max(worst_ynu, ynu)
            worst_dc = max(worst_dc, dc)
            worst_y = max(worst_y, ytot)
            assert ynu <= 1.0 + 1e-10
            assert dc <= bound_dc
            assert ytot <= 2.0

    lvl63 = build_multilevel(63, 2)[0]
    tnorm = oracle.projector_energy_norm(lvl63)
    T = oracle.coarse_complement_projector(lvl63)
    idem = float(np.linalg.norm(T @ T - T, 2))
    assert tnorm <= 1.0 + 10 * EPS
    assert idem <= 1e3 * EPS
    _line("A4", True,
          f"worst iterate growth {worst_ynu:.6f} (<=1+1e-10), coarse "
          f"correction {worst_dc:.3f} (<= {bound_dc:.3f}), result energy "
          f"{worst_y:.3f} (<=2); projector norm-1 {tnorm - 1.0:.2e}, "
          f"idempotency defect {idem:.2e}")


def test_a5_gamma_linearization():
    lvl = build_multilevel(31, 2)[0]
    M = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
    structure = dict(
        kappa=lvl.kappa,
        kappa_c=lvl.kappa_c,
        eta_A=lvl.eta_A,
        eta_P=lvl.eta_P,
        eta_M=M.eta,
        eta_N=M.eta,
        alpha_M=M.eta,
        alpha_N=M.eta,
    )
    m_a, m_p = lvl.A.row_layout.m, lvl.P_layout.m
    gammas = gamma_constants(BoundInputs(
        eps=0.0, m_A=m_a, m_P=m_p, **structure))

    grid = [2.0**-b for b in (16, 20, 24, 28, 32, 36, 40)]
    ratios = {k: [] for k in range(1, 6)}
    for eps in grid:
        inputs = BoundInputs(eps=eps, m_A=m_a, m_P=m_p, **structure)
        rep = compute_constants(inputs)
        pi = rep.pi_dot
        cs = (rep.c1, rep.c2, rep.c3, rep.c4, rep.c5)
        for k in range(1, 6):
            ratios[k].append(abs(cs[k - 1] - gammas[k - 1] * pi) / pi**2)

    constant = max(max(r) for r in ratios.values())
    growth = {k: ratios[k][-1] / ratios[k][0] for k in ratios}
    print("  quadratic-remainder ratios |c_k - gamma_k*pi| / pi^2 "
          "over u = 2^-16 .. 2^-40:")
    for k in range(1, 6):
        print(f"    k={k}: first {ratios[k][0]:.4g}, last {ratios[k][-1]:.4g}, "
              f"growth x{growth[k]:.3g}")
    ok = all(g <= 10.0 for g in growth.values())
    _line("A5", ok, f"reported constant {constant:.4g}; "
          f"bounded requires growth <= 10 for every k, got "
          + ", ".join(f"k={k}: x{growth[k]:.3g}" for k in range(1, 6)))
    assert ok, (
        "quadratic-remainder ratio grows with shrinking roundoff for "
        f"k in {{2, 3, 4}} (growth factors {growth}); the simplified "
        "asymptotic constants are not the exact linear coefficients"
    )


def test_a6_progressive_precision():
    base = progressive_study(SWEEP_SIZES, 2.0**-8, trials=25, seed=7)
    halved = progressive_study(SWEEP_SIZES, 2.0**-9, trials=25, seed=7)
    assert base["all_ok"] and halved["all_ok"]
    spread = base["delta_rho_spread"]
    assert spread < 4.0
    factors = {}
    for n in SWEEP_SIZES:
        d0 = base["per_size"][n]["delta_rho"]
        d1 = halved["per_size"][n]["delta_rho"]
        factors[n] = d0 / d1
        assert 1.7 <= factors[n] <= 2.3
    _line("A6", True,
          f"delta_rho spread x{spread:.3f} (<4); halving reduction factors "
          + ", ".join(f"n={n}: {factors[n]:.3f}" for n in SWEEP_SIZES))


def test_a7_structural_identities():
    worst_rel = 0.0
    for n, bits in ((15, 8), (31, 12), (63, 16)):
        levels = build_multilevel(n, 2)
        lvl = levels[0]
        fmt = PrecisionFormat(bits)
        S = make_jacobi(lvl.A, 2.0 / 3.0, fmt)
        rng = np.random.default_rng(n)
        for _ in range(10):
            r = rng.standard_normal(n)
            y_tg, _ = tg_cycle(r, S, make_exact_coarse(lvl))
            y_v = v_cycle(levels, 1, 1, r, smoothers=[S])
            assert np.array_equal(y_tg, y_v), "bitwise identity broken"

        Sc = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        tol = 1e3 * EPS * math.sqrt(lvl.kappa)
        for _ in range(10):
            r = rng.standard_normal(n)
            y, trace = tg_cycle(r, Sc, make_exact_coarse(lvl))
            x = solve_spd(lvl.A, r)
            rel = energy_norm(y - trace.y_reference, lvl.A) / energy_norm(x, lvl.A)
            worst_rel = max(worst_rel, rel)
            assert rel <= tol
    _line("A7", True,
          f"V(1,1) two-level bitwise equal to the two-grid cycle; carrier "
          f"run deviates from reference by at most {worst_rel:.2e} relative")


def test_a8_dual_evaluation_of_constants():
    rng = np.random.default_rng(881)
    worst = 0.0
    for _ in range(50):
        inputs = random_inputs(rng)
        rep = compute_constants(inputs)
        expected = constants_oracle(inputs)
        got = [rep.c0, rep.c1, rep.c2, rep.c3, rep.c4, rep.c5]
        for g, x in zip(got, expected):
            rel = abs(g - x) / abs(x) if x else abs(g)
            worst = max(worst, rel)
            assert rel <= 1e-12
    _line("A8", True,
          f"50-point randomized grid, worst relative disagreement {worst:.2e}")
