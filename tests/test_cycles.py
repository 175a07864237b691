"""Relaxation operators, coarse solvers, instrumented cycles, V-cycles."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg

import dense_oracle as oracle
import mixedmg.cycles
from mixedmg import (
    CARRIER,
    ContractionError,
    GridLevel,
    PROOF_LINES,
    PrecisionFormat,
    SparseSpd,
    build_multilevel,
    energy_norm,
    make_exact_coarse,
    make_jacobi,
    make_perturbed_coarse,
    make_recursive_coarse,
    make_richardson,
    quantize_vector,
    rho_star,
    solve_spd,
    tg_cycle,
    v_cycle,
)
from mixedmg.bounds import KERNEL_BOUNDS, STAGE_LINES
from mixedmg.cycles import CoarseSolver, _cycle, _operations
from mixedmg.fourier import StructureError
from mixedmg.precision import Rounding, column_norms, rounded_scale
from mixedmg.harness import ExperimentConfig, render_csv, run_experiment, trial_passed

EPS = float(np.finfo(np.float64).eps)
FMT12 = PrecisionFormat(12)


def exact_stages(r, S, coarse):
    """The intermediates of the exact two-grid cycle, by stage name."""
    ops, stages = _operations(coarse.level, S, coarse.apply, carrier=True), {}

    def stage(name, op, *inputs):
        stages[name] = ops[op](*inputs)
        return stages[name]

    _cycle(r, 1, 1, stage)
    return stages


def _six_bits_short(kernel):
    """``kernel`` given a rounding six bits short of each of the widths of
    the rounding ``cycles`` hands it."""
    def short(*args, **kwargs):
        *args, rounding = args
        bits = np.broadcast_to(rounding.bits, rounding.columns)
        return kernel(*args, Rounding([PrecisionFormat(int(b) - 6) for b in bits]), **kwargs)
    return short


def _bits_short(k: int) -> type[Rounding]:
    """A rounding whose widths are ``k`` bits short of the formats it is
    made from: substituted for the one ``cycles`` makes, it runs every
    kernel of a cycle short, while the smoothers, the bounds and the line
    coefficients stay at the nominal format."""
    class Short(Rounding):
        def __init__(self, fmt):
            formats = [fmt] if isinstance(fmt, PrecisionFormat) else fmt
            super().__init__([PrecisionFormat(f.significand_bits - k) for f in formats])
    return Short


def assert_direct_solve(solver, level):
    """The solver is the exact coarse solve: no deviation, and its
    correction is ``solve_spd`` bit for bit."""
    r_c = np.random.default_rng(13).standard_normal((level.n_c, 3))
    assert solver.bc_deviation == 0.0
    assert np.array_equal(solver.apply(r_c), solve_spd(level.A_c, r_c))


@pytest.fixture(scope="module")
def jacobi31(level31):
    return make_jacobi(level31.A, 2.0 / 3.0, FMT12)


class TestMakeJacobi:
    def test_identity_matrix_gives_identity_operator(self):
        M = make_jacobi(SparseSpd([1.0, 0.0], 5), 1.0, FMT12)
        assert (M.w, M.n) == (1.0, 5)
        assert M.contraction == pytest.approx(0.0, abs=1e-14)
        assert M.eta == 1.0

    def test_contracts_on_scaled_poisson(self):
        lvl = build_multilevel(7, 2)[0]
        M = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        assert M.contraction < 1.0
        # independent check: eigenvalue magnitudes of the error propagator
        prop = np.eye(7) - M.w * lvl.A.matrix.toarray()
        lams = scipy.linalg.eigvals(prop)
        assert np.abs(lams).max() <= M.contraction + 1e-12

    def test_overrelaxation_rejected(self):
        # a NaN omega gives a NaN contraction, which is no contraction either
        lvl = build_multilevel(7, 2)[0]
        for make in (make_jacobi, make_richardson):
            for omega in (4.0, float("nan")):
                with pytest.raises(ContractionError, match="does not contract"):
                    make(lvl.A, omega, FMT12)

    def test_alpha_certification_1000_draws(self, level31):
        M = make_jacobi(level31.A, 2.0 / 3.0, FMT12)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            z = rng.standard_normal(31)
            value = rounded_scale(M.w, z, M.fmt).value
            bound = KERNEL_BOUNDS["relax"](FMT12.unit_roundoff, column_norms(z), alpha=M.alpha)
            err = np.linalg.norm(value - M.w * z)
            assert err <= bound
            assert bound <= M.alpha * FMT12.unit_roundoff * np.linalg.norm(z) * (1 + 1e-15)


class TestMakeRichardson:
    def test_scalar_operator(self):
        lvl = build_multilevel(7, 2)[0]
        R = make_richardson(lvl.A, 0.9, FMT12)
        assert (R.w, R.n) == (quantize_vector([0.9], FMT12).value[0], 7)
        assert R.contraction < 1.0
        assert R.eta == abs(R.w)


class TestPerturbedCoarse:
    def test_sigma_zero_is_exact(self, level31):
        assert_direct_solve(make_perturbed_coarse(level31, 0.0), level31)

    def test_deviation_matches_sigma(self, level31):
        solver = make_perturbed_coarse(level31, 0.5, seed=7)
        B_c = oracle.bc_matrix(level31, 0.5, seed=7)
        measured = oracle.energy_operator_norm(B_c - np.eye(level31.n_c), level31.A_c)
        assert measured == pytest.approx(0.5, abs=10 * EPS)
        assert solver.bc_deviation == 0.5
        # the solver multiplies the direct solve by that B_c, through the
        # sine transform instead of the explicit matrix
        expected = B_c @ solve_spd(level31.A_c, np.eye(level31.n_c))
        got = oracle.solve_matrix(solver)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_apply_is_the_scaled_direct_solve(self, level31):
        # the perturbed solve is solve_spd with the factors drawn from the
        # seed, bit for bit, on a vector and on a block
        solver = make_perturbed_coarse(level31, 0.3, seed=7)
        f = 1.0 + 0.3 * np.random.default_rng(7).choice((-1.0, 1.0), size=level31.n_c)
        rng = np.random.default_rng(3)
        for r in (rng.standard_normal(level31.n_c), rng.standard_normal((level31.n_c, 4))):
            assert np.array_equal(solver.apply(r), solve_spd(level31.A_c, r, factors=f))

    def test_bc_norm_below_two(self, level31):
        for sigma in (0.1, 0.5, 0.9, 0.99):
            B_c = oracle.bc_matrix(level31, sigma, seed=11)
            assert oracle.energy_operator_norm(B_c, level31.A_c) <= 2.0

    def test_sigma_out_of_range(self, level31):
        with pytest.raises(ValueError):
            make_perturbed_coarse(level31, 1.0)


class TestExactReference:
    def test_zero_rhs(self, level31, jacobi31):
        S = jacobi31
        y = exact_stages(np.zeros(31), S, make_exact_coarse(level31))["y"]
        assert np.array_equal(y, np.zeros(31))

    def test_error_within_rho_star(self, level31, jacobi31):
        S = jacobi31
        coarse = make_exact_coarse(level31)
        rho = rho_star(S, coarse)
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            y = exact_stages(r, S, coarse)["y"]
            assert (energy_norm(y - x, level31.A)
                    <= rho * energy_norm(x, level31.A) * (1 + 1e-11))

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9])
    def test_intermediate_iterate_does_not_grow(self, level31, jacobi31, sigma):
        # the corrected iterate before post-relaxation cannot increase the
        # initial energy error, for any coarse perturbation below one
        S = jacobi31
        coarse = make_perturbed_coarse(level31, sigma, seed=5)
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            stages = exact_stages(r, S, coarse)
            xn = energy_norm(x, level31.A)
            assert energy_norm(stages["y_nu"] - x, level31.A) <= (1 + 1e-10) * xn

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9])
    def test_coarse_correction_euclid_bound(self, level31, jacobi31, sigma):
        S = jacobi31
        coarse = make_perturbed_coarse(level31, sigma, seed=5)
        bound_factor = 2.0 * math.sqrt(level31.kappa_c)
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            stages = exact_stages(r, S, coarse)
            assert (np.linalg.norm(stages["d_c"])
                    <= bound_factor * energy_norm(x, level31.A) * (1 + 1e-12))

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9])
    def test_result_energy_bound(self, level31, jacobi31, sigma):
        S = jacobi31
        coarse = make_perturbed_coarse(level31, sigma, seed=5)
        assert rho_star(S, coarse) < 1.0
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            y = exact_stages(r, S, coarse)["y"]
            assert (energy_norm(y, level31.A)
                    <= 2.0 * energy_norm(x, level31.A) * (1 + 1e-12))


class TestTgCycle:
    def test_zero_rhs_gives_zero(self, level31, jacobi31):
        S = jacobi31
        y, trace = tg_cycle(np.zeros(31), S, make_exact_coarse(level31))
        assert np.array_equal(y, np.zeros(31))
        assert np.array_equal(trace.y_reference, np.zeros(31))

    def test_trace_norms_finite_nonnegative(self, level31, jacobi31):
        S = jacobi31
        r = np.random.default_rng(5).standard_normal(31)
        _, trace = tg_cycle(r, S, make_exact_coarse(level31))
        assert list(trace.line_norms) == list(PROOF_LINES)
        for v in trace.line_norms.values():
            assert np.isfinite(v) and v >= 0.0

    @pytest.mark.parametrize("problem, size", [("poisson1d", 63), ("poisson2d", 15)])
    def test_c_ordered_block_stays_c_ordered(self, problem, size):
        # the kernels gather rows of a C-ordered block; no step hands the
        # next one a Fortran-ordered copy
        level = build_multilevel(size, 2, problem=problem)[0]
        r = np.random.default_rng(4).standard_normal((level.n, 9))
        y, trace = tg_cycle(r, make_jacobi(level.A, 2.0 / 3.0, FMT12),
                            make_exact_coarse(level))
        assert y.flags.c_contiguous and trace.y_reference.flags.c_contiguous

    @pytest.mark.parametrize("T", [None, 1, 50], ids=["vector", "T1", "T50"])
    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_coarse_step_runs_once_for_both_sides(self, monkeypatch, levels31_3,
                                                  jacobi_smoothers, variant, T):
        # the coarse step runs in the carrier on the computed value and on its
        # reference: one call on the two side by side gives each half the
        # bits of its own call
        lvl = levels31_3[0]
        coarse = {"exact": lambda: make_exact_coarse(lvl),
                  "perturbed": lambda: make_perturbed_coarse(lvl, 0.5, seed=3),
                  "recursive": lambda: make_recursive_coarse(
                      levels31_3, 1, 1, jacobi_smoothers(levels31_3[1:]))}[variant]()
        S = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        r = np.random.default_rng(11).standard_normal((lvl.n,) if T is None else (lvl.n, T))
        with monkeypatch.context() as patch:
            patch.setattr(mixedmg.cycles, "_side_by_side",
                          lambda apply, v, w: (apply(v), apply(w)))
            y_two, trace_two = tg_cycle(r, S, coarse)

        applied, halves = [], []
        apply, side_by_side = CoarseSolver.apply, mixedmg.cycles._side_by_side
        monkeypatch.setattr(CoarseSolver, "apply", lambda self, r_c: (
            applied.append(r_c.shape), apply(self, r_c))[1])
        monkeypatch.setattr(mixedmg.cycles, "_side_by_side", lambda apply, v, w: (
            halves.append(out := side_by_side(apply, v, w)), out)[1])
        y, trace = tg_cycle(r, S, coarse)
        assert applied == [(lvl.n_c, 2 * (T or 1))]
        (got, ref), = halves
        assert got.shape == ref.shape == (lvl.n_c,) + r.shape[1:]
        assert got.flags.c_contiguous and ref.flags.c_contiguous
        assert y.tobytes() == y_two.tobytes()
        assert trace.y_reference.tobytes() == trace_two.y_reference.tobytes()
        assert list(trace.line_norms) == list(trace_two.line_norms)
        for name, value in trace.line_norms.items():
            two = trace_two.line_norms[name]
            assert type(value) is type(two)
            assert np.asarray(value).tobytes() == np.asarray(two).tobytes()

    def test_carrier_format_matches_reference(self):
        lvl = build_multilevel(3, 2)[0]
        S = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        rng = np.random.default_rng(6)
        tol = 1e3 * EPS * math.sqrt(lvl.kappa)
        for _ in range(20):
            r = rng.standard_normal(3)
            y, trace = tg_cycle(r, S, make_exact_coarse(lvl))
            x = solve_spd(lvl.A, r)
            rel = energy_norm(y - trace.y_reference, lvl.A) / energy_norm(x, lvl.A)
            assert rel <= tol

    def test_final_error_bound_single_config(self, level31, jacobi31):
        from mixedmg.harness import bound_inputs_for
        from mixedmg.bounds import compute_constants

        S = jacobi31
        coarse = make_exact_coarse(level31)
        rho = rho_star(S, coarse)
        report = compute_constants(
            bound_inputs_for(level31, S), rho_star=rho)
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            y, _ = tg_cycle(r, S, coarse)
            assert (energy_norm(y - x, level31.A)
                    <= report.rho_tg * energy_norm(x, level31.A))

    def test_cycle_structure(self):
        # the two-grid cycle of the proof, read off the one step sequence: a
        # stage function that returns its stage's name records each input
        steps = []
        _cycle("rhs", 1, 1, lambda name, op, *inputs: steps.append((name, op, inputs)) or name)
        assert steps == [
            ("r", "quantize", ("rhs",)),
            ("y_mu", "relax", ("r",)),
            ("r_mu", "residual", ("y_mu", "r")),
            ("r_c", "restrict", ("r_mu",)),
            ("d_c", "coarse", ("r_c",)),
            ("d", "prolong", ("d_c",)),
            ("y_nu", "subtract", ("y_mu", "d")),
            ("r_nu", "residual", ("y_nu", "r")),
            ("r_N", "relax", ("r_nu",)),
            ("y", "subtract", ("y_nu", "r_N")),
        ]
        # the proof's line table names the stages in the same step order
        assert [name for name, _, _ in steps] == list(STAGE_LINES)

    def test_kernel_bounds_follow_the_operations(self):
        # the error model has one entry per reduced-format kernel the cycle
        # runs, under its operation's name; on a 2D level each row kernel's
        # entry takes the row count of the layout it runs on, and bounds the
        # operation's error against the carrier per column of a block
        level = build_multilevel(7, 2, problem="poisson2d")[0]
        S, coarse = make_jacobi(level.A, 2.0 / 3.0, FMT12), make_exact_coarse(level)
        run, exact = (_operations(level, S, coarse.apply, carrier) for carrier in (False, True))
        assert set(KERNEL_BOUNDS) == set(run) - {"zero", "coarse"}
        layouts = {"residual": (level.A.row_layout, level.eta_A),
                   "restrict": (level.P_t_layout, level.eta_P),
                   "prolong": (level.P_layout, level.eta_P)}
        assert {op: layout.m for op, (layout, _) in layouts.items()} == {
            "residual": 5, "restrict": 9, "prolong": 4}
        params = {op: dict(m=layout.m, eta=eta) for op, (layout, eta) in layouts.items()}
        params["relax"] = dict(alpha=S.alpha)
        rng = np.random.default_rng(11)
        Y, R = (quantize_vector(rng.standard_normal((level.n, 8)), FMT12).value
                for _ in range(2))
        Z = quantize_vector(rng.standard_normal((level.n_c, 8)), FMT12).value
        inputs = {"quantize": (rng.standard_normal((level.n, 8)),), "relax": (Y,),
                  "residual": (Y, R), "restrict": (Y,), "prolong": (Z,),
                  "subtract": (Y, R)}
        for op, args in inputs.items():
            norms = ((exact[op](*args),) if op == "subtract" else args)
            bound = KERNEL_BOUNDS[op](FMT12.unit_roundoff, *map(column_norms, norms),
                                      **params.get(op, {}))
            error = column_norms(run[op](*args) - exact[op](*args))
            assert error.shape == (8,) and np.all(error <= bound), op

    def test_smoother_of_another_level_rejected(self, levels31_3, jacobi_smoothers):
        S1 = jacobi_smoothers(levels31_3[1:2], FMT12)[0]
        r = np.random.default_rng(9).standard_normal(31)
        with pytest.raises(ValueError, match="order 15, not the level's order 31"):
            tg_cycle(r, S1, make_exact_coarse(levels31_3[0]))

    @pytest.mark.parametrize("problem, size", [("poisson1d", 63), ("poisson2d", 31)])
    def test_kernel_fault_lands_on_its_step_lines(self, monkeypatch, problem, size):
        # a kernel run six bits short of its format breaks a step line whose
        # oracle is that kernel's operation: each oracle is wired to its own
        config = ExperimentConfig(problem=problem, size=size, bits=(23,),
                                  trials=50, rng_seed=1)
        assert all(rec.passed for rec in run_experiment(config))
        for kernel, lines in (("rounded_residual", ("pre_residual_step", "post_residual_step")),
                              ("rounded_matvec", ("restrict_step", "prolong_step"))):
            with monkeypatch.context() as patch:
                patch.setattr(f"mixedmg.cycles.{kernel}",
                              _six_bits_short(getattr(mixedmg.cycles, kernel)))
                records = run_experiment(config)
            assert any(rec.line_ratios[line] > 1.0 for rec in records for line in lines)
            # the flags of the failing block follow the one pass rule
            assert not all(rec.passed for rec in records)
            for rec in records:
                assert rec.passed is trial_passed(
                    rec.measured_ratio, rec.report.rho_tg, rec.line_ratios.values())

    @pytest.mark.parametrize("problem, size", [("poisson1d", 63), ("poisson2d", 31)])
    def test_all_kernels_short_through_the_seam(self, monkeypatch, problem, size):
        # the fault yardstick for all kernels at once: at k = 0 and 1 bits
        # short every trial passes, at k = 3 some trial of every format
        # fails; the total alone never notices up to k = 4
        config = ExperimentConfig(problem=problem, size=size, bits=(8, 12, 23),
                                  trials=50, rng_seed=1)
        nominal = render_csv(run_experiment(config))
        for k in range(5):
            monkeypatch.setattr(mixedmg.cycles, "Rounding", _bits_short(k))
            records = run_experiment(config)
            if k == 0:
                assert render_csv(records) == nominal
            for bits in config.bits:
                passed = [rec.passed for rec in records
                          if rec.report.significand_bits == bits]
                assert len(passed) == config.trials
                if k <= 1:
                    assert all(passed), (k, bits)
                if k == 3:
                    assert not all(passed), bits
            assert all(rec.measured_ratio <= rec.report.rho_tg for rec in records), k

    @pytest.mark.parametrize("problem, size, levels, variant, T, bits", [
        ("poisson1d", 255, 2, "exact", 50, (12,)),
        ("poisson1d", 255, 4, "recursive", 50, (12,)),
        ("poisson2d", 31, 2, "exact", 20, (12,)),
        ("poisson2d", 31, 2, "perturbed", 20, (12,)),
        # a packed block, one format and smoother per column
        ("poisson1d", 255, 2, "exact", 78, (8, 12, 16, 23)),
        ("poisson2d", 31, 2, "exact", 20, (12, 16)),
    ], ids=["poisson1d-255-2-exact-50", "poisson1d-255-4-recursive-50",
            "poisson2d-31-2-exact-20", "poisson2d-31-2-perturbed-20",
            "poisson1d-255-2-exact-78-mixed", "poisson2d-31-2-exact-20-mixed"])
    def test_lockstep_trace_peak_memory(self, jacobi_smoothers, problem, size,
                                        levels, variant, T, bits):
        # the cycle runs on pairs of computed and reference values and holds
        # a stage only while a later step reads it, so it holds a few blocks
        import tracemalloc

        hierarchy = build_multilevel(size, levels, problem=problem)
        lvl = hierarchy[0]
        coarse = {"exact": lambda: make_exact_coarse(lvl),
                  "perturbed": lambda: make_perturbed_coarse(lvl, 0.3, seed=1),
                  "recursive": lambda: make_recursive_coarse(
                      hierarchy, 1, 1, jacobi_smoothers(hierarchy[1:]))}[variant]()
        if bits == (12,):
            S = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        else:
            formats = [PrecisionFormat(b) for b in np.repeat(bits, -(-T // len(bits)))[:T]]
            smoothers = {f: make_jacobi(lvl.A, 2.0 / 3.0, f) for f in set(formats)}
            S = [smoothers[f] for f in formats]
        r = np.random.default_rng(8).standard_normal((lvl.n, T))
        tg_cycle(r, S, coarse)  # first use fills the set-up caches
        tracemalloc.start()
        try:
            tg_cycle(r, S, coarse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * r.nbytes


def _packed_case(problem, variant, jacobi_smoothers):
    """A level of a three-grid hierarchy, its coarse solver and a block of
    right-hand sides with one format per column, in runs as a sweep packs
    them, some widths repeated."""
    hierarchy = build_multilevel(15, 3, problem=problem)
    lvl = hierarchy[0]
    coarse = {"exact": lambda: make_exact_coarse(lvl),
              "perturbed": lambda: make_perturbed_coarse(lvl, 0.4, seed=2),
              "recursive": lambda: make_recursive_coarse(
                  hierarchy, 1, 1, jacobi_smoothers(hierarchy[1:]))}[variant]()
    bits = (5, 5, 8, 12, 12, 12, 23, 52, 8)
    formats = [PrecisionFormat(b) for b in bits]
    smoothers = {f: make_jacobi(lvl.A, 2.0 / 3.0, f) for f in set(formats)}
    R = np.random.default_rng(12).standard_normal((lvl.n, len(bits))) * np.logspace(
        -2, 2, len(bits))
    return lvl, coarse, formats, smoothers, R


class TestPackedFormats:
    @pytest.mark.parametrize("problem", ["poisson1d", "poisson2d"])
    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_packed_cycle_equals_the_per_format_calls(self, jacobi_smoothers, problem,
                                                      variant):
        # one call on every format's columns against one call per format on
        # its own columns: y, y_reference and all sixteen line norms
        lvl, coarse, formats, smoothers, R = _packed_case(problem, variant,
                                                          jacobi_smoothers)
        Y, trace = tg_cycle(R, [smoothers[f] for f in formats], coarse)
        assert Y.shape == trace.y_reference.shape == R.shape
        assert Y.flags.c_contiguous and trace.y_reference.flags.c_contiguous
        assert list(trace.line_norms) == list(PROOF_LINES)
        for fmt, S in smoothers.items():
            cols = [t for t, f in enumerate(formats) if f == fmt]
            y, alone = tg_cycle(np.ascontiguousarray(R[:, cols]), S, coarse)
            assert Y[:, cols].tobytes() == np.ascontiguousarray(y).tobytes()
            assert (trace.y_reference[:, cols].tobytes()
                    == np.ascontiguousarray(alone.y_reference).tobytes())
            for name in PROOF_LINES:
                assert (trace.line_norms[name][cols].tobytes()
                        == alone.line_norms[name].tobytes()), name

    def test_packed_vector_is_the_one_format_call(self, jacobi_smoothers):
        # one column with its smoother in a sequence of one
        lvl, coarse, formats, smoothers, R = _packed_case("poisson1d", "exact",
                                                          jacobi_smoothers)
        S, r = smoothers[formats[0]], R[:, 0]
        y, trace = tg_cycle(r, [S], coarse)
        y_one, one = tg_cycle(r, S, coarse)
        assert y.tobytes() == y_one.tobytes()
        assert trace.line_norms == one.line_norms

    def test_carrier_columns_run_the_carrier_operations(self, monkeypatch, jacobi_smoothers):
        # per-column formats that are all the carrier call no precision kernel
        lvl, coarse, formats, smoothers, R = _packed_case("poisson1d", "exact",
                                                          jacobi_smoothers)
        S = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        y_one, one = tg_cycle(R, S, coarse)
        monkeypatch.setattr(mixedmg.cycles, "quantize_vector", None)
        y, trace = tg_cycle(R, [S] * R.shape[1], coarse)
        assert y.tobytes() == y_one.tobytes()
        for name in PROOF_LINES:
            assert trace.line_norms[name].tobytes() == one.line_norms[name].tobytes()

    def test_smoother_of_another_format_rejected(self, jacobi_smoothers):
        # each column runs in its smoother's format, so a smoother cannot
        # disagree with a format; a smoother list must match the columns
        lvl, coarse, formats, smoothers, R = _packed_case("poisson1d", "exact",
                                                          jacobi_smoothers)
        with pytest.raises(ValueError, match="one per column"):
            tg_cycle(R[:, :2], [smoothers[formats[0]]] * 3, coarse)


class TestRhoStar:
    def test_exact_inverse_smoother_gives_zero(self):
        # identity system: Richardson with omega = 1 is the exact inverse
        # P' P = 3/2 on the one coarse point
        lvl = GridLevel(SparseSpd([1.0, 0.0], 3), 1.0, SparseSpd([1.5, 0.0], 1))
        S = make_richardson(lvl.A, 1.0, CARRIER)
        assert rho_star(S, make_exact_coarse(lvl)) == pytest.approx(0.0, abs=1e-13)

    def test_smallest_poisson_in_unit_interval(self):
        lvl = build_multilevel(3, 2)[0]
        S = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        value = rho_star(S, make_exact_coarse(lvl))
        assert 0.0 < value < 1.0

    def test_perturbation_does_not_improve(self, level31, jacobi31):
        S = jacobi31
        base = rho_star(S, make_exact_coarse(level31))
        for sigma in (0.3, 0.9):
            perturbed = rho_star(S, make_perturbed_coarse(level31, sigma, seed=5))
            assert base <= perturbed + 1e-12


class TestVCycle:
    def test_zero_rhs(self, levels31_3, jacobi_smoothers):
        y = v_cycle(levels31_3, 1, 1, np.zeros(31),
                    smoothers=jacobi_smoothers(levels31_3, FMT12))
        assert np.array_equal(y, np.zeros(31))

    def test_two_level_bitwise_identity_with_tg(self, level31, jacobi31):
        S = jacobi31
        rng = np.random.default_rng(8)
        for _ in range(10):
            r = rng.standard_normal(31)
            y_tg, _ = tg_cycle(r, S, make_exact_coarse(level31))
            y_v = v_cycle([level31], 1, 1, r, smoothers=[S])
            assert np.array_equal(y_tg, y_v)

    def test_three_level_reduces_energy_error(self, levels31_3, jacobi_smoothers):
        fmt = PrecisionFormat(16)
        smoothers = jacobi_smoothers(levels31_3, fmt)
        rng = np.random.default_rng(9)
        lvl = levels31_3[0]
        for _ in range(10):
            r = rng.standard_normal(31)
            x = solve_spd(lvl.A, r)
            y = v_cycle(levels31_3, 1, 1, r, smoothers=smoothers)
            assert energy_norm(y - x, lvl.A) < energy_norm(x, lvl.A)

    def test_multiple_sweeps_beat_single(self, levels31_3, jacobi_smoothers):
        smoothers = jacobi_smoothers(levels31_3)
        rng = np.random.default_rng(10)
        lvl = levels31_3[0]
        worse = better = 0.0
        for _ in range(10):
            r = rng.standard_normal(31)
            x = solve_spd(lvl.A, r)
            e1 = energy_norm(v_cycle(levels31_3, 1, 1, r,
                                     smoothers=smoothers) - x, lvl.A)
            e3 = energy_norm(v_cycle(levels31_3, 3, 3, r,
                                     smoothers=smoothers) - x, lvl.A)
            worse += e1
            better += e3
        assert better < worse

    def test_rejects_bad_arguments(self, levels31_3, jacobi_smoothers):
        smoothers = jacobi_smoothers(levels31_3, FMT12)
        with pytest.raises(ValueError):
            v_cycle([], 1, 1, np.zeros(31), smoothers=[])
        with pytest.raises(ValueError):
            v_cycle(levels31_3, 0, 0, np.zeros(31), smoothers=smoothers)
        with pytest.raises(ValueError):
            v_cycle(levels31_3, 1, 1, np.zeros(31), smoothers=[])

    def test_smoothers_of_two_formats_rejected(self, levels31_3, jacobi_smoothers):
        # a V-cycle runs in one format, the one its smoothers were built for
        smoothers = [*jacobi_smoothers(levels31_3[:1], FMT12),
                     *jacobi_smoothers(levels31_3[1:], PrecisionFormat(16))]
        with pytest.raises(ValueError, match=r"one format; .* bits \[12, 16\]"):
            v_cycle(levels31_3, 1, 1, np.ones(31), smoothers=smoothers)

    def test_smoother_of_another_level_rejected(self, levels31_3, jacobi_smoothers):
        # the grids' smoothers swapped: each would relax with the other's weight
        S0, S1 = jacobi_smoothers(levels31_3[:2], FMT12)
        r = np.random.default_rng(9).standard_normal(31)
        with pytest.raises(ValueError, match="order 15, not the level's order 31"):
            v_cycle(levels31_3[:2], 1, 1, r, smoothers=[S1, S0])

    @pytest.mark.parametrize("function", [v_cycle, make_recursive_coarse])
    def test_smoothers_have_no_default(self, function):
        # the caller names every grid's smoother; none is built behind its back
        smoothers = inspect.signature(function).parameters["smoothers"]
        assert smoothers.default is inspect.Parameter.empty


class TestRecursiveCoarse:
    def test_direct_solve_has_zero_deviation(self, level31):
        assert_direct_solve(make_exact_coarse(level31), level31)

    def test_exact_solve_scales_no_mode(self, level31, monkeypatch):
        # the exact solve passes no factors, and gives the bits of the plain
        # sine-mode solve on a vector and on a block
        coarse = make_exact_coarse(level31)
        passed = []
        solve = mixedmg.cycles.solve_spd
        monkeypatch.setattr(mixedmg.cycles, "solve_spd", lambda A, b, factors=None: (
            passed.append(factors), solve(A, b, factors))[1])
        rng = np.random.default_rng(3)
        for r in (rng.standard_normal(level31.n_c), rng.standard_normal((level31.n_c, 4))):
            assert coarse.apply(r).tobytes() == solve_spd(level31.A_c, r).tobytes()
        assert passed == [None, None] and coarse.bc_deviation == 0.0

    def test_three_level_deviation_below_one(self, levels31_3, jacobi_smoothers):
        dev = make_recursive_coarse(levels31_3, 1, 1,
                                    jacobi_smoothers(levels31_3[1:])).bc_deviation
        assert 0.0 < dev < 1.0

    def test_smoothers_for_the_whole_hierarchy_rejected(self, levels31_3, jacobi_smoothers):
        # one smoother per level of levels[1:], not of levels
        with pytest.raises(ValueError, match="one smoother per level"):
            make_recursive_coarse(levels31_3, 1, 1, jacobi_smoothers(levels31_3))

    def test_deviation_equals_coarse_cycle_rho(self, levels31_3, jacobi_smoothers):
        sub = levels31_3[1:]
        smoothers = jacobi_smoothers(sub)
        dev = make_recursive_coarse(levels31_3, 1, 1, smoothers).bc_deviation
        rho_coarse = rho_star(smoothers[0], make_exact_coarse(sub[0]))
        assert dev == pytest.approx(rho_coarse, rel=1e-10)

    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_rho_star_applies_no_solver(self, levels31_3, jacobi_smoothers, monkeypatch,
                                        variant):
        # the deviation and every format's rho_star come from Fourier blocks:
        # the solver is never applied and no B_c A_c^{-1} is assembled
        applied = []
        apply = CoarseSolver.apply
        monkeypatch.setattr(CoarseSolver, "apply", lambda self, r_c: (
            applied.append(r_c.shape), apply(self, r_c))[1])
        lvl = levels31_3[0]
        solver = {
            "exact": lambda: make_exact_coarse(lvl),
            "perturbed": lambda: make_perturbed_coarse(lvl, 0.3, seed=5),
            "recursive": lambda: make_recursive_coarse(
                levels31_3, 1, 1, jacobi_smoothers(levels31_3[1:])),
        }[variant]()
        for bits in (8, 12):
            rho_star(make_jacobi(lvl.A, 2.0 / 3.0, PrecisionFormat(bits)), solver)
        assert applied == []

    @pytest.mark.parametrize("fields", [
        dict(coarse="exact"),
        dict(coarse="perturbed", sigma=0.3),
        dict(coarse="recursive", levels=3),
    ], ids=["exact", "perturbed", "recursive"])
    def test_sweep_applies_no_identity_block(self, monkeypatch, fields):
        # set-up and the rho_star of every format read Fourier blocks; only
        # the trials apply the solver, to (n_c, T) blocks
        identity_blocks = []
        apply = CoarseSolver.apply
        monkeypatch.setattr(CoarseSolver, "apply", lambda self, r_c: (
            identity_blocks.append(r_c.shape == (self.level.n_c,) * 2),
            apply(self, r_c))[1])
        run_experiment(ExperimentConfig(size=31, bits=(8, 12, 16), trials=2,
                                        **fields))
        assert identity_blocks and sum(identity_blocks) == 0

    def test_no_field_is_optional(self):
        # one coarse-solve type: the map and its Fourier form, which holds
        # the level and the deviation
        assert [f.name for f in dataclasses.fields(CoarseSolver)] == ["correction", "fourier"]
        for f in dataclasses.fields(CoarseSolver):
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name
            assert "None" not in str(f.type), f.name

    def test_recursive_solver_in_tg_cycle(self, levels31_3, jacobi_smoothers):
        smoothers = jacobi_smoothers(levels31_3[1:])
        solver = make_recursive_coarse(levels31_3, 1, 1, smoothers)
        assert solver.bc_deviation < 1.0
        r_c = np.random.default_rng(14).standard_normal(levels31_3[0].n_c)
        assert np.array_equal(solver.apply(r_c), v_cycle(
            levels31_3[1:], 1, 1, r_c, smoothers=smoothers))
        lvl = levels31_3[0]
        S = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        assert rho_star(S, solver) < 1.0
        r = np.random.default_rng(11).standard_normal(31)
        x = solve_spd(lvl.A, r)
        y, _ = tg_cycle(r, S, solver)
        assert energy_norm(y - x, lvl.A) < energy_norm(x, lvl.A)

    def test_smoothers_of_a_reduced_format_rejected(self, levels31_3, jacobi_smoothers):
        # the cycle below the coarse grid is a carrier map, as its Fourier
        # blocks certify it
        with pytest.raises(ValueError, match="runs in the carrier"):
            make_recursive_coarse(levels31_3, 1, 1, jacobi_smoothers(levels31_3[1:], FMT12))

    def test_no_grid_below_rejected(self, level31):
        # a recursive solve needs a cycle below the coarse grid
        with pytest.raises(ValueError, match="needs a grid below the coarse grid"):
            make_recursive_coarse([level31], 1, 1, [])

    def test_lower_grid_must_be_the_coarse_grid(self, levels31_3, jacobi_smoothers):
        # the deviation is the sub-cycle's norm only when levels[1].A is
        # levels[0].A_c; a lower grid with another matrix is refused
        lvl, sub = levels31_3
        other = dataclasses.replace(sub, A=SparseSpd(2 * sub.A.stencil, sub.k))
        with pytest.raises(StructureError, match="level 1 is not the coarse grid of level 0"):
            make_recursive_coarse([lvl, other], 1, 1, jacobi_smoothers([other]))


class TestProjectionChain:
    """The dense energy projector of the test oracle, which A4 reads."""

    def test_projector_energy_norm_at_most_one(self, level31):
        assert oracle.projector_energy_norm(level31) <= 1.0 + 10 * EPS

    def test_projector_idempotent(self, level31):
        T = oracle.coarse_complement_projector(level31)
        assert np.linalg.norm(T @ T - T, 2) <= 1e3 * EPS

    def test_projector_annihilates_coarse_range(self, level31):
        T = oracle.coarse_complement_projector(level31)
        rng = np.random.default_rng(12)
        for _ in range(10):
            wc = rng.standard_normal(level31.n_c)
            image = T @ (level31.P @ wc)
            assert np.linalg.norm(image) <= 1e-10 * np.linalg.norm(level31.P @ wc)
