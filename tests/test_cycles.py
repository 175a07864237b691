"""Relaxation operators, coarse solvers, instrumented cycles, V-cycles."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import dense_oracle as oracle
import mixedmg.cycles
from mixedmg import (
    CARRIER,
    ContractionError,
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
    normalize_hierarchy,
    quantize_vector,
    rho_star,
    solve_spd,
    tg_cycle,
    v_cycle,
)
from mixedmg.cycles import CoarseSolver, _cycle, _operations
from mixedmg.fourier import StructureError
from mixedmg.harness import ExperimentConfig, run_experiment
from mixedmg.hierarchy import linear_interpolation, poisson_1d

EPS = float(np.finfo(np.float64).eps)
FMT12 = PrecisionFormat(12)


def exact_stages(r, S, coarse):
    """The intermediates of the exact two-grid cycle, by stage name."""
    ops, stages = _operations(coarse.level, S, coarse.apply, CARRIER), {}

    def stage(name, op, *inputs):
        stages[name] = ops[op](*inputs)
        return stages[name]

    _cycle(r, 1, 1, stage)
    return stages


def _six_bits_short(kernel):
    """``kernel`` run with six fewer significand bits than the format it is given."""
    def short(*args, **kwargs):
        *args, fmt = args
        return kernel(*args, PrecisionFormat(fmt.significand_bits - 6), **kwargs)
    return short


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
        M = make_jacobi(SparseSpd(np.eye(5)), 1.0, FMT12)
        assert (M.w, M.n) == (1.0, 5)
        assert M.contraction == pytest.approx(0.0, abs=1e-14)
        assert M.eta == 1.0

    def test_contracts_on_scaled_poisson(self):
        lvl = normalize_hierarchy(poisson_1d(7), linear_interpolation(7))
        M = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        assert M.contraction < 1.0
        # independent check: eigenvalue magnitudes of the error propagator
        prop = np.eye(7) - M.w * lvl.A.matrix.toarray()
        lams = scipy.linalg.eigvals(prop)
        assert np.abs(lams).max() <= M.contraction + 1e-12

    def test_overrelaxation_rejected(self):
        lvl = normalize_hierarchy(poisson_1d(7), linear_interpolation(7))
        with pytest.raises(ContractionError):
            make_jacobi(lvl.A, 4.0, FMT12)

    def test_alpha_certification_1000_draws(self, level31):
        M = make_jacobi(level31.A, 2.0 / 3.0, FMT12)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            z = rng.standard_normal(31)
            out = M.apply_rounded(z, FMT12)
            value, bound = out.value, out.a_priori_bound
            err = np.linalg.norm(value - M.apply_exact(z))
            assert err <= bound
            assert bound <= M.alpha * FMT12.unit_roundoff * np.linalg.norm(z) * (1 + 1e-15)

    def test_format_mismatch_rejected(self, jacobi31):
        with pytest.raises(ValueError):
            jacobi31.apply_rounded(np.ones(31), PrecisionFormat(8))


class TestMakeRichardson:
    def test_scalar_operator(self):
        lvl = normalize_hierarchy(poisson_1d(7), linear_interpolation(7))
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
        y, trace = tg_cycle(np.zeros(31), S, make_exact_coarse(level31), FMT12)
        assert np.array_equal(y, np.zeros(31))
        assert np.array_equal(trace.y_reference, np.zeros(31))

    def test_trace_norms_finite_nonnegative(self, level31, jacobi31):
        S = jacobi31
        r = np.random.default_rng(5).standard_normal(31)
        _, trace = tg_cycle(r, S, make_exact_coarse(level31), FMT12)
        assert list(trace.line_norms) == list(PROOF_LINES)
        for v in trace.line_norms.values():
            assert np.isfinite(v) and v >= 0.0

    def test_carrier_format_matches_reference(self):
        levels = [normalize_hierarchy(poisson_1d(3), linear_interpolation(3))]
        lvl = levels[0]
        S = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        rng = np.random.default_rng(6)
        tol = 1e3 * EPS * math.sqrt(lvl.kappa)
        for _ in range(20):
            r = rng.standard_normal(3)
            y, trace = tg_cycle(r, S, make_exact_coarse(lvl), CARRIER)
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
            bound_inputs_for(level31, S, FMT12), rho_star=rho)
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            y, _ = tg_cycle(r, S, coarse, FMT12)
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

    def test_smoother_of_another_level_rejected(self, levels31_3, jacobi_smoothers):
        S1 = jacobi_smoothers(levels31_3[1:2], FMT12)[0]
        r = np.random.default_rng(9).standard_normal(31)
        with pytest.raises(ValueError, match="order 15, not the level's order 31"):
            tg_cycle(r, S1, make_exact_coarse(levels31_3[0]), FMT12)

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

    @pytest.mark.parametrize("problem, size, levels, variant, T", [
        ("poisson1d", 255, 2, "exact", 50),
        ("poisson1d", 255, 4, "recursive", 50),
        ("poisson2d", 31, 2, "exact", 20),
        ("poisson2d", 31, 2, "perturbed", 20),
    ])
    def test_lockstep_trace_peak_memory(self, jacobi_smoothers, problem, size,
                                        levels, variant, T):
        # the cycle runs on pairs of computed and reference values and holds
        # a stage only while a later step reads it, so it holds a few blocks
        import tracemalloc

        hierarchy = build_multilevel(size, levels, problem=problem)
        lvl = hierarchy[0]
        coarse = {"exact": lambda: make_exact_coarse(lvl),
                  "perturbed": lambda: make_perturbed_coarse(lvl, 0.3, seed=1),
                  "recursive": lambda: make_recursive_coarse(
                      hierarchy, 1, 1, jacobi_smoothers(hierarchy[1:]))}[variant]()
        S = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        r = np.random.default_rng(8).standard_normal((lvl.n, T))
        tg_cycle(r, S, coarse, FMT12)  # first use fills the set-up caches
        tracemalloc.start()
        try:
            tg_cycle(r, S, coarse, FMT12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * r.nbytes


class TestRhoStar:
    def test_exact_inverse_smoother_gives_zero(self):
        # identity system: Richardson with omega = 1 is the exact inverse
        lvl = normalize_hierarchy(
            SparseSpd(np.eye(3)), sparse.csr_array(np.array([[0.5], [1.0], [0.5]])))
        S = make_richardson(lvl.A, 1.0, CARRIER)
        assert rho_star(S, make_exact_coarse(lvl)) == pytest.approx(0.0, abs=1e-13)

    def test_smallest_poisson_in_unit_interval(self):
        lvl = normalize_hierarchy(poisson_1d(3), linear_interpolation(3))
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
        y = v_cycle(levels31_3, 1, 1, np.zeros(31), FMT12,
                    smoothers=jacobi_smoothers(levels31_3, FMT12))
        assert np.array_equal(y, np.zeros(31))

    def test_two_level_bitwise_identity_with_tg(self, level31, jacobi31):
        S = jacobi31
        rng = np.random.default_rng(8)
        for _ in range(10):
            r = rng.standard_normal(31)
            y_tg, _ = tg_cycle(r, S, make_exact_coarse(level31), FMT12)
            y_v = v_cycle([level31], 1, 1, r, FMT12, smoothers=[S])
            assert np.array_equal(y_tg, y_v)

    def test_three_level_reduces_energy_error(self, levels31_3, jacobi_smoothers):
        fmt = PrecisionFormat(16)
        smoothers = jacobi_smoothers(levels31_3, fmt)
        rng = np.random.default_rng(9)
        lvl = levels31_3[0]
        for _ in range(10):
            r = rng.standard_normal(31)
            x = solve_spd(lvl.A, r)
            y = v_cycle(levels31_3, 1, 1, r, fmt, smoothers=smoothers)
            assert energy_norm(y - x, lvl.A) < energy_norm(x, lvl.A)

    def test_multiple_sweeps_beat_single(self, levels31_3, jacobi_smoothers):
        smoothers = jacobi_smoothers(levels31_3)
        rng = np.random.default_rng(10)
        lvl = levels31_3[0]
        worse = better = 0.0
        for _ in range(10):
            r = rng.standard_normal(31)
            x = solve_spd(lvl.A, r)
            e1 = energy_norm(v_cycle(levels31_3, 1, 1, r, CARRIER,
                                     smoothers=smoothers) - x, lvl.A)
            e3 = energy_norm(v_cycle(levels31_3, 3, 3, r, CARRIER,
                                     smoothers=smoothers) - x, lvl.A)
            worse += e1
            better += e3
        assert better < worse

    def test_rejects_bad_arguments(self, levels31_3, jacobi_smoothers):
        smoothers = jacobi_smoothers(levels31_3, FMT12)
        with pytest.raises(ValueError):
            v_cycle([], 1, 1, np.zeros(31), FMT12, smoothers=[])
        with pytest.raises(ValueError):
            v_cycle(levels31_3, 0, 0, np.zeros(31), FMT12, smoothers=smoothers)
        with pytest.raises(ValueError):
            v_cycle(levels31_3, 1, 1, np.zeros(31), FMT12, smoothers=[])

    def test_smoother_of_another_level_rejected(self, levels31_3, jacobi_smoothers):
        # the grids' smoothers swapped: each would relax with the other's weight
        S0, S1 = jacobi_smoothers(levels31_3[:2], FMT12)
        r = np.random.default_rng(9).standard_normal(31)
        with pytest.raises(ValueError, match="order 15, not the level's order 31"):
            v_cycle(levels31_3[:2], 1, 1, r, FMT12, smoothers=[S1, S0])

    @pytest.mark.parametrize("function", [v_cycle, make_recursive_coarse])
    def test_smoothers_have_no_default(self, function):
        # the caller names every grid's smoother; none is built behind its back
        smoothers = inspect.signature(function).parameters["smoothers"]
        assert smoothers.default is inspect.Parameter.empty


class TestRecursiveCoarse:
    def test_direct_solve_has_zero_deviation(self, level31):
        assert_direct_solve(make_exact_coarse(level31), level31)

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
            levels31_3[1:], 1, 1, r_c, CARRIER, smoothers=smoothers))
        lvl = levels31_3[0]
        S = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        assert rho_star(S, solver) < 1.0
        r = np.random.default_rng(11).standard_normal(31)
        x = solve_spd(lvl.A, r)
        y, _ = tg_cycle(r, S, solver, FMT12)
        assert energy_norm(y - x, lvl.A) < energy_norm(x, lvl.A)

    def test_no_grid_below_rejected(self, level31):
        # a recursive solve needs a cycle below the coarse grid
        with pytest.raises(ValueError, match="needs a grid below the coarse grid"):
            make_recursive_coarse([level31], 1, 1, [])

    def test_lower_grid_must_be_the_coarse_grid(self, levels31_3, jacobi_smoothers):
        # the deviation is the sub-cycle's norm only when levels[1].A is
        # levels[0].A_c; a lower grid with another matrix is refused
        lvl, sub = levels31_3
        other = dataclasses.replace(sub, A=SparseSpd(2 * sub.A.matrix))
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
