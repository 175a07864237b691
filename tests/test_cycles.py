"""Relaxation operators, coarse solvers, instrumented cycles, V-cycles."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import dense_oracle as oracle
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
    rho_star,
    round_scalar,
    solve_spd,
    tg_cycle,
    v_cycle,
)
from mixedmg.cycles import CoarseSolver, _cycle
from mixedmg.harness import ExperimentConfig, run_experiment
from mixedmg.hierarchy import linear_interpolation, poisson_1d

EPS = float(np.finfo(np.float64).eps)
FMT12 = PrecisionFormat(12)


def _exact_stages(level, r, M, N, coarse):
    """The intermediates of the exact two-grid cycle, by stage name."""
    return dict(_cycle(level, r, M, N, 1, 1, coarse.apply, CARRIER))


def assert_direct_solve(solver, level):
    """The solver is the exact coarse solve: no deviation, and its
    correction is ``solve_spd`` bit for bit."""
    r_c = np.random.default_rng(13).standard_normal((level.n_c, 3))
    assert solver.bc_deviation == 0.0
    assert np.array_equal(solver.apply(r_c), solve_spd(level.A_c, r_c))


@pytest.fixture(scope="module")
def jacobi31(level31):
    M = make_jacobi(level31.A, 2.0 / 3.0, FMT12)
    N = make_jacobi(level31.A, 2.0 / 3.0, FMT12)
    return M, N


class TestMakeJacobi:
    def test_identity_matrix_gives_identity_operator(self):
        M = make_jacobi(SparseSpd(np.eye(5)), 1.0, FMT12)
        assert (M.w, M.n) == (1.0, 5)
        assert M.contraction == pytest.approx(0.0, abs=1e-14)
        assert M.eta_euclid == 1.0

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
        M, _ = jacobi31
        with pytest.raises(ValueError):
            M.apply_rounded(np.ones(31), PrecisionFormat(8))


class TestMakeRichardson:
    def test_scalar_operator(self):
        lvl = normalize_hierarchy(poisson_1d(7), linear_interpolation(7))
        R = make_richardson(lvl.A, 0.9, FMT12)
        assert (R.w, R.n) == (round_scalar(0.9, FMT12), 7)
        assert R.contraction < 1.0
        assert R.eta_energy == pytest.approx(R.eta_euclid, rel=1e-12)


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
        M, N = jacobi31
        y = _exact_stages(level31, np.zeros(31), M, N, make_exact_coarse(level31))["y"]
        assert np.array_equal(y, np.zeros(31))

    def test_error_within_rho_star(self, level31, jacobi31):
        M, N = jacobi31
        coarse = make_exact_coarse(level31)
        rho = rho_star(level31, M, N, coarse)
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            y = _exact_stages(level31, r, M, N, coarse)["y"]
            assert (energy_norm(y - x, level31.A)
                    <= rho * energy_norm(x, level31.A) * (1 + 1e-11))

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9])
    def test_intermediate_iterate_does_not_grow(self, level31, jacobi31, sigma):
        # the corrected iterate before post-relaxation cannot increase the
        # initial energy error, for any coarse perturbation below one
        M, N = jacobi31
        coarse = make_perturbed_coarse(level31, sigma, seed=5)
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            stages = _exact_stages(level31, r, M, N, coarse)
            xn = energy_norm(x, level31.A)
            assert energy_norm(stages["y_nu"] - x, level31.A) <= (1 + 1e-10) * xn

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9])
    def test_coarse_correction_euclid_bound(self, level31, jacobi31, sigma):
        M, N = jacobi31
        coarse = make_perturbed_coarse(level31, sigma, seed=5)
        bound_factor = 2.0 * math.sqrt(level31.kappa_c)
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            stages = _exact_stages(level31, r, M, N, coarse)
            assert (np.linalg.norm(stages["d_c"])
                    <= bound_factor * energy_norm(x, level31.A) * (1 + 1e-12))

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9])
    def test_result_energy_bound(self, level31, jacobi31, sigma):
        M, N = jacobi31
        coarse = make_perturbed_coarse(level31, sigma, seed=5)
        assert rho_star(level31, M, N, coarse) < 1.0
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            y = _exact_stages(level31, r, M, N, coarse)["y"]
            assert (energy_norm(y, level31.A)
                    <= 2.0 * energy_norm(x, level31.A) * (1 + 1e-12))


class TestTgCycle:
    def test_zero_rhs_gives_zero(self, level31, jacobi31):
        M, N = jacobi31
        y, trace = tg_cycle(level31, np.zeros(31), M, N, make_exact_coarse(level31), FMT12)
        assert np.array_equal(y, np.zeros(31))
        assert trace.delta_y_energy == 0.0

    def test_trace_norms_finite_nonnegative(self, level31, jacobi31):
        M, N = jacobi31
        r = np.random.default_rng(5).standard_normal(31)
        _, trace = tg_cycle(level31, r, M, N, make_exact_coarse(level31), FMT12)
        assert set(trace.line_norms) == set(PROOF_LINES)
        for v in trace.line_norms.values():
            assert np.isfinite(v) and v >= 0.0

    def test_carrier_format_matches_reference(self):
        levels = [normalize_hierarchy(poisson_1d(3), linear_interpolation(3))]
        lvl = levels[0]
        M = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        N = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        rng = np.random.default_rng(6)
        tol = 1e3 * EPS * math.sqrt(lvl.kappa)
        for _ in range(20):
            r = rng.standard_normal(3)
            y, trace = tg_cycle(lvl, r, M, N, make_exact_coarse(lvl), CARRIER)
            x = solve_spd(lvl.A, r)
            rel = energy_norm(y - trace.y_reference, lvl.A) / energy_norm(x, lvl.A)
            assert rel <= tol

    def test_final_error_bound_single_config(self, level31, jacobi31):
        from mixedmg.harness import bound_inputs_for
        from mixedmg.bounds import compute_constants

        M, N = jacobi31
        coarse = make_exact_coarse(level31)
        rho = rho_star(level31, M, N, coarse)
        report = compute_constants(
            bound_inputs_for(level31, M, N, FMT12), rho_star=rho)
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = rng.standard_normal(31)
            x = solve_spd(level31.A, r)
            y, _ = tg_cycle(level31, r, M, N, coarse, FMT12)
            assert (energy_norm(y - x, level31.A)
                    <= report.rho_tg * energy_norm(x, level31.A))

    @pytest.mark.parametrize("problem, size, levels, variant, T", [
        ("poisson1d", 255, 2, "exact", 50),
        ("poisson1d", 255, 4, "recursive", 50),
        ("poisson2d", 31, 2, "exact", 20),
        ("poisson2d", 31, 2, "perturbed", 20),
    ])
    def test_lockstep_trace_peak_memory(self, jacobi_pairs, problem, size,
                                        levels, variant, T):
        # the cycle and its reference advance stage by stage and drop every
        # stage no later line reads, so a cycle holds a few blocks at a time
        import tracemalloc

        hierarchy = build_multilevel(size, levels, problem=problem)
        lvl = hierarchy[0]
        coarse = {"exact": lambda: make_exact_coarse(lvl),
                  "perturbed": lambda: make_perturbed_coarse(lvl, 0.3, seed=1),
                  "recursive": lambda: make_recursive_coarse(
                      hierarchy, 1, 1, jacobi_pairs(hierarchy[1:]))}[variant]()
        M = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        r = np.random.default_rng(8).standard_normal((lvl.n, T))
        tg_cycle(lvl, r, M, M, coarse, FMT12)  # first use fills the set-up caches
        tracemalloc.start()
        try:
            tg_cycle(lvl, r, M, M, coarse, FMT12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * r.nbytes


class TestRhoStar:
    def test_exact_inverse_smoother_gives_zero(self):
        # identity system: Richardson with omega = 1 is the exact inverse
        lvl = normalize_hierarchy(
            SparseSpd(np.eye(3)), sparse.csr_array(np.array([[0.5], [1.0], [0.5]])))
        M = make_richardson(lvl.A, 1.0, CARRIER)
        assert rho_star(lvl, M, M, make_exact_coarse(lvl)) == pytest.approx(0.0, abs=1e-13)

    def test_smallest_poisson_in_unit_interval(self):
        lvl = normalize_hierarchy(poisson_1d(3), linear_interpolation(3))
        M = make_jacobi(lvl.A, 2.0 / 3.0, CARRIER)
        value = rho_star(lvl, M, M, make_exact_coarse(lvl))
        assert 0.0 < value < 1.0

    def test_perturbation_does_not_improve(self, level31, jacobi31):
        M, N = jacobi31
        base = rho_star(level31, M, N, make_exact_coarse(level31))
        for sigma in (0.3, 0.9):
            perturbed = rho_star(
                level31, M, N, make_perturbed_coarse(level31, sigma, seed=5))
            assert base <= perturbed + 1e-12


class TestVCycle:
    def test_zero_rhs(self, levels31_3, jacobi_pairs):
        y = v_cycle(levels31_3, 1, 1, np.zeros(31), FMT12,
                    smoothers=jacobi_pairs(levels31_3, FMT12))
        assert np.array_equal(y, np.zeros(31))

    def test_two_level_bitwise_identity_with_tg(self, level31, jacobi31):
        M, N = jacobi31
        rng = np.random.default_rng(8)
        for _ in range(10):
            r = rng.standard_normal(31)
            y_tg, _ = tg_cycle(level31, r, M, N, make_exact_coarse(level31), FMT12)
            y_v = v_cycle([level31], 1, 1, r, FMT12, smoothers=[(M, N)])
            assert np.array_equal(y_tg, y_v)

    def test_three_level_reduces_energy_error(self, levels31_3, jacobi_pairs):
        fmt = PrecisionFormat(16)
        smoothers = jacobi_pairs(levels31_3, fmt)
        rng = np.random.default_rng(9)
        lvl = levels31_3[0]
        for _ in range(10):
            r = rng.standard_normal(31)
            x = solve_spd(lvl.A, r)
            y = v_cycle(levels31_3, 1, 1, r, fmt, smoothers=smoothers)
            assert energy_norm(y - x, lvl.A) < energy_norm(x, lvl.A)

    def test_multiple_sweeps_beat_single(self, levels31_3, jacobi_pairs):
        smoothers = jacobi_pairs(levels31_3)
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

    def test_rejects_bad_arguments(self, levels31_3, jacobi_pairs):
        smoothers = jacobi_pairs(levels31_3, FMT12)
        with pytest.raises(ValueError):
            v_cycle([], 1, 1, np.zeros(31), FMT12, smoothers=[])
        with pytest.raises(ValueError):
            v_cycle(levels31_3, 0, 0, np.zeros(31), FMT12, smoothers=smoothers)
        with pytest.raises(ValueError):
            v_cycle(levels31_3, 1, 1, np.zeros(31), FMT12, smoothers=[])

    @pytest.mark.parametrize("function", [v_cycle, make_recursive_coarse])
    def test_smoothers_have_no_default(self, function):
        # the caller names every grid's smoother; none is built behind its back
        smoothers = inspect.signature(function).parameters["smoothers"]
        assert smoothers.default is inspect.Parameter.empty


class TestRecursiveCoarse:
    def test_direct_solve_has_zero_deviation(self, level31):
        dev = make_recursive_coarse([level31], 1, 1, []).bc_deviation
        assert dev <= 1e-10

    def test_three_level_deviation_below_one(self, levels31_3, jacobi_pairs):
        dev = make_recursive_coarse(levels31_3, 1, 1,
                                    jacobi_pairs(levels31_3[1:])).bc_deviation
        assert 0.0 < dev < 1.0

    def test_smoothers_for_the_whole_hierarchy_rejected(self, levels31_3, jacobi_pairs):
        # one pair per level of levels[1:], not of levels
        with pytest.raises(ValueError, match="one smoother pair per level"):
            make_recursive_coarse(levels31_3, 1, 1, jacobi_pairs(levels31_3))

    def test_deviation_equals_coarse_cycle_rho(self, levels31_3, jacobi_pairs):
        sub = levels31_3[1:]
        smoothers = jacobi_pairs(sub)
        dev = make_recursive_coarse(levels31_3, 1, 1, smoothers).bc_deviation
        M, N = smoothers[0]
        rho_coarse = rho_star(sub[0], M, N, make_exact_coarse(sub[0]))
        assert dev == pytest.approx(rho_coarse, rel=1e-10)

    @pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
    def test_rho_star_applies_no_solver(self, levels31_3, jacobi_pairs, monkeypatch,
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
                levels31_3, 1, 1, jacobi_pairs(levels31_3[1:])),
        }[variant]()
        for bits in (8, 12):
            M = make_jacobi(lvl.A, 2.0 / 3.0, PrecisionFormat(bits))
            rho_star(lvl, M, M, solver)
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
        # one coarse-solve type: the map, its Fourier form and its deviation
        assert [f.name for f in dataclasses.fields(CoarseSolver)] == [
            "level", "correction", "fourier", "bc_deviation"]
        for f in dataclasses.fields(CoarseSolver):
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name
            assert "None" not in str(f.type), f.name

    def test_solver_of_another_level_rejected(self, levels31_3):
        lvl, sub = levels31_3
        M = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        with pytest.raises(ValueError, match="different level"):
            rho_star(lvl, M, M, make_exact_coarse(sub))
        with pytest.raises(ValueError, match="different level"):
            tg_cycle(lvl, np.ones(lvl.n), M, M, make_exact_coarse(sub), FMT12)

    def test_recursive_solver_in_tg_cycle(self, levels31_3, jacobi_pairs):
        smoothers = jacobi_pairs(levels31_3[1:])
        solver = make_recursive_coarse(levels31_3, 1, 1, smoothers)
        assert solver.bc_deviation < 1.0
        r_c = np.random.default_rng(14).standard_normal(levels31_3[0].n_c)
        assert np.array_equal(solver.apply(r_c), v_cycle(
            levels31_3[1:], 1, 1, r_c, CARRIER, smoothers=smoothers))
        lvl = levels31_3[0]
        M = make_jacobi(lvl.A, 2.0 / 3.0, FMT12)
        rho = rho_star(lvl, M, M, solver)
        assert rho < 1.0
        r = np.random.default_rng(11).standard_normal(31)
        x = solve_spd(lvl.A, r)
        y, _ = tg_cycle(lvl, r, M, M, solver, FMT12)
        assert energy_norm(y - x, lvl.A) < energy_norm(x, lvl.A)

    def test_two_level_recursion_degenerates_to_exact(self, level31):
        assert_direct_solve(make_recursive_coarse([level31], 1, 1, []), level31)


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
