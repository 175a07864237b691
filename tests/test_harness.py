"""Experiment harness: configs, determinism, CSV self-consistency, CLI."""

import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedmg import (
    CARRIER,
    CARRIER_BITS,
    ContractionError,
    PrecisionFormat,
    RelaxationOp,
    build_multilevel,
    make_recursive_coarse,
)
from mixedmg import harness
from mixedmg.cli import main as cli_main
from mixedmg.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TRIAL_COLUMNS,
    TrialRecord,
    _make_coarse,
    load_config,
    make_smoother,
    progressive_study,
    read_csv_rows,
    render_csv,
    run_experiment,
    trial_passed,
    validate_csv,
    write_csv,
)

WORKLOADS = json.loads((Path(__file__).resolve().parent.parent / "bench" / "spec.json")
                       .read_text())["workloads"]

CONFIG_TEXT = """\
[problem]
kind = poisson1d
size = 15
levels = 2

[smoother]
kind = jacobi
omega = 0.6666666666666666

[coarse]
kind = exact

[precision]
bits = 8 12

[run]
trials = 5
seed = 99
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(CONFIG_TEXT)
    return path


class TestConfig:
    def test_load_ini(self, config_file):
        cfg = load_config(config_file)
        assert cfg.problem == "poisson1d"
        assert cfg.size == 15
        assert cfg.bits == (8, 12)
        assert cfg.trials == 5
        assert cfg.rng_seed == 99
        assert cfg.pi_target is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_rejects_uncoarsenable_size(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(size=12)

    @pytest.mark.parametrize("fields", [
        dict(coarse="exact", sigma=0.3),
        dict(coarse="recursive", sigma=0.3),
        dict(coarse="exact", mu=3, nu=0),
        dict(coarse="perturbed", sigma=0.3, nu=2),
    ], ids=["sigma-exact", "sigma-recursive", "mu-nu-exact", "nu-perturbed"])
    def test_rejects_coarse_keys_the_solver_ignores(self, fields):
        with pytest.raises(ConfigError):
            ExperimentConfig(size=15, **fields)

    @pytest.mark.parametrize("fields, key", [
        (dict(omega=float("nan")), "omega"),
        (dict(omega=float("inf")), "omega"),
        (dict(omega=-1.0), "omega"),
        (dict(omega=0.0), "omega"),
        (dict(rng_seed=-3), "seed"),
    ], ids=["omega-nan", "omega-inf", "omega-negative", "omega-zero",
            "seed-negative"])
    def test_rejects_bad_omega_and_seed(self, fields, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(size=15, **fields)

    @pytest.mark.parametrize("fields, key", [
        (dict(bits=(1,)), "bits"),
        (dict(bits=(12, 54)), "bits"),
        (dict(bits=(8, 12.5)), "bits"),
        (dict(bits=("12",)), "bits"),
        (dict(bits=(), pi_target=0.0), "pi_target"),
        (dict(bits=(), pi_target=1.0), "pi_target"),
        (dict(bits=(), pi_target=float("nan")), "pi_target"),
        (dict(coarse="recursive", levels=3, mu=-1, nu=2), "mu"),
        (dict(coarse="recursive", levels=3, mu=1, nu=-1), "nu"),
        (dict(coarse="recursive", levels=3, mu=0, nu=0), "mu"),
        (dict(coarse="recursive", mu=2, nu=0), "levels"),
        (dict(coarse="recursive"), "levels"),
        (dict(levels=5), "levels"),
        (dict(coarse="perturbed", sigma=0.3, levels=3), "levels"),
    ], ids=["bits-1", "bits-54", "bits-12.5", "bits-str", "pi-target-zero",
            "pi-target-one", "pi-target-nan", "mu-negative", "nu-negative", "no-sweep",
            "recursive-two-grids-mu-nu", "recursive-two-grids",
            "exact-five-grids", "perturbed-three-grids"])
    def test_rejects_values_that_fail_late_or_never_run(self, fields, key):
        # each failed only after set-up, ran the exact solve under a recursive
        # label (recursive on two grids), or built grids no solver read
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(size=31, **fields)

    @pytest.mark.parametrize("key, value", [
        ("trials", 2.5), ("trials", True), ("size", 15.0), ("rng_seed", 1.5),
        ("mu", 1.5), ("nu", 1.0), ("levels", 3.0), ("trials", "3"),
    ])
    def test_rejects_counts_that_are_not_integers(self, key, value):
        # each died inside the run with a numpy TypeError, or ran True as 1
        fields = dict(size=15, coarse="recursive", levels=3)
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            ExperimentConfig(**{**fields, key: value})

    @pytest.mark.parametrize("key, value", [
        ("omega", True), ("sigma", False), ("pi_target", True), ("omega", "1.0"),
    ])
    def test_rejects_reals_that_are_not_numbers(self, key, value):
        fields = dict(size=15, coarse="perturbed", bits=())
        with pytest.raises(ConfigError, match=f"^{key} must be a real number"):
            ExperimentConfig(**{**fields, "pi_target": 0.5, key: value})

    def test_reals_are_stored_as_floats(self):
        # the same Richardson run wrote omega as 1.0, 1 or true
        csvs = []
        for omega in (1.0, 1, np.float64(1.0)):
            cfg = ExperimentConfig(size=15, smoother="richardson", omega=omega,
                                   bits=(12,), trials=1)
            assert type(cfg.omega) is float
            csvs.append(render_csv(run_experiment(cfg)))
        assert csvs[0] == csvs[1] == csvs[2]
        cfg = ExperimentConfig(size=15, coarse="perturbed", sigma=0, bits=(),
                               pi_target=np.float32(0.5))
        assert (type(cfg.sigma), type(cfg.pi_target)) == (float, float)

    def test_rejects_empty_precisions(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(bits=(), pi_target=None)

    def test_pi_target_leaves_bits_empty(self):
        # a pi_target runs only its own format; the default list stayed
        # beside it and misled every reader of config.bits
        assert ExperimentConfig(size=15, pi_target=0.01, trials=2).bits == ()
        assert ExperimentConfig(size=15, trials=2).bits == (8, 12, 16, 23)
        rows = run_experiment(ExperimentConfig(size=15, pi_target=0.01, trials=2))
        assert [rec.report.significand_bits for rec in rows] == [10, 10]

    @pytest.mark.parametrize("bits", [(8, 12), (8, 12, 16, 23), (10,)])
    def test_rejects_bits_beside_pi_target(self, bits):
        # they were accepted and then ignored: only the pi_target's format ran
        with pytest.raises(ConfigError, match="^set either bits or pi_target, not both$"):
            ExperimentConfig(size=15, bits=bits, pi_target=0.01)

    def test_bits_are_stored_as_a_tuple_of_ints(self):
        # the frozen config hashes, and a list gives the config of its tuple
        cfg = ExperimentConfig(size=15, bits=[8, np.int64(12)], trials=1)
        assert cfg.bits == (8, 12) and all(type(bits) is int for bits in cfg.bits)
        assert cfg == ExperimentConfig(size=15, bits=(8, 12), trials=1)
        assert hash(cfg) == hash(ExperimentConfig(size=15, bits=(8, 12), trials=1))
        with pytest.raises(ConfigError, match="^bits must be a sequence of integers"):
            ExperimentConfig(bits=8)

    @pytest.mark.parametrize("bits, repeated", [((8, 8), 8), ((12, 8, 16, 8, 12), 8)])
    def test_rejects_a_repeated_format(self, bits, repeated):
        # each format draws its trials from one stream seeded by its width, so
        # a repeated width would write the same rows twice
        with pytest.raises(ConfigError, match=f"^bits: format {repeated} is listed more"):
            ExperimentConfig(size=15, bits=bits, trials=1)

    def test_rejects_unknown_variants(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="heat3d")
        with pytest.raises(ConfigError):
            ExperimentConfig(smoother="sor")
        with pytest.raises(ConfigError):
            ExperimentConfig(coarse="amg")

    @pytest.mark.parametrize("old, new", [
        ("[run]", "[runn]"),                       # misspelled section
        ("bits = 8 12", "bit = 8 12"),             # misspelled key
        ("kind = exact", "kind = exact\nsigam = 0.1"),  # unknown key
        ("[problem]", "[DEFAULT]\nsize = 15\n\n[problem]"),
    ])
    def test_rejects_unknown_names(self, tmp_path, old, new):
        path = tmp_path / "typo.ini"
        path.write_text(CONFIG_TEXT.replace(old, new, 1))
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)

    def test_rejects_bits_and_pi_target(self, tmp_path):
        path = tmp_path / "both.ini"
        path.write_text(CONFIG_TEXT.replace(
            "bits = 8 12", "bits = 8 12\npi_target = 0.00390625"))
        with pytest.raises(ConfigError, match="not both"):
            load_config(path)

    def test_readme_config_block_loads(self, tmp_path):
        # the INI block under "### Config file" in the README, as printed
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("### Config file"):]
        block = section[section.index("```ini\n") + 7:]
        path = tmp_path / "readme.ini"
        path.write_text(block[:block.index("```")])
        cfg = load_config(path)
        assert (cfg.problem, cfg.size, cfg.coarse, cfg.bits) == (
            "poisson1d", 31, "exact", (8, 12, 16, 23))

    def test_rejects_unparsable_file(self, tmp_path):
        path = tmp_path / "headless.ini"
        path.write_text("size = 15\n" + CONFIG_TEXT)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("out", ["results/a%b.csv", "%(trials)s.csv"])
    def test_values_read_literally(self, tmp_path, out):
        # no interpolation: a bare % raised, and %(trials)s became 5.csv
        path = tmp_path / "percent.ini"
        path.write_text(CONFIG_TEXT + f"out = {out}\n")
        assert load_config(path).output_path == out


def render_with_csv_writer(records) -> str:
    """Every row through ``csv.writer``, each cell by ``harness._format_cell``."""
    buf = io.StringIO()
    buf.write(harness.CSV_HEADER_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        cells = (rec.report.csv_fields()
                 + [getattr(rec.config, name) for name in harness._CONFIG_COLUMNS]
                 + [rec.trial, rec.ref_error, rec.fp_error, rec.measured_ratio]
                 + [rec.line_ratios[name] for name in harness.PROOF_LINES]
                 + [rec.passed])
        writer.writerow([harness._format_cell(c) for c in cells])
    return buf.getvalue()


class TestRunExperiment:
    @pytest.mark.parametrize("bits", [8, 12, CARRIER_BITS])
    def test_bound_inputs_take_eps_from_the_smoother(self, level15, bits):
        # the smoother carries its format: no second format can disagree
        S = make_smoother("jacobi", level15.A, 2.0 / 3.0, PrecisionFormat(bits))
        assert harness.bound_inputs_for(level15, S).eps == S.fmt.unit_roundoff == 2.0**-bits

    @pytest.mark.parametrize("name", ["default_sweep.csv", "sweep_n15.csv",
                                      "sweep_n31.csv", "sweep_n63.csv"])
    def test_render_csv_matches_csv_writer(self, name):
        from test_golden import _GOLDEN

        records = run_experiment(_GOLDEN[name])
        assert render_csv(records) == render_with_csv_writer(records)

    def test_render_csv_reads_cells_by_value_and_name(self):
        # numpy float64 cells render as their float values, and the line
        # ratios by name, whatever the order of the record's dict
        records = run_experiment(ExperimentConfig(size=15, bits=(8, 12), trials=3))
        made = [dataclasses.replace(
            rec, ref_error=np.float64(rec.ref_error), fp_error=np.float64(rec.fp_error),
            measured_ratio=np.float64(rec.measured_ratio),
            line_ratios={name: np.float64(rec.line_ratios[name])
                         for name in reversed(harness.PROOF_LINES)})
            for rec in records]
        assert render_csv(made) == render_with_csv_writer(made) == render_csv(records)

    @pytest.mark.parametrize("smoother", ["jacobi", "richardson"])
    def test_a_format_the_2d_restriction_cannot_model_is_refused_at_set_up(
            self, monkeypatch, smoother):
        # the rows of P' hold 9 entries in 2D: (9 + 1) 2^-3 >= 1, although
        # the 5 of A and the 4 of P pass; no set-up after the check is wasted
        from mixedmg import PrecisionTooLowError

        calls = []
        for name in ("tg_cycle", "rho_star", "make_smoother"):
            monkeypatch.setattr(harness, name, lambda *a, name=name, **k: calls.append(name))
        with pytest.raises(PrecisionTooLowError, match=r"^\(m \+ 1\) \* u = 1\.25 >= 1"):
            run_experiment(ExperimentConfig(problem="poisson2d", size=7, bits=(3,),
                                            smoother=smoother, trials=1))
        assert calls == []

    @pytest.mark.parametrize("problem, size", [("poisson1d", 63), ("poisson2d", 15)])
    def test_trial_blocks_are_c_ordered(self, monkeypatch, problem, size):
        # every block of the trial path is C-contiguous, so the kernels
        # gather contiguous rows and no product copies its operand first
        seen = []

        def checked(fn, block):
            def wrapper(*args):
                seen.append(args[block].flags.c_contiguous)
                return fn(*args)
            return wrapper

        for name, block in (("tg_cycle", 0), ("energy_norm", 0), ("solve_spd", 1)):
            monkeypatch.setattr(harness, name, checked(getattr(harness, name), block))
        run_experiment(ExperimentConfig(problem=problem, size=size, bits=(8, 12),
                                        trials=70))
        # 140 trials: one block of 140 columns on 63 points, two of 70 on 225
        blocks = {63: 1, 15: 2}[size]
        assert len(seen) == blocks * 5 and all(seen)

    def test_deterministic_csv_bytes(self):
        cfg = ExperimentConfig(size=15, bits=(8, 12), trials=5, rng_seed=7)
        first = render_csv(run_experiment(cfg))
        second = render_csv(run_experiment(cfg))
        assert first == second

    @staticmethod
    def _record_blocks(monkeypatch, config):
        """The width of each tg_cycle call of the sweep, after checking that
        each column's smoother is built for its trial's format and that the
        columns run format-major, in the order of the records."""
        seen = []
        original = harness.tg_cycle

        def recording(r, S, coarse):
            # every block passes one smoother per column, whatever its formats
            assert not isinstance(S, RelaxationOp) and len(S) == r.shape[1]
            seen.append((r.shape[1], [s.fmt.significand_bits for s in S]))
            return original(r, S, coarse)

        monkeypatch.setattr(harness, "tg_cycle", recording)
        records = run_experiment(config)
        # format-major: each column's format is its trial's
        columns = [bits for _, block in seen for bits in block]
        assert columns == [rec.report.significand_bits for rec in records]
        assert columns == [b for b in config.bits for _ in range(config.trials)]
        assert [rec.trial for rec in records] == list(range(config.trials)) * len(config.bits)
        return [width for width, _ in seen]

    @pytest.mark.parametrize("trials, widths", [
        # at most 20000 // 255 = 78 columns on 255 points, whatever formats
        # they hold: the 4 * trials columns of the sweep in balanced blocks
        (200, [73] * 8 + [72] * 3), (100, [67] * 4 + [66] * 2), (65, [65] * 4),
        (20, [40, 40]),
    ])
    def test_trials_split_into_balanced_blocks(self, monkeypatch, trials, widths):
        config = ExperimentConfig(size=255, bits=(8, 12, 16, 23), trials=trials)
        assert self._record_blocks(monkeypatch, config) == widths

    @pytest.mark.parametrize("problem, size, bits, trials, widths", [
        ("poisson1d", 255, (8, 12, 16, 23), 1, [4]),
        ("poisson1d", 255, (12,), 100, [50, 50]),
        ("poisson1d", 255, (12,), 78, [78]),
        ("poisson1d", 255, (8, 12, 16), 30, [45, 45]),
        # 20 columns on 31 x 31 points, 1333 on 15 points
        ("poisson2d", 31, (12, 16), 20, [20, 20]),
        ("poisson1d", 15, (8, 12), 200, [400]),
    ])
    def test_blocks_are_sized_by_entries(self, monkeypatch, problem, size, bits, trials,
                                         widths):
        config = ExperimentConfig(problem=problem, size=size, bits=bits, trials=trials)
        assert self._record_blocks(monkeypatch, config) == widths

    def test_each_column_is_judged_by_its_own_formats_rho_tg(self, monkeypatch):
        # a rho_tg of zero for bits 12 alone fails that format's trials, in
        # a block that packs both formats' trials side by side
        compute = harness.compute_constants

        def zero_at_12(inputs, **kwargs):
            report = compute(inputs, **kwargs)
            return dataclasses.replace(report, rho_tg=0.0) if kwargs[
                "significand_bits"] == 12 else report

        monkeypatch.setattr(harness, "compute_constants", zero_at_12)
        records = run_experiment(ExperimentConfig(size=31, bits=(8, 12, 16), trials=4))
        assert [rec.passed for rec in records] == [True] * 4 + [False] * 4 + [True] * 4
        for rec in records:
            assert rec.passed is trial_passed(rec.measured_ratio, rec.report.rho_tg,
                                              rec.line_ratios.values())

    def test_block_width_never_shows_in_the_csv(self, monkeypatch):
        # budgets of 1, 64 and 130 columns on 15 points, over blocks that
        # hold one format, both formats, and a format's trials split in two
        for trials in (1, 2, 130):
            cfg = ExperimentConfig(size=15, bits=(8, 12), trials=trials, rng_seed=4)
            rendered = []
            for width in (1, 64, 130):
                monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 15 * width)
                rendered.append(render_csv(run_experiment(cfg)))
            assert rendered[0] == rendered[1] == rendered[2], trials

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_a_set_up_sweep_makes_one_cycle_call(self, monkeypatch, name):
        # the benchmark's set-up sweep, one trial per format, runs every
        # format's trial in one block
        calls = []
        original = harness.tg_cycle
        monkeypatch.setattr(harness, "tg_cycle",
                            lambda *args: (calls.append(args[0].shape), original(*args))[1])
        fields = WORKLOADS[name]
        records = run_experiment(ExperimentConfig(**dict(fields, bits=tuple(fields["bits"]),
                                                         trials=1)))
        assert len(records) == len(fields["bits"])
        assert len(calls) == 1

    def test_carrier_width_matches_reference(self):
        cfg = ExperimentConfig(size=15, bits=(CARRIER_BITS,), trials=10,
                               rng_seed=3)
        eps = float(np.finfo(np.float64).eps)
        for rec in run_experiment(cfg):
            assert abs(rec.fp_error - rec.ref_error) <= 1e3 * eps
            assert rec.passed

    def test_all_pass_on_default_like_config(self):
        cfg = ExperimentConfig(size=31, bits=(8, 23), trials=20, rng_seed=1)
        records = run_experiment(cfg)
        assert len(records) == 40
        assert all(r.passed for r in records)

    def test_operators_not_mutated_between_trials(self):
        from mixedmg import (
            PrecisionFormat, make_exact_coarse, make_jacobi, rho_star, tg_cycle,
        )

        levels = build_multilevel(15, 2)
        lvl = levels[0]

        def digest():
            return hashlib.sha256(
                lvl.A.matrix.toarray().tobytes()
                + lvl.P.toarray().tobytes()
                + lvl.A_c.matrix.toarray().tobytes()
            ).hexdigest()

        before = digest()
        fmt = PrecisionFormat(12)
        S = make_jacobi(lvl.A, 2.0 / 3.0, fmt)
        coarse = make_exact_coarse(lvl)
        rho_star(S, coarse)
        rng = np.random.default_rng(5)
        for _ in range(10):
            tg_cycle(rng.standard_normal(15), S, coarse)
        assert digest() == before

    def test_perturbed_and_recursive_variants_run(self):
        for kwargs in (dict(coarse="perturbed", sigma=0.3),
                       dict(coarse="recursive", levels=3, mu=1, nu=1)):
            cfg = ExperimentConfig(size=31, bits=(12,), trials=3, rng_seed=2,
                                   **kwargs)
            records = run_experiment(cfg)
            assert all(r.passed for r in records)

    def test_recursive_lower_grids_relax_with_the_config_smoother(self):
        # the carrier V-cycle below the coarse grid runs smoother and omega,
        # which every row echoes
        levels = build_multilevel(63, 4)
        deviation = {
            (smoother, omega): _make_coarse(ExperimentConfig(
                size=63, levels=4, coarse="recursive", smoother=smoother,
                omega=omega), levels).bc_deviation
            for smoother, omega in (("jacobi", 2.0 / 3.0), ("richardson", 0.5),
                                    ("jacobi", 0.3))}
        assert len(set(deviation.values())) == 3
        smoothers = [make_smoother("richardson", l.A, 0.5, CARRIER) for l in levels[1:]]
        assert deviation["richardson", 0.5] == make_recursive_coarse(
            levels, 1, 1, smoothers).bc_deviation

    def test_recursive_smoother_that_does_not_contract_below_raises(self):
        config = ExperimentConfig(size=63, levels=4, coarse="recursive",
                                  omega=1.5)
        with pytest.raises(ContractionError):
            _make_coarse(config, build_multilevel(63, 4))

    def test_setup_is_computed_once_and_not_kept(self, monkeypatch):
        # the recursive bench workload's set-up (one trial per format): each
        # square operator is assembled once and each P built once, each
        # symbol end is evaluated once, each operator's symbol on all its
        # sine modes is evaluated once and every class reads it, the
        # harmonics are evaluated once per grid size and process, the
        # format-independent Fourier blocks are built once, and nothing
        # outlives the sweep
        import gc
        import weakref

        from mixedmg import fourier, hierarchy, linops

        def count(owners, fn, record=lambda *args: None):
            calls = []

            def counted(*args, **kwargs):
                calls.append(record(*args))
                return fn(*args, **kwargs)

            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is fn:
                        monkeypatch.setattr(owner, name, counted)
            return calls

        modules = [m for name, m in sys.modules.items() if name.startswith("mixedmg")]
        assemblies = count(modules, linops._assemble, lambda c, k: k)
        # the probe grids interpolate with the unit weight, each P with its p
        interpolations = count(modules, hierarchy._interpolation, lambda d, k, p: (k, p))
        ends = count(modules, fourier.symbol_ends)
        sine_symbols = count(modules, fourier.sine_symbol, lambda c, k: k)
        symbols = count([fourier], fourier._symbol)
        harmonics = count([fourier], fourier._harmonics, lambda F, k: k)
        alive = []
        build = harness.build_multilevel

        def tracked(*args, **kwargs):
            levels = build(*args, **kwargs)
            alive.extend(weakref.ref(l) for l in levels)
            return levels

        monkeypatch.setattr(harness, "build_multilevel", tracked)
        config = ExperimentConfig(size=255, levels=4, coarse="recursive",
                                  bits=(8, 12, 16, 23), trials=1)
        # the harmonic tables are cached per grid size: the first sweep
        # starts without them
        fourier._harmonic_table.cache_clear()
        assert len(run_experiment(config)) == 4
        # the square operators, on 255, 127, 63 and 31 points, and the P of
        # each level, however often eta_P, P_layout and P_t read it
        assert assemblies == [255, 127, 63, 31]
        assert sorted(k for k, p in interpolations if p != 1.0) == [63, 127, 255]
        # the finest matrix before scaling, the three Galerkin products, the
        # four distinct A, and |c| of the three levels' A
        assert len(ends) <= 11
        # each distinct operator's symbol on every sine mode: the finest A
        # (the trials' reference solve), the two A the V-cycle relaxes on,
        # and the coarsest A_c (its direct solve); no class, corner or coarse
        # solve evaluates a symbol of its own
        assert sorted(sine_symbols) == [31, 63, 127, 255]
        assert len(symbols) == len(ends) + len(sine_symbols)
        assert sorted(harmonics) == [31, 63, 127, 255]
        all_formats = len(symbols)
        for calls in (ends, sine_symbols, symbols, harmonics):
            calls.clear()
        run_experiment(dataclasses.replace(config, bits=(8,)))
        assert len(symbols) == all_formats and sorted(sine_symbols) == [31, 63, 127, 255]
        assert harmonics == []
        gc.collect()
        assert alive and all(ref() is None for ref in alive)

    def test_progressive_selection(self):
        cfg = ExperimentConfig(size=31, bits=(), pi_target=2.0**-8, trials=3,
                               rng_seed=4)
        records = run_experiment(cfg)
        bits = {r.report.significand_bits for r in records}
        assert len(bits) == 1
        pi = records[0].report.pi_dot
        assert 2.0**-9 < pi <= 2.0**-8


class TestPassRule:
    @pytest.mark.parametrize("measured, ratios, passed", [
        (0.5, [1.0, 0.2], True),
        (0.5, [0.3, 1.0 + 1e-12], False),
        (0.5 + 1e-12, [0.3], False),
        (float("nan"), [0.3], False),
        (0.5, [float("nan")], False),
    ], ids=["at-the-edges", "line-over", "total-over", "total-nan", "line-nan"])
    def test_trial_passed(self, measured, ratios, passed):
        assert trial_passed(measured, 0.5, ratios) is passed

    def test_trial_passed_on_a_block(self):
        # one flag per trial, each the flag of that trial alone
        nan = float("nan")
        measured = np.array([0.5, 0.4, nan, 0.4, 0.5 + 1e-12])
        ratios = np.array([[1.0, nan, 0.3, 0.3, 0.3],
                           [0.2, 0.2, 0.2, 1.0 + 1e-12, 0.2]])
        flags = trial_passed(measured, 0.5, ratios)
        assert flags.tolist() == [True, False, False, False, False]
        assert flags.tolist() == [trial_passed(m, 0.5, list(column))
                                  for m, column in zip(measured, ratios.T)]

    def test_record_has_no_default_verdict(self):
        passed = {f.name: f for f in dataclasses.fields(TrialRecord)}["passed"]
        assert passed.default is dataclasses.MISSING

    def test_rows_follow_the_rule(self):
        cfg = ExperimentConfig(size=15, bits=(8,), trials=3, rng_seed=3)
        for rec in run_experiment(cfg):
            assert rec.passed is trial_passed(
                rec.measured_ratio, rec.report.rho_tg, rec.line_ratios.values())


class TestCsv:
    def test_layout(self, tmp_path):
        cfg = ExperimentConfig(size=15, bits=(12,), trials=3, rng_seed=0)
        records = run_experiment(cfg)
        path = write_csv(records, tmp_path / "out.csv")
        text = path.read_text()
        assert text.startswith("# mixedmg trial records")
        rows = read_csv_rows(path)
        assert len(rows) == 3
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert rows[0]["passed"] == "true"
        assert int(rows[0]["n"]) == 15

    def test_validate_accepts_good_file(self, tmp_path):
        cfg = ExperimentConfig(size=15, bits=(8, 12), trials=4, rng_seed=1)
        path = write_csv(run_experiment(cfg), tmp_path / "good.csv")
        ok, problems = validate_csv(path)
        assert ok and not problems

    def test_validate_rejects_flipped_flag(self, tmp_path):
        cfg = ExperimentConfig(size=15, bits=(12,), trials=3, rng_seed=1)
        path = write_csv(run_experiment(cfg), tmp_path / "bad.csv")
        lines = path.read_text().splitlines()
        assert lines[-1].endswith(",true")
        lines[-1] = lines[-1][: -len("true")] + "false"
        path.write_text("\n".join(lines) + "\n")
        ok, problems = validate_csv(path)
        assert not ok
        assert problems

    def test_validate_is_self_consistent_rederivation(self, tmp_path):
        # re-deriving the flags from the stored columns alone reproduces them
        cfg = ExperimentConfig(size=31, bits=(8,), trials=5, rng_seed=6)
        path = write_csv(run_experiment(cfg), tmp_path / "rows.csv")
        for row in read_csv_rows(path):
            derived = float(row["measured_ratio"]) <= float(row["rho_tg"]) and all(
                float(row[c]) <= 1.0
                for c in TRIAL_COLUMNS if c.startswith("ratio_")
            )
            assert derived == (row["passed"] == "true")


class TestProgressiveStudy:
    def test_single_size_reduces_to_run(self):
        summary = progressive_study([31], 2.0**-8, trials=5, seed=0)
        assert set(summary["per_size"]) == {31}
        assert summary["delta_rho_spread"] == 1.0
        assert summary["all_ok"]

    def test_multi_size_within_bounds(self):
        summary = progressive_study([15, 31], 2.0**-8, trials=5, seed=0)
        assert summary["all_ok"]
        assert summary["delta_rho_spread"] < 4.0

    @pytest.mark.parametrize("sizes, match", [
        ([], "one or more distinct sizes, got \\[\\]"),
        ([15.9], "size must be an integer, got 15.9"),
        ([15, 15], "distinct sizes, got \\[15, 15\\]"),
        ([True], "size must be an integer, got True"),
    ], ids=["empty", "fraction", "repeated", "bool"])
    def test_sizes_are_refused_not_changed(self, sizes, match):
        with pytest.raises(ConfigError, match=match):
            progressive_study(sizes, 2.0**-8, trials=3)

    def test_a_failing_proof_line_fails_the_study(self, monkeypatch, capsys):
        # within_bound follows the trials' pass flags, not the total alone
        per_line = harness.per_line_bounds
        monkeypatch.setattr(harness, "per_line_bounds", lambda inputs: {
            name: 1e-6 * c for name, c in per_line(inputs).items()})
        summary = progressive_study([15, 31], 2.0**-8, trials=3)
        assert not any(v["within_bound"] for v in summary["per_size"].values())
        assert not summary["all_ok"]
        assert cli_main(["progressive", "--sizes", "15", "31", "--pi-target",
                         str(2.0**-8), "--trials", "3"]) == 1


class TestCli:
    def test_run_with_config(self, config_file, tmp_path):
        out = tmp_path / "trials.csv"
        code = cli_main(["run", "--config", str(config_file),
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        ok, _ = validate_csv(out)
        assert ok

    def test_run_writes_csv_to_stdout_without_out(self, config_file, capsys):
        code = cli_main(["run", "--config", str(config_file), "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# mixedmg trial records")
        assert out.count("\n") == 2 + 2  # comment, header, two format rows

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "mixedmg", "bounds", "--bits", "12",
             "--kappa", "4", "--kappa-c", "2", "--eta-a", "1", "--eta-p", "2",
             "--eta-m", "1", "--eta-n", "1", "--alpha-m", "1", "--alpha-n",
             "1", "--m-a", "3", "--m-p", "2"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["significand_bits"] == 12
        assert data["pi_dot"] == 2.0 * 2.0**-12

    def test_run_override_flags(self, config_file, tmp_path):
        out = tmp_path / "t.csv"
        code = cli_main(["run", "--config", str(config_file), "--out",
                         str(out), "--trials", "2", "--bits", "10",
                         "--seed", "5"])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 2
        assert rows[0]["significand_bits"] == "10"

    def test_run_pi_target_drops_the_files_bits(self, config_file, tmp_path):
        # the file sets bits = 8 12; --pi-target replaces them, as --bits
        # replaces a file's pi_target
        out = tmp_path / "t.csv"
        assert cli_main(["run", "--config", str(config_file), "--out", str(out),
                         "--trials", "2", "--pi-target", "0.01"]) == 0
        assert [row["significand_bits"] for row in read_csv_rows(out)] == ["10", "10"]

    def test_run_bits_and_pi_target_exits_2(self, config_file, capsys):
        code = cli_main(["run", "--config", str(config_file), "--bits", "8",
                         "--pi-target", "0.001"])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("old, new", [
        ("omega = 0.6666666666666666", "omega = nan"),
        ("omega = 0.6666666666666666", "omega = -1"),
        ("seed = 99", "seed = -3"),
    ])
    def test_run_bad_omega_or_seed_exits_2(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace(old, new, 1))
        assert cli_main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert new.split(" = ")[0] in captured.err

    def test_run_missing_config_exits_2(self, tmp_path):
        code = cli_main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 2

    def test_validate_directory_exits_2(self, tmp_path, capsys):
        # a file error is exit 2, not exit 1, the code of a bound violation
        assert cli_main(["validate", "--csv", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_sweep_with_a_repeated_format_exits_2(self, capsys):
        assert cli_main(["sweep", "--sizes", "15", "--bits", "8", "8",
                         "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bits: format 8 is listed more than once\n"

    def test_sweep_with_a_negative_size_exits_2(self, capsys):
        assert cli_main(["sweep", "--sizes", "-1", "--bits", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: size must be 2**k - 1, got -1\n"

    def test_sweep_out_below_a_regular_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli_main(["sweep", "--sizes", "15", "--bits", "12", "--trials", "1",
                         "--out", str(blocker / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("old, new", [
        ("[run]", "[runn]"),
        ("bits = 8 12", "bit = 8 12"),
        ("bits = 8 12", "bits = 8 12\npi_target = 0.00390625"),
        ("kind = exact", "kind = exact\nsigma = 0.3"),
    ])
    def test_run_config_typo_exits_2(self, tmp_path, capsys, old, new):
        path = tmp_path / "typo.ini"
        path.write_text(CONFIG_TEXT.replace(old, new, 1))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_bounds_zero_roundoff(self, capsys):
        code = cli_main([
            "bounds", "--eps", "0", "--kappa", "1", "--kappa-c", "1",
            "--eta-a", "1", "--eta-p", "1", "--eta-m", "1", "--eta-n", "1",
            "--alpha-m", "1", "--alpha-n", "1", "--m-a", "3", "--m-p", "2",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(data[f"c{k}"] == 0.0 for k in range(6))

    def test_bounds_without_rho_star_prints_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert cli_main([
            "bounds", "--bits", "12", "--kappa", "414.3", "--kappa-c", "103.1",
            "--eta-a", "1.0", "--eta-p", "2.0", "--eta-m", "1.33", "--eta-n",
            "1.33", "--alpha-m", "1.33", "--alpha-n", "1.33", "--m-a", "3",
            "--m-p", "2",
        ]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert data["rho_star"] is None and data["rho_tg"] is None
        assert data["delta_rho"] > 0.0

    def test_bounds_json_keys_are_report_columns(self, capsys):
        from mixedmg.bounds import REPORT_COLUMNS

        assert cli_main([
            "bounds", "--bits", "12", "--kappa", "4", "--kappa-c", "2",
            "--eta-a", "1", "--eta-p", "2", "--eta-m", "1", "--eta-n", "1",
            "--alpha-m", "1", "--alpha-n", "1", "--m-a", "3", "--m-p", "2",
        ]) == 0
        assert tuple(json.loads(capsys.readouterr().out)) == REPORT_COLUMNS

    def test_bounds_precision_too_low_exits_2(self):
        code = cli_main([
            "bounds", "--bits", "2", "--kappa", "1", "--kappa-c", "1",
            "--eta-a", "1", "--eta-p", "1", "--eta-m", "1", "--eta-n", "1",
            "--alpha-m", "1", "--alpha-n", "1", "--m-a", "1023", "--m-p", "2",
        ])
        assert code == 2

    @pytest.mark.parametrize("bits", ["1", "54", "60"])
    def test_bounds_bits_outside_the_carrier_exits_2(self, capsys, bits):
        # --bits names a format, which the 53-bit carrier must emulate
        assert cli_main([
            "bounds", "--bits", bits, "--kappa", "4", "--kappa-c", "2",
            "--eta-a", "1", "--eta-p", "2", "--eta-m", "1", "--eta-n", "1",
            "--alpha-m", "1", "--alpha-n", "1", "--m-a", "3", "--m-p", "2",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "significand_bits" in captured.err

    @pytest.mark.parametrize("extra, named", [
        (["--kappa", "nan"], "kappa must be finite"),
        (["--kappa", "inf"], "kappa must be finite"),
        (["--eta-p", "inf"], "eta_P must be finite"),
        (["--rho-star", "inf"], "rho_star must be finite and >= 0"),
        (["--rho-star", "-5"], "rho_star must be finite and >= 0"),
        (["--kappa", "1e308", "--eta-a", "1e308"], "not JSON compliant"),
    ], ids=["kappa-nan", "kappa-inf", "eta-p-inf", "rho-star-inf",
            "rho-star-negative", "constant-overflows"])
    def test_bounds_non_finite_or_impossible_input_exits_2(self, capsys, extra, named):
        # the last of a repeated flag wins, so each case overrides one valid input
        assert cli_main([
            "bounds", "--bits", "12", "--kappa", "4", "--kappa-c", "2",
            "--eta-a", "1", "--eta-p", "2", "--eta-m", "1", "--eta-n", "1",
            "--alpha-m", "1", "--alpha-n", "1", "--m-a", "3", "--m-p", "2", *extra,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    def test_bounds_requires_exactly_one_precision_flag(self, capsys):
        base = ["bounds", "--kappa", "1", "--kappa-c", "1", "--eta-a", "1",
                "--eta-p", "1", "--eta-m", "1", "--eta-n", "1", "--alpha-m",
                "1", "--alpha-n", "1", "--m-a", "3", "--m-p", "2"]
        assert cli_main(base) == 2
        assert cli_main(base + ["--eps", "0", "--bits", "8"]) == 2

    def test_validate_subcommand(self, tmp_path):
        cfg = ExperimentConfig(size=15, bits=(12,), trials=2, rng_seed=0)
        path = write_csv(run_experiment(cfg), tmp_path / "v.csv")
        assert cli_main(["validate", "--csv", str(path)]) == 0
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace(",true", ",false")
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["validate", "--csv", str(path)]) == 1

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[1:],
        lambda lines: [lines[0].replace("v1", "v9")] + lines[1:],
        lambda lines: lines[:1] + [",".join(ln.split(",")[:5] + ln.split(",")[6:])
                                   for ln in lines[1:]],
    ], ids=["no-comment", "columns-v9", "dropped-column"])
    def test_validate_rejects_another_schema(self, tmp_path, capsys, edit):
        cfg = ExperimentConfig(size=15, bits=(12,), trials=2, rng_seed=0)
        path = write_csv(run_experiment(cfg), tmp_path / "v.csv")
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert cli_main(["validate", "--csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "INVALID\n"
        assert captured.err.count("\n") == 1 and captured.err.startswith("file: ")

    @pytest.mark.parametrize("edit, cells", [
        (lambda row: row.rsplit(",", 3)[0], len(CSV_COLUMNS) - 3),
        (lambda row: row + ",true", len(CSV_COLUMNS) + 1),
    ], ids=["missing-cells", "extra-cell"])
    def test_validate_reports_malformed_row(self, tmp_path, capsys, edit, cells):
        # a short row raised TypeError, and a row with an extra cell passed
        cfg = ExperimentConfig(size=15, bits=(12,), trials=2, rng_seed=0)
        path = write_csv(run_experiment(cfg), tmp_path / "v.csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [edit(lines[-1])]) + "\n")
        assert cli_main(["validate", "--csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "INVALID\n"
        assert captured.err == (f"row 1: malformed ({cells} cells, "
                                f"not {len(CSV_COLUMNS)})\n")

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli_main(["sweep", "--sizes", "15", "31", "--bits", "12",
                         "--trials", "2", "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        assert {row["n"] for row in rows} == {"15", "31"}

    def test_progressive_subcommand(self, capsys):
        code = cli_main(["progressive", "--sizes", "15", "31", "--pi-target",
                         str(2.0**-8), "--trials", "3"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_ok"]
