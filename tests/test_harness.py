"""Experiment harness: configs, determinism, CSV self-consistency, CLI."""

import hashlib
import json

import numpy as np
import pytest

from mixedmg import CARRIER_BITS, build_multilevel
from mixedmg.cli import main as cli_main
from mixedmg.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TRIAL_COLUMNS,
    load_config,
    progressive_study,
    read_csv_rows,
    render_csv,
    run_experiment,
    validate_csv,
    write_csv,
)

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

    def test_rejects_empty_precisions(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(bits=(), pi_target=None)

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

    def test_rejects_unparsable_file(self, tmp_path):
        path = tmp_path / "headless.ini"
        path.write_text("size = 15\n" + CONFIG_TEXT)
        with pytest.raises(ConfigError):
            load_config(path)


class TestRunExperiment:
    def test_deterministic_csv_bytes(self):
        cfg = ExperimentConfig(size=15, bits=(8, 12), trials=5, rng_seed=7)
        first = render_csv(run_experiment(cfg))
        second = render_csv(run_experiment(cfg))
        assert first == second

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
        M = make_jacobi(lvl.A, 2.0 / 3.0, fmt)
        coarse = make_exact_coarse()
        rho_star(lvl, M, M, coarse)
        rng = np.random.default_rng(5)
        for _ in range(10):
            tg_cycle(lvl, rng.standard_normal(15), M, M, coarse, fmt)
        assert digest() == before

    def test_perturbed_and_recursive_variants_run(self):
        for kwargs in (dict(coarse="perturbed", sigma=0.3),
                       dict(coarse="recursive", levels=3, mu=1, nu=1)):
            cfg = ExperimentConfig(size=31, bits=(12,), trials=3, rng_seed=2,
                                   **kwargs)
            records = run_experiment(cfg)
            assert all(r.passed for r in records)

    def test_progressive_selection(self):
        cfg = ExperimentConfig(size=31, bits=(), pi_target=2.0**-8, trials=3,
                               rng_seed=4)
        records = run_experiment(cfg)
        bits = {r.report.significand_bits for r in records}
        assert len(bits) == 1
        pi = records[0].report.pi_dot
        assert 2.0**-9 < pi <= 2.0**-8


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

    def test_run_missing_config_exits_2(self, tmp_path):
        code = cli_main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 2

    @pytest.mark.parametrize("old, new", [
        ("[run]", "[runn]"),
        ("bits = 8 12", "bit = 8 12"),
        ("bits = 8 12", "bits = 8 12\npi_target = 0.00390625"),
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

    def test_bounds_precision_too_low_exits_2(self):
        code = cli_main([
            "bounds", "--bits", "2", "--kappa", "1", "--kappa-c", "1",
            "--eta-a", "1", "--eta-p", "1", "--eta-m", "1", "--eta-n", "1",
            "--alpha-m", "1", "--alpha-n", "1", "--m-a", "1023", "--m-p", "2",
        ])
        assert code == 2

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
