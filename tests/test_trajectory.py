"""``scripts/trajectory.py``, the north-star measurement, at a tiny size: the
keys of the JSON file it writes are pinned here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "precision.kernel_calls", "precision.kernel_s", "precision.carrier_calls",
    "precision.entries", "precision.ns_per_entry", "linops.spectral_calls",
    "linops.spectral_s", "linops.energy_norm_calls", "linops.energy_norm_s",
    "linops.solve_spd_calls", "linops.solve_spd_s", "hierarchy.build_s",
    "hierarchy.self_s", "cycles.smoother_build_calls", "cycles.smoother_build_s",
    "cycles.rho_star_s", "cycles.coarse_build_s", "cycles.tg_cycle_calls",
    "cycles.tg_cycle_s", "cycles.tg_cycle_self_s", "cycles.tg_cycle_p50_ms",
    "cycles.tg_cycle_tail_ms", "cycles.coarse_apply_calls", "cycles.coarse_apply_s",
    "cycles.v_cycle_calls", "cycles.v_cycle_s", "bounds.calls", "bounds.s",
    "harness.self_s", "harness.render_csv_s",
}


def test_trajectory_file_keys(tmp_path, monkeypatch):
    # the script puts bench/ first on the path; the monkeypatch restores it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "scripts" / "trajectory.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "CONFIGS", ("poisson1d:15",))
    monkeypatch.setattr(script, "TRIALS", 2)
    monkeypatch.setattr(script, "RUNS", 1)
    out = tmp_path / "bench.json"
    assert script.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"bits", "trials", "seed", "runs", "environment", "configs"}
    assert (record["bits"], record["trials"], record["seed"], record["runs"]) == (
        [8, 12, 16, 23], 2, 1234, 1)
    assert set(record["environment"]) == {"python", "numpy", "scipy", "blas_threads",
                                          "nproc"}
    [config] = record["configs"]
    assert set(config) == {"problem", "size", "wall_s", "wall_s_runs", "peak_rss_mb",
                           "rows", "passed", "sha256", "layers"}
    assert (config["problem"], config["size"], config["rows"], config["passed"]) == (
        "poisson1d", 15, 8, 8)
    assert len(config["wall_s_runs"]) == 1 and config["wall_s"] > 0
    assert config["peak_rss_mb"] > 0 and len(config["sha256"]) == 64
    # the layer metrics are those of bench/spans.py, read in the traced run
    assert set(config["layers"]) == LAYERS
    assert config["layers"]["cycles.tg_cycle_calls"] == 1
    assert config["layers"]["harness.render_csv_s"] > 0
