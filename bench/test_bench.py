"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the repo root."""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from mixedmg import harness  # noqa: E402

from sample import (CALIBRATION_BLOCKS, MIN_SAMPLES, check_output,  # noqa: E402
                    make_config, run_sample, run_samples)
from spans import Span, layer_metrics, self_times, tail  # noqa: E402
from run import count_failures  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# per-layer metrics the runner adds to what layer_metrics derives from spans
RUNNER_LAYER_METRICS = {"harness.rows", "mixedmg.import_s", "trace.overhead_s"}


def span(group, start, end, parent=-1, outer=True):
    return Span(group, start, end, parent, outer, 0, False)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span("harness.run_experiment", 0.0, 10.0),
        span("cycles.tg_cycle", 1.0, 4.0, parent=0),
        span("cycles.tg_cycle", 3.0, 6.0, parent=0),    # overlaps its sibling
        span("precision.kernel", 2.0, 3.0, parent=1),
        span("cycles.tg_cycle", 9.0, 12.0, parent=0),   # runs past its parent
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]


def test_busy_time_counts_recursive_calls_once():
    spans = [
        span("cycles.v_cycle", 0.0, 4.0),
        span("cycles.v_cycle", 1.0, 2.0, parent=0, outer=False),
    ]
    metrics = layer_metrics(spans)
    assert metrics["cycles.v_cycle_calls"] == 2
    assert metrics["cycles.v_cycle_s"] == 4.0


def test_tail_leaves_ten_values_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == 90.0
    assert sum(v > tail(values) for v in values) == 10


def test_names_are_well_formed_and_consistent():
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    names = workloads + end_to_end + per_layer
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert set(workloads) == set(SPEC["workloads"]) == set(SPEC["calibration"])
    assert set(SPEC["calibration"].values()) <= set(CALIBRATION_BLOCKS)
    assert set(per_layer) == set(SPEC["should_move"])
    assert set(per_layer) == set(layer_metrics([])) | RUNNER_LAYER_METRICS
    for moves in SPEC["should_move"].values():
        assert set(moves) <= set(end_to_end)
        assert all(set(w) <= set(workloads) for w in moves.values())


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_reduced_trial_smoke_run_passes_the_output_gate(workload, tmp_path):
    config = dict(SPEC["workloads"][workload], trials=2)
    job = {"workload": workload, "config": config, "seed": SPEC["default_seed"]}
    original = harness.tg_cycle
    plain, setup, traced = (run_sample(harness, dict(job, kind=kind), tmp_path)
                            for kind in ("plain", "setup", "traced"))
    assert harness.tg_cycle is original
    assert plain["failed"] == setup["failed"] == traced["failed"] == 0
    assert plain["trials"] == 2 * len(config["bits"])
    assert setup["trials"] == len(config["bits"])
    assert traced["digest"] == plain["digest"] != setup["digest"]
    assert set(traced["layers"]) | RUNNER_LAYER_METRICS == set(SPEC["should_move"])
    assert traced["layers"]["harness.rows"] == plain["trials"]


@pytest.mark.parametrize("trace, kinds", [(0, ["plain", "setup"]), (1, ["plain", "traced"])])
def test_a_run_warms_up_then_alternates_kinds_between_calibration_blocks(trace, kinds, tmp_path):
    config = dict(SPEC["workloads"]["tg1d-trials"], size=15, bits=[8], trials=2)
    job = {"workload": "tg1d-trials", "config": config, "seed": 7, "seconds": 0,
           "trace": trace, "calibration": "vector"}
    warmup, samples = run_samples(harness, job, tmp_path)
    assert warmup["kind"] == "plain"
    assert [s["kind"] for s in samples] == kinds * MIN_SAMPLES
    for before, after in zip(samples, samples[1:]):
        assert before["calibration_s"][1] == after["calibration_s"][0] > 0
    attempted = sum(s["trials"] for s in [warmup] + samples)
    assert count_failures([warmup] + samples) == (attempted, 0, 0)


def test_a_sample_whose_bytes_differ_from_its_group_fails_all_its_trials():
    def sample(kind, digest, trials=4, failed=0):
        return {"kind": kind, "digest": digest, "trials": trials, "failed": failed}

    samples = [sample("plain", "a"), sample("traced", "a", failed=1), sample("plain", "b"),
               sample("setup", "c", trials=1), sample("setup", "c", trials=1)]
    assert count_failures(samples) == (14, 5, 1)


def test_output_gate_counts_tampered_and_missing_rows(tmp_path):
    config = make_config(harness, dict(SPEC["workloads"]["tg1d-trials"], size=15,
                                       bits=[8, 12], trials=3), seed=7)
    text = harness.render_csv(harness.run_experiment(config))
    path = tmp_path / "out.csv"
    assert check_output(harness, text, config, path)[0] == 0
    lines = text.splitlines(keepends=True)
    flipped = lines[:2] + [lines[2].replace(",true\n", ",false\n")] + lines[3:]
    assert check_output(harness, "".join(flipped), config, path)[0] == 1
    assert check_output(harness, "".join(lines[:-1]), config, path)[0] == 6
    assert check_output(harness, text, replace(config, rng_seed=8), path)[0] == 6
    assert check_output(harness, None, config, path) == (6, None)
