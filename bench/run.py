"""The mixedmg benchmark: time to verdict, set-up and memory per sweep.

Usage, from the root of a checkout::

    python3 bench/run.py --workload tg1d-trials --seed 1234 --seconds 35 --trace 0

The workloads and their configs are in ``bench/spec.json``; metric names,
units and bounds are in ``BENCHMARK.json``.  The load is one caller in a
closed loop: one fresh ``bench/sample.py`` process makes an untimed warm-up
sweep, then sweeps one after another until ``--seconds`` have passed, so
``peak_rss_mb`` is that process's peak over the run's sweeps.  BLAS runs one
thread: on a small shared host a second BLAS thread competes with other
tenants for the second CPU, and the 1D workloads ran faster without it.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
samples.  ``wall_s`` and ``setup_s`` are given at a reference host speed:
the CPUs of a shared host run this code up to twice as fast when the other
tenants are idle, and that state changes within seconds and over minutes.
So the measuring process times a fixed calibration block (``sample.py``)
between samples, each sample's time is scaled by ``REFERENCE_BLOCK_S``
over the mean of the two blocks around it, and the median of the scaled
times is reported.  The raw medians are printed and recorded.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics, the medians over the traced samples, plus the import
time and the tracing overhead (traced minus untraced ``wall_s``).

Every sample's CSV passes the output gate, the warm-up's too, and all
sweeps of one config and seed must render the same bytes, traced or not.
Failed trials count against ``attempted``.

The last line of standard output is the result as one JSON object.  The run
exits with code 2, printing no result, when the checkout has no mixedmg
sources, and with code 1 when the measuring process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER_SLACK_S = 120  # beyond --seconds, for import, warm-up and the last sample
BLAS_THREADS = 1
REFERENCE_BLOCK_S = 0.15  # a calibration block's time at the reference host speed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    """The measuring process failed or printed no record."""


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def run_worker(job: dict) -> dict:
    """Run the measuring process to its end; its record, or ``WorkerError``."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "sample.py"), json.dumps(job)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=job["seconds"] + WORKER_SLACK_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"measuring process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def count_failures(samples: list[dict]) -> tuple[int, int, int]:
    """Trials attempted, trials failed and samples whose bytes disagree.

    Every full sweep of one config and seed, traced or not, must render the
    same CSV, and so must every set-up sweep.  A sample whose digest differs
    from the most common one of its group fails all its trials.
    """
    attempted = failed = mismatched = 0
    for setup in (False, True):
        group = [s for s in samples if (s["kind"] == "setup") == setup]
        if not group:
            continue
        common, _ = Counter(s["digest"] for s in group).most_common(1)[0]
        for s in group:
            attempted += s["trials"]
            if s["digest"] != common:
                failed += s["trials"]
                mismatched += 1
            else:
                failed += s["failed"]
    return attempted, failed, mismatched


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
    }


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def scaled_median(samples: list[dict]) -> float:
    """Median sweep time, each scaled by the calibration blocks around it."""
    return statistics.median(
        REFERENCE_BLOCK_S * s["wall_s"] / statistics.mean(s["calibration_s"]) for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mixedmg" / "__init__.py").is_file():
        print(f"no mixedmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_build" / "mixedmg"
    out_dir.mkdir(parents=True, exist_ok=True)
    job = {"workload": args.workload, "config": spec["workloads"][args.workload],
           "calibration": spec["calibration"][args.workload],
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "src": str(ROOT / "src"), "out_dir": str(out_dir)}
    try:
        run = run_worker(job)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    samples = run["samples"]
    plain = [s for s in samples if s["kind"] == "plain"]
    setup = [s for s in samples if s["kind"] == "setup"]
    traced = [s for s in samples if s["kind"] == "traced"]
    attempted, failed, mismatched = count_failures([run["warmup"]] + samples)
    if args.trace:
        declared = benchmark["per_layer"]
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values["mixedmg.import_s"] = run["import_s"]
        values["trace.overhead_s"] = scaled_median(traced) - scaled_median(plain)
        basis = dict.fromkeys(values, f"median of {len(traced)} traced samples")
        basis["mixedmg.import_s"] = "one import"
        basis["trace.overhead_s"] = f"{len(traced)} traced vs {len(plain)} untraced samples"
    else:
        declared = benchmark["end_to_end"]
        values = {"wall_s": scaled_median(plain),
                  "setup_s": scaled_median(setup),
                  "peak_rss_mb": run["peak_rss_mb"],
                  "pass_share": 1.0 - failed / attempted}
        basis = {name: (f"median of {len(group)} samples scaled for host speed,"
                        f" raw median {median_of(group, 'wall_s'):.6g} s")
                 for name, group in (("wall_s", plain), ("setup_s", setup))}
        basis["peak_rss_mb"] = f"over the warm-up and {len(samples)} samples"
        basis["pass_share"] = f"over {attempted} trials"

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0 and mismatched == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "import_s": run["import_s"],
              "peak_rss_mb": run["peak_rss_mb"], "warmup": run["warmup"],
              "samples": samples, "result": result}
    (out_dir / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("environment " + json.dumps(record["environment"]))
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced samples, {attempted} trials, failed_share {failed / attempted:.6g}, "
          f"{mismatched} samples with differing CSV bytes")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']:6s} ({basis[name]})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
