"""Measure the north-star grids end to end and layer by layer, into one JSON file.

Usage, from the root of a checkout::

    python scripts/trajectory.py --out BENCH_<n>.json

Each config is one sweep, ``run_experiment`` and ``render_csv`` as ``mixedmg
run`` makes it, with the exact coarse solve: 1D ``n = 16383``, 2D ``k = 127``
and 2D ``k = 255``, each with 100 trials at bits 8, 12, 16 and 23 and seed
1234.

Every run is a fresh process in the benchmark's environment (``bench/run.py``'s
``worker_env``, one BLAS thread).  A config runs three times untraced, then
once more under ``bench/spans.py``'s ``Tracer``, whose ``layer_metrics`` give
the per-layer split.  Each sweep is timed by ``bench/sample.py``'s
``timed_sweep`` and passes its output gate, ``check_output``; all four are
imported unchanged.  For each config the file records the median ``wall_s``
of the untraced runs, their largest peak RSS, the trials that pass the gate,
the CSV's sha256 and the traced run's layer metrics.  Every run of a config
must give the same CSV bytes and pass every trial through the gate, or the
script exits with status 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import BLAS_THREADS, worker_env  # noqa: E402
from sample import check_output, timed_sweep  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

CONFIGS = ("poisson1d:16383", "poisson2d:127", "poisson2d:255")
BITS = [8, 12, 16, 23]
SEED = 1234
TRIALS = 100
RUNS = 3


def measure(problem: str, size: int, trials: int, traced: bool) -> dict:
    """One sweep in this process: its time, peak RSS, trials failed by the
    output gate and CSV digest, and with ``traced`` the layer metrics of its
    spans."""
    from mixedmg import harness

    config = harness.ExperimentConfig(problem=problem, size=size, bits=tuple(BITS),
                                      trials=trials, rng_seed=SEED)
    layers = None
    if traced:
        tracer = Tracer(f"{problem}-{size}")
        # the tracer wraps the names ``harness`` holds, so look them up there
        with tracer.installed():
            text, rows, wall_s = timed_sweep(harness, config)
        layers = layer_metrics(tracer.spans)
    else:
        text, rows, wall_s = timed_sweep(harness, config)
    with tempfile.TemporaryDirectory() as scratch:
        failed, digest = check_output(harness, text, config, Path(scratch) / "sweep.csv")
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "rows": rows,
            "failed": failed, "sha256": digest, "layers": layers}


def run_fresh(job: dict) -> dict:
    """``measure(**job)`` in a fresh interpreter on this checkout's ``src``."""
    out = subprocess.run([sys.executable, __file__, "--job", json.dumps(job)],
                         env=worker_env(), check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def trajectory() -> dict:
    """Every config's runs, summarized; raises ``RuntimeError`` when two runs
    of a config give different CSV bytes or a trial fails the output gate."""
    import numpy
    import scipy

    results = []
    for spec in CONFIGS:
        problem, size = spec.split(":")
        job = dict(problem=problem, size=int(size), trials=TRIALS)
        plain = [run_fresh(dict(job, traced=False)) for _ in range(RUNS)]
        traced = run_fresh(dict(job, traced=True))
        digests = {run["sha256"] for run in plain + [traced]}
        failed = max(run["failed"] for run in plain + [traced])
        if len(digests) != 1 or failed:
            raise RuntimeError(f"{spec}: runs gave the CSVs {sorted(map(str, digests))}"
                               f" and {failed} trials failed the output gate")
        results.append({
            "problem": problem, "size": int(size),
            "wall_s": statistics.median(run["wall_s"] for run in plain),
            "wall_s_runs": [run["wall_s"] for run in plain],
            "peak_rss_mb": max(run["peak_rss_mb"] for run in plain),
            "rows": traced["rows"], "passed": traced["rows"] - failed,
            "sha256": digests.pop(), "layers": traced["layers"]})
    return {
        "bits": BITS, "trials": TRIALS, "seed": SEED, "runs": RUNS,
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
                        "nproc": os.cpu_count()},
        "configs": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    # the measuring process: one run of one config, its record on stdout
    parser.add_argument("--job", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.job is not None:
        print(json.dumps(measure(**json.loads(args.job))))
        return 0
    if args.out is None:
        parser.error("need --out")
    try:
        record = trajectory()
    except RuntimeError as err:
        print(f"trajectory: {err}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
