"""The measuring process of one benchmark run, started by ``run.py``.

Usage: ``python3 bench/sample.py '<job json>'`` with ``PYTHONPATH`` naming the
checkout's ``src``.  The job gives the workload, its config, its kind of
calibration block, the seed, the run's length in seconds, the output
directory and whether to trace.  The
process imports mixedmg and makes one warm-up sample, then takes samples in a
closed loop of one caller until the run's time is up.  A sample is one timed
sweep (``run_experiment`` plus ``render_csv``, which is what ``mixedmg run``
does) with its output checked after the timed region: the workload's sweep,
the same sweep with ``trials=1`` as its set-up cost, or a traced sweep that
also reports the per-layer metrics.  Each sample is bracketed by timed
calibration blocks, which give the host's speed around it.  The last line
of standard output is the run's JSON record.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path

from spans import Tracer, layer_metrics

_ROW_PROBLEM = re.compile(r"row (\d+):")
MIN_SAMPLES = 3


def _vector_block():
    """Emulated rounding and a banded product on short vectors, as in the 1D cycles."""
    import numpy as np  # here, so that mixedmg.import_s still covers numpy's import

    x = np.linspace(0.5, 1.5, 255)
    cols = np.clip(np.arange(255)[:, None] + np.arange(-1, 2), 0, 254)
    vals = np.tile([-1.0, 2.0, -1.0], (255, 1))
    for _ in range(6000):
        m, e = np.frexp(x)
        y = np.ldexp(np.rint(np.ldexp(m, 11)), e - 11)
        float(np.linalg.norm((vals * y[cols]).sum(axis=1)))


def _dense_block():
    """A dense symmetric eigensolve of tg2d-setup's order, as in its set-up."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((961, 961))
    np.linalg.eigvalsh(a + a.T)


# Fixed work that times the host's current speed, one kind per workload: the
# 1D workloads spend their time in Python calls on short vectors, tg2d-setup
# in dense LAPACK of order 961, and a shared CPU slows the two by different
# factors.
CALIBRATION_BLOCKS = {"vector": _vector_block, "dense": _dense_block}


def calibrate(kind: str) -> float:
    """Seconds one calibration block of ``kind`` takes now."""
    start = time.perf_counter()
    CALIBRATION_BLOCKS[kind]()
    return time.perf_counter() - start


def make_config(harness, config: dict, seed: int):
    """The workload's experiment config; the seed reaches it only as ``rng_seed``."""
    return harness.ExperimentConfig(**{**config, "bits": tuple(config["bits"])},
                                    rng_seed=seed)


def timed_sweep(harness, config):
    """Run and render one sweep; returns ``(csv_text or None, rows, seconds)``.

    A sweep that raises is reported with no text, so the output gate counts
    every trial it should have produced as failed.
    """
    start = time.perf_counter()
    try:
        records = harness.run_experiment(config)
        text = harness.render_csv(records)
    except Exception:
        traceback.print_exc()
        return None, 0, time.perf_counter() - start
    return text, len(records), time.perf_counter() - start


def check_output(harness, text, config, path: Path) -> tuple[int, str | None]:
    """The output gate: failed trials of one sweep and the CSV's sha256.

    The CSV is written to ``path`` and re-checked with the public
    ``validate_csv``, which re-derives every pass flag.  Each row must also
    carry the format, trial index and seed the config asks for, in order.
    A sweep with the wrong number of rows fails all its trials.
    """
    expected = [(bits, trial) for bits in config.bits for trial in range(config.trials)]
    if text is None:
        return len(expected), None
    digest = hashlib.sha256(text.encode()).hexdigest()
    path.write_text(text)
    rows = harness.read_csv_rows(path)
    if len(rows) != len(expected):
        return len(expected), digest
    _, problems = harness.validate_csv(path)
    bad = set()
    for problem in problems:
        match = _ROW_PROBLEM.match(problem)
        if match is None:
            return len(expected), digest
        bad.add(int(match.group(1)))
    for i, (row, (bits, trial)) in enumerate(zip(rows, expected)):
        if (row["significand_bits"], row["trial"], row["rng_seed"]) != (
                str(bits), str(trial), str(config.rng_seed)):
            bad.add(i)
    return len(bad), digest


def run_sample(harness, job: dict, out_dir: Path) -> dict:
    """Time, check and (when traced) trace one sweep of ``job``'s workload.

    ``job["kind"]`` is ``plain``, ``setup`` (the same sweep with
    ``trials=1``, its set-up cost) or ``traced``.
    """
    name, kind = job["workload"], job["kind"]
    config = make_config(harness, job["config"], job["seed"])
    if kind == "setup":
        config = replace(config, trials=1)
    if kind == "traced":
        tracer = Tracer(f"{name}-{job['seed']}-{os.getpid()}")
        with tracer.installed():
            text, rows, wall_s = timed_sweep(harness, config)
    else:
        text, rows, wall_s = timed_sweep(harness, config)
    failed, digest = check_output(harness, text, config, out_dir / f"{name}.{kind}.csv")
    out = {"kind": kind, "wall_s": wall_s, "trials": config.trials * len(config.bits),
           "failed": failed, "digest": digest}
    if kind == "traced":
        out["layers"] = dict(layer_metrics(tracer.spans), **{"harness.rows": rows})
        (out_dir / f"{name}.spans.json").write_text(json.dumps(tracer.records()))
    return out


def run_samples(harness, job: dict, out_dir: Path) -> tuple[dict, list[dict]]:
    """The warm-up sweep, then samples until ``job["seconds"]`` have passed.

    An untraced run alternates full and set-up sweeps, a traced run untraced
    and traced full sweeps.  Once there are ``MIN_SAMPLES`` of each kind, a
    sample is not started when more than half of it would fall past the
    run's time, judged by the last.  A calibration block runs before each
    sample and after the last, and each sample records the two around it.
    """
    kinds = ("plain", "traced") if job["trace"] else ("plain", "setup")
    warmup = run_sample(harness, dict(job, kind="plain"), out_dir)
    samples: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    block = calibrate(job["calibration"])
    while True:
        counts = Counter(s["kind"] for s in samples)
        elapsed = time.perf_counter() - start
        if (elapsed + last / 2 >= job["seconds"]
                and all(counts[kind] >= MIN_SAMPLES for kind in kinds)):
            return warmup, samples
        sample = run_sample(harness, dict(job, kind=kinds[len(samples) % len(kinds)]),
                            out_dir)
        last = time.perf_counter() - start - elapsed
        sample["calibration_s"] = [block, calibrate(job["calibration"])]
        block = sample["calibration_s"][1]
        samples.append(sample)


def main() -> int:
    job = json.loads(sys.argv[1])
    start = time.perf_counter()
    from mixedmg import harness
    import_s = time.perf_counter() - start
    src = Path(job["src"]).resolve()
    if src not in Path(harness.__file__).resolve().parents:
        print(f"mixedmg was imported from {harness.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    warmup, samples = run_samples(harness, job, Path(job["out_dir"]))
    out = {"import_s": import_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "warmup": warmup, "samples": samples}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
