"""Golden CSVs: the committed sweeps under results/ regenerate byte for byte.

The CSVs are rendered in a child process with BLAS pinned to one thread,
the benchmark's setting.  No dense product or eigensolve of order ``n``
feeds them: ``rho_star`` of every coarse solve comes from small Fourier
blocks, and every direct solve is a pair of sine transforms.  Pinning
keeps the verdict independent of the thread count the test run itself
has all the same.  A
mismatch reports the first differing line, not a diff of two whole files.
The CLI commands that regenerate the golden CSVs (see the README) are run
in the same one-thread environment.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from mixedmg.harness import ExperimentConfig, load_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# reads {name: ExperimentConfig fields} on stdin, writes {name: csv text}
_CHILD = """
import json, sys
from mixedmg.harness import ExperimentConfig, render_csv, run_experiment
jobs = json.load(sys.stdin)
json.dump({name: render_csv(run_experiment(
    ExperimentConfig(**dict(fields, bits=tuple(fields["bits"])))))
    for name, fields in jobs.items()}, sys.stdout)
"""


DEFAULT_INI = ROOT / "scripts" / "configs" / "default.ini"

# the default sweep, as `mixedmg sweep` takes it: results/sweep_n{size}.csv
SIZES = (15, 31, 63)
BITS = (8, 12, 16, 23)
TRIALS = 100
SEED = 20240801

# config of each golden CSV, by file name under results/
_GOLDEN = {
    "default_sweep.csv": replace(load_config(DEFAULT_INI), output_path=None),
    **{f"sweep_n{size}.csv": ExperimentConfig(
        size=size, bits=BITS, trials=TRIALS, rng_seed=SEED) for size in SIZES},
}

# sha256 of render_csv(run_experiment(config)) for configs the golden CSVs
# do not reach: recursive and perturbed coarse solves, 2D, Richardson,
# progressive precision
_PINNED = {
    "recursive1d": (
        ExperimentConfig(size=63, levels=4, coarse="recursive", mu=2, nu=2,
                         trials=30),
        "2307f93b79bab7a29c8c87bad6efe3841575dacc257ebedc274db923d033a339"),
    "recursive2d": (
        ExperimentConfig(problem="poisson2d", size=15, levels=3,
                         coarse="recursive", trials=30),
        "566d6388323aae47a5fec8030d6bec875117a7a87894bd6e7a4dc69479dc8c9d"),
    "perturbed2d": (
        ExperimentConfig(problem="poisson2d", size=15, coarse="perturbed",
                         sigma=0.3, trials=30),
        "22a622040e50c789cd10b8dd0d7d3c19549a2c1e01c1a30e6a3149af98dc2ce7"),
    # sigma = 0.3 leaves rho_star at the exact solve's; 0.5 raises it
    "perturbed2d_sigma05": (
        ExperimentConfig(problem="poisson2d", size=15, coarse="perturbed",
                         sigma=0.5, trials=30),
        "9fe68faba466515e9720d6f314fcf73a98161d732b789768a1ffe560356ee19f"),
    "richardson1d": (
        ExperimentConfig(size=63, smoother="richardson", trials=30),
        "36b2088d277677f4b9a66b9b7ef1c4ff97fadfce1fdbf6a26a4cd5350bbae98f"),
    # the format from progressive_epsilon on the run path
    "progressive1d": (
        ExperimentConfig(size=63, pi_target=0.01, trials=30),
        "400fa62487781e237efb88fd747dfada90e0cf82f959613f69b584b6cd354fff"),
    # post-smoothing only
    "recursive1d_post_only": (
        ExperimentConfig(size=63, levels=3, coarse="recursive", mu=0, nu=1,
                         trials=30),
        "8a09f4bd5fb1b21303b05f11d7f174736bb68898dcf005ad57dd5e921f82075a"),
    # a one-point coarsest grid, a stencil whose couplings reach no point
    "recursive2d_one_point": (
        ExperimentConfig(problem="poisson2d", size=7, levels=3,
                         coarse="recursive", trials=30),
        "66e129e23fd3e5c639f609418766eaaf0447dbb0b4a23b757056bd1aa5ac9f89"),
    "recursive1d_seven": (
        ExperimentConfig(size=7, levels=3, coarse="recursive", trials=30),
        "6ab46ab0495fbababd1047fa2dfa6b5f95ced2b06ab34d8d9a170fc52e25b880"),
    # four 2D grids, whose Galerkin products are not stencil matrices below
    # the second: the levels hold the products' interior stencils
    "recursive2d_four_grids": (
        ExperimentConfig(problem="poisson2d", size=31, levels=4,
                         coarse="recursive", trials=30),
        "4cafd2de187c27d37b527b565e4cf834c030ea4f9065d626b5fb23e4bd23e56b"),
}


# sha256 of render_csv(run_experiment(config)) for each benchmark workload of
# bench/spec.json, at its default seed 1234 and its held-out seed 4321
WORKLOADS = json.loads((ROOT / "bench" / "spec.json").read_text())["workloads"]
_WORKLOAD_DIGESTS = {
    ("tg1d-trials", 1234):
        "737086702b3ea41e18e9385c6367508f97cee4b4bf0f97f59d91ff00ca45dc33",
    ("tg1d-trials", 4321):
        "b02193d4406e6a22a33da32e988d5672ba234cf6feaa9858247b73676ba11614",
    ("tg2d-setup", 1234):
        "9dd4a9409eb581ccb269ddb35e24dcd343bad440d3f424ca33dec4fc93105ddf",
    ("tg2d-setup", 4321):
        "e2061b6e9ae9543df6331de8bb2bf6ad7a7b75d02cf935aa9331499e8166f689",
    ("vcycle1d-recursive", 1234):
        "9270f929ce71a203043cf90ca76c584e435979d75bbf1674c5e122206f902a37",
    ("vcycle1d-recursive", 4321):
        "2f4f6cadc7cecf99321391048c9e080a18a2ad5a613d21ef292a095f75b6e35e",
}


def _workload(name: str, seed: int) -> ExperimentConfig:
    fields = WORKLOADS[name]
    return ExperimentConfig(**dict(fields, bits=tuple(fields["bits"]), rng_seed=seed))


def run_one_thread(args: list[str], stdin: str | None = None) -> str:
    """Run ``python args`` with BLAS on one thread; its stdout, or fail the test."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode:
        pytest.fail(f"child {args[:3]} exited {proc.returncode}:\n"
                    f"{proc.stderr[-4000:]}", pytrace=False)
    return proc.stdout


def render_one_thread(configs: dict) -> dict[str, str]:
    """``render_csv(run_experiment(config))`` of each config, BLAS on one thread."""
    jobs = {name: asdict(config) for name, config in configs.items()}
    return json.loads(run_one_thread(["-c", _CHILD], stdin=json.dumps(jobs)))


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    return render_one_thread(
        {**_GOLDEN, **{name: config for name, (config, _) in _PINNED.items()},
         **{f"{name}@{seed}": _workload(name, seed) for name, seed in _WORKLOAD_DIGESTS}})


def first_difference(actual: str, expected: str) -> str | None:
    """None when equal, else the first differing line of the two texts."""
    if actual == expected:
        return None
    got, want = actual.splitlines(), expected.splitlines()
    i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    line = lambda lines: lines[i] if i < len(lines) else "<end of text>"  # noqa: E731
    return (f"first difference at line {i + 1} of {len(want)}:\n"
            f"  got:      {line(got)[:300]}\n  expected: {line(want)[:300]}")


def _assert_golden(text, name):
    difference = first_difference(text, (RESULTS / name).read_text())
    if difference is not None:
        pytest.fail(f"{name}: {difference}", pytrace=False)


def test_default_config_csv_is_byte_identical(rendered):
    _assert_golden(rendered["default_sweep.csv"], "default_sweep.csv")


@pytest.mark.parametrize("size", SIZES)
def test_default_sweep_csv_is_byte_identical(rendered, size):
    _assert_golden(rendered[f"sweep_n{size}.csv"], f"sweep_n{size}.csv")


def test_sweep_command_writes_golden_csv_to_stdout():
    out = run_one_thread([
        "-m", "mixedmg", "sweep", "--sizes", "15", "--bits", *map(str, BITS),
        "--trials", str(TRIALS), "--seed", str(SEED)])
    _assert_golden(out, "sweep_n15.csv")


def test_run_command_writes_golden_csv(tmp_path):
    out = tmp_path / "default_sweep.csv"
    run_one_thread(["-m", "mixedmg", "run", "--config", str(DEFAULT_INI),
                    "--out", str(out)])
    _assert_golden(out.read_text(), "default_sweep.csv")


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_csv_digest(rendered, name):
    _, digest = _PINNED[name]
    assert hashlib.sha256(rendered[name].encode()).hexdigest() == digest


@pytest.mark.parametrize("name, seed", sorted(_WORKLOAD_DIGESTS))
def test_workload_csv_digest(rendered, name, seed):
    text = rendered[f"{name}@{seed}"]
    assert hashlib.sha256(text.encode()).hexdigest() == _WORKLOAD_DIGESTS[name, seed]


def test_pinned_perturbation_raises_rho_star():
    # the perturbed bound sees its perturbation: at every format its
    # rho_star is above that of the exact solve on the same grid
    config, _ = _PINNED["perturbed2d_sigma05"]
    one = replace(config, trials=1)
    exact = replace(one, coarse="exact", sigma=0.0)

    def rho(cfg):
        return {r.report.significand_bits: r.report.rho_star for r in run_experiment(cfg)}

    perturbed, unperturbed = rho(one), rho(exact)
    assert set(perturbed) == set(unperturbed) == set(config.bits)
    assert all(perturbed[b] > unperturbed[b] for b in config.bits), (perturbed, unperturbed)


def test_first_difference_names_the_line():
    assert first_difference("a\nb\n", "a\nb\n") is None
    assert "line 2 of 3" in first_difference("a\nx\nc", "a\nb\nc")
    assert "<end of text>" in first_difference("a\n", "a\nb\n")
