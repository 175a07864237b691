"""Golden CSVs: the committed sweeps under results/ regenerate byte for byte."""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from mixedmg.harness import ExperimentConfig, load_config, render_csv, run_experiment

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def _default_sweep_script():
    spec = importlib.util.spec_from_file_location(
        "default_sweep", ROOT / "scripts" / "default_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_config_csv_is_byte_identical():
    config = load_config(ROOT / "scripts" / "configs" / "default.ini")
    config = replace(config, output_path=None)
    expected = (RESULTS / "default_sweep.csv").read_text()
    assert render_csv(run_experiment(config)) == expected


_SWEEP = _default_sweep_script()


@pytest.mark.parametrize("size", _SWEEP.SIZES)
def test_default_sweep_csv_is_byte_identical(size):
    config = ExperimentConfig(size=size, bits=_SWEEP.BITS, trials=_SWEEP.TRIALS,
                              rng_seed=_SWEEP.SEED)
    expected = (RESULTS / f"sweep_n{size}.csv").read_text()
    assert render_csv(run_experiment(config)) == expected


# sha256 of render_csv(run_experiment(config)) for configs the golden CSVs
# do not reach: recursive and perturbed coarse solves, 2D, Richardson
_PINNED = {
    "recursive1d": (
        ExperimentConfig(size=63, levels=4, coarse="recursive", mu=2, nu=2,
                         trials=30),
        "0c6e517cf98aa49ea682ba21436bb220fddb458ebb45ecbccc4f54d0e0974084"),
    "recursive2d": (
        ExperimentConfig(problem="poisson2d", size=15, levels=3,
                         coarse="recursive", trials=30),
        "aee06a047109f4985ad53ecfbbb19b058dcc110bafa4199730fc713397a19db0"),
    "perturbed2d": (
        ExperimentConfig(problem="poisson2d", size=15, coarse="perturbed",
                         sigma=0.3, trials=30),
        "dd0e7b7ab252bfb7d7264589833363c3848e61bbc965ff35c38f9740b2b58e18"),
    "richardson1d": (
        ExperimentConfig(size=63, smoother="richardson", trials=30),
        "62f74014102ec4c989fbe6fc209ebc11c7f7f474c6fd6deb4dcba01ce5c6d3bb"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_csv_digest(name):
    config, digest = _PINNED[name]
    text = render_csv(run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
