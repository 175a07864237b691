"""Golden CSVs: the committed sweeps under results/ regenerate byte for byte."""

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
