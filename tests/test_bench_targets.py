"""The benchmark's span targets and workloads name what the package defines.

``bench/spans.py`` wraps every ``(owner, attribute)`` of its ``TARGETS`` and
skips a name that no longer exists, so a renamed function or method would
read zero calls in its layer's metrics instead of failing.  The tuple is
read from the source with ``ast``, without importing the benchmark.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from mixedmg.harness import ExperimentConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _targets():
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TARGETS")


TARGETS = [(owner, attr) for owner, attr, _ in _targets()]
WORKLOADS = json.loads((BENCH / "spec.json").read_text())["workloads"]


def test_targets_nonempty():
    assert TARGETS


@pytest.mark.parametrize("owner_path, attr", TARGETS,
                         ids=[f"{o}.{a}" for o, a in TARGETS])
def test_span_target_resolves(owner_path, attr):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = vars(owner)[class_name]
    # the tracer looks the name up in the owner's own namespace
    assert attr in vars(owner), f"{owner_path} has no {attr}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_is_a_valid_config(name):
    fields = WORKLOADS[name]
    ExperimentConfig(**dict(fields, bits=tuple(fields["bits"])))
