"""The benchmark's span targets and workloads name what the package defines.

``bench/spans.py`` wraps every ``(owner, attribute)`` of its ``TARGETS`` and
skips a name that no longer exists, so a renamed function or method would
read zero calls in its layer's metrics instead of failing.  The tuple is
read from the source with ``ast``, without importing the benchmark.  The
tracer also reads ``result.value.size`` of every precision kernel it wraps,
so each kernel target must return a result with a ``value`` array.

The benchmark's per-layer counts are calls of those names as the cycle makes
them, so the calls of one two-grid cycle are pinned here.

``bench/sample.py`` calls ``harness.<name>`` for its sweep and its output
gate, so every such name it reads must be defined in ``mixedmg.harness``.

A target whose function the package deleted on purpose is listed in
``RETIRED``: the benchmark's files stay fixed between its runs, so its
entry stays in ``TARGETS`` and reads zero calls, and the test asserts that
the name is really gone.
"""

import ast
import importlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mixedmg import (
    CARRIER,
    PrecisionFormat,
    build_multilevel,
    make_exact_coarse,
    make_jacobi,
    tg_cycle,
    v_cycle,
)
from mixedmg.harness import ExperimentConfig
from mixedmg.precision import Rounding

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _targets():
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TARGETS")


# the dense energy operator norm left the package with the dense rho_star,
# the spectral norm of a stencil matrix, which no module read, with the
# other names only the tests called, and the norm of |K| of a matrix read
# as a stencil with the reader: a level derives eta_A and eta_P from the
# stencil and the weight it holds
RETIRED = {("mixedmg.cycles", "energy_operator_norm"),
           ("mixedmg.hierarchy", "spectral_norm"),
           ("mixedmg.hierarchy", "abs_matrix_norm")}
TARGETS = [(owner, attr) for owner, attr, _ in _targets()
           if (owner, attr) not in RETIRED]
KERNELS = [(owner, attr) for owner, attr, group in _targets()
           if group == "precision.kernel"]
HARNESS_READS = sorted({
    node.attr for node in ast.walk(ast.parse((BENCH / "sample.py").read_text()))
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "harness"})
WORKLOADS = json.loads((BENCH / "spec.json").read_text())["workloads"]


def test_targets_nonempty():
    assert TARGETS and HARNESS_READS


@pytest.mark.parametrize("owner_path, attr", TARGETS,
                         ids=[f"{o}.{a}" for o, a in TARGETS])
def test_span_target_resolves(owner_path, attr):
    # the tracer looks the name up in the owner's own namespace
    assert attr in vars(_owner(owner_path)), f"{owner_path} has no {attr}"


@pytest.mark.parametrize("attr", HARNESS_READS)
def test_sample_harness_name_resolves(attr):
    assert attr in vars(importlib.import_module("mixedmg.harness")), f"mixedmg.harness has no {attr}"


@pytest.mark.parametrize("owner_path, attr", sorted(RETIRED),
                         ids=[f"{o}.{a}" for o, a in sorted(RETIRED)])
def test_retired_target_is_absent(owner_path, attr):
    assert (owner_path, attr) in {(o, a) for o, a, _ in _targets()}
    assert attr not in vars(_owner(owner_path)), f"{owner_path} still has {attr}"


def _owner(owner_path):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return vars(owner)[class_name] if class_name else owner


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_is_a_valid_config(name):
    fields = WORKLOADS[name]
    ExperimentConfig(**dict(fields, bits=tuple(fields["bits"])))


def _kernel_args(attr, fmt):
    """Positional and keyword arguments of a kernel call in ``fmt``."""
    level = build_multilevel(7, 2)[0]
    w, c = np.linspace(-1.0, 1.0, 7), np.ones(7)
    return {
        "quantize_vector": ((w, fmt), {}),
        "rounded_add_sub": ((w, c, "-", fmt), {}),
        "rounded_residual": ((level.A, w, c, fmt), {}),
        "rounded_matvec": ((level.P_t, w, fmt), {}),
    }[attr]


@pytest.mark.parametrize("owner_path, attr", KERNELS,
                         ids=[f"{o}.{a}" for o, a in KERNELS])
def test_kernel_target_returns_a_value(owner_path, attr):
    # in a format, and with a rounding in the format slot, as ``cycles``
    # calls it: the tracer reads ``result.value.size`` of that call
    kernel = getattr(importlib.import_module(owner_path), attr)
    for fmt in (PrecisionFormat(12), Rounding(PrecisionFormat(12))):
        args, kwargs = _kernel_args(attr, fmt)
        result = kernel(*args, **kwargs)
        assert isinstance(result.value, np.ndarray) and result.value.size


def test_tg_cycle_calls(monkeypatch):
    # one reduced-format cycle with an exact coarse solve, counted as the
    # tracer counts it: by the names ``mixedmg.cycles`` looks up at call time.
    # Its formats become widths once, in the one rounding of its reduced
    # side; the exact side makes none
    cycles = importlib.import_module("mixedmg.cycles")
    level = build_multilevel(15, 2)[0]
    fmt = PrecisionFormat(12)
    S, coarse = make_jacobi(level.A, 2.0 / 3.0, fmt), make_exact_coarse(level)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, any(arg is CARRIER for arg in args)] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("quantize_vector", "rounded_scale", "rounded_residual",
                 "rounded_matvec", "rounded_add_sub", "solve_spd", "energy_norm",
                 "Rounding"):
        monkeypatch.setattr(cycles, name, counted(name, getattr(cycles, name)))
    tg_cycle(np.linspace(-1.0, 1.0, level.n), S, coarse)
    assert calls == {
        ("quantize_vector", False): 1,
        ("rounded_scale", False): 2, ("rounded_residual", False): 2,
        ("rounded_matvec", False): 2, ("rounded_add_sub", False): 2,
        ("solve_spd", False): 1, ("energy_norm", False): 8, ("Rounding", False): 1,
    }


def test_carrier_cycle_calls_no_kernel(monkeypatch):
    # the carrier runs plain float64 operations, its quantize the identity:
    # a carrier V-cycle, as every recursive coarse solve runs, calls no
    # precision kernel and makes no rounding, and the tracer counts no
    # carrier kernel call
    cycles = importlib.import_module("mixedmg.cycles")
    levels = build_multilevel(31, 3)
    smoothers = [make_jacobi(level.A, 2.0 / 3.0, CARRIER) for level in levels]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in [attr for _, attr in KERNELS] + ["rounded_scale", "Rounding"]:
        monkeypatch.setattr(cycles, attr, counted(attr, getattr(cycles, attr)))
    r = np.random.default_rng(2).standard_normal((levels[0].n, 3))
    v_cycle(levels, 1, 1, r, smoothers=smoothers)
    assert calls == {}


@pytest.mark.parametrize("fmt", [PrecisionFormat(12), CARRIER], ids=["12", "carrier"])
def test_non_finite_right_hand_side_is_refused(fmt):
    # quantizing checks finiteness in the carrier too: with fmt the carrier,
    # the cycle and its reference run the carrier operations only
    levels = build_multilevel(15, 2)
    level = levels[0]
    S = make_jacobi(level.A, 2.0 / 3.0, fmt)
    for bad in (np.nan, np.inf):
        r = np.linspace(-1.0, 1.0, level.n)
        r[3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            tg_cycle(r, S, make_exact_coarse(level))
        with pytest.raises(ValueError, match="must be finite"):
            v_cycle(levels, 1, 1, r[:, None], smoothers=[S])
