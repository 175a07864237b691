"""Spans around mixedmg's layer boundaries, and the per-layer metrics they give.

A :class:`Tracer` replaces public functions and methods under the names the
calling module looks up (``mixedmg.cycles.rounded_residual`` is the
precision kernel as ``cycles`` calls it), so every span marks a call that
crosses from one module into another.  Classes are never replaced:
``hierarchy`` and ``precision`` branch on ``isinstance(..., SparseSpd)``.

Spans stay in memory; the caller writes them out when its workload call
ends.  A wrapped name that no longer exists is skipped, so its metrics read
zero calls instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import NamedTuple

CARRIER_BITS = 53  # significand bits of the float64 carrier

# (owner, attribute, group).  The owner is a module, or "module:Class" for a
# method.  The group is the span name: the layer, then the work inside it.
TARGETS = (
    ("mixedmg.harness", "run_experiment", "harness.run_experiment"),
    ("mixedmg.harness", "render_csv", "harness.render_csv"),
    ("mixedmg.harness", "build_multilevel", "hierarchy.build"),
    ("mixedmg.hierarchy", "abs_matrix_norm", "linops.spectral"),
    ("mixedmg.hierarchy", "spectral_norm", "linops.spectral"),
    ("mixedmg.hierarchy", "condition_number", "linops.spectral"),
    ("mixedmg.cycles", "energy_operator_norm", "linops.spectral"),
    ("mixedmg.harness", "energy_norm", "linops.energy_norm"),
    ("mixedmg.cycles", "energy_norm", "linops.energy_norm"),
    ("mixedmg.harness", "solve_spd", "linops.solve_spd"),
    ("mixedmg.cycles", "solve_spd", "linops.solve_spd"),
    ("mixedmg.harness", "make_jacobi", "cycles.smoother_build"),
    ("mixedmg.harness", "make_richardson", "cycles.smoother_build"),
    ("mixedmg.cycles", "make_jacobi", "cycles.smoother_build"),
    ("mixedmg.cycles", "make_richardson", "cycles.smoother_build"),
    ("mixedmg.harness", "rho_star", "cycles.rho_star"),
    ("mixedmg.harness", "make_exact_coarse", "cycles.coarse_build"),
    ("mixedmg.harness", "make_perturbed_coarse", "cycles.coarse_build"),
    ("mixedmg.harness", "make_recursive_coarse", "cycles.coarse_build"),
    ("mixedmg.harness", "tg_cycle", "cycles.tg_cycle"),
    ("mixedmg.cycles:CoarseSolver", "apply", "cycles.coarse_apply"),
    ("mixedmg.cycles", "v_cycle", "cycles.v_cycle"),
    ("mixedmg.cycles", "quantize_vector", "precision.kernel"),
    ("mixedmg.cycles", "rounded_residual", "precision.kernel"),
    ("mixedmg.cycles", "rounded_matvec", "precision.kernel"),
    ("mixedmg.cycles", "rounded_add_sub", "precision.kernel"),
    ("mixedmg.harness", "compute_constants", "bounds"),
    ("mixedmg.harness", "per_line_bounds", "bounds"),
    ("mixedmg.harness", "progressive_epsilon", "bounds"),
)

KERNEL_GROUP = "precision.kernel"


class Span(NamedTuple):
    group: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    outer: bool      # no enclosing span of the same group
    entries: int     # output entries of a precision kernel, else 0
    carrier: bool    # a precision kernel called with the 53-bit format


class Tracer:
    """Records one span per call of every wrapped name, for one workload call."""

    def __init__(self, call_id: str):
        self.call_id = call_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, group: str):
        spans, stack, open_groups = self.spans, self._stack, self._open
        clock = time.perf_counter
        kernel = group == KERNEL_GROUP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            outer = open_groups[group] == 0
            spans.append(None)
            stack.append(index)
            open_groups[group] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                open_groups[group] -= 1
                entries, carrier = 0, False
                if kernel and result is not None:
                    entries = int(result.value.size)
                    carrier = any(getattr(a, "significand_bits", 0) >= CARRIER_BITS
                                  for a in args)
                spans[index] = Span(group, start, end, parent, outer,
                                    entries, carrier)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        patched = []
        try:
            for owner_path, attr, group in TARGETS:
                owner = _resolve(owner_path)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(original, group))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def records(self) -> list[dict]:
        """The spans as plain dicts, each tagged with this workload call's id."""
        return [dict(s._asdict(), call=self.call_id) for s in self.spans]


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def tail(values: list[float]) -> float:
    """The highest percentile that has at least ten values beyond it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times of one traced workload call.

    A group's busy time sums its outermost spans, so a recursive call such
    as ``v_cycle`` inside ``v_cycle`` is not counted twice.
    """
    own = self_times(spans)
    groups: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        groups[s.group].append(i)

    def calls(g):
        return len(groups[g])

    def busy(g):
        return sum(spans[i].end - spans[i].start for i in groups[g] if spans[i].outer)

    def self_s(g):
        return sum(own[i] for i in groups[g])

    kernels = [spans[i] for i in groups[KERNEL_GROUP]]
    entries = sum(s.entries for s in kernels)
    cycle_ms = [1e3 * (spans[i].end - spans[i].start) for i in groups["cycles.tg_cycle"]]
    return {
        "precision.kernel_calls": calls(KERNEL_GROUP),
        "precision.kernel_s": busy(KERNEL_GROUP),
        "precision.carrier_calls": sum(s.carrier for s in kernels),
        "precision.entries": entries,
        "precision.ns_per_entry": 1e9 * busy(KERNEL_GROUP) / entries if entries else 0.0,
        "linops.spectral_calls": calls("linops.spectral"),
        "linops.spectral_s": busy("linops.spectral"),
        "linops.energy_norm_calls": calls("linops.energy_norm"),
        "linops.energy_norm_s": busy("linops.energy_norm"),
        "linops.solve_spd_calls": calls("linops.solve_spd"),
        "linops.solve_spd_s": busy("linops.solve_spd"),
        "hierarchy.build_s": busy("hierarchy.build"),
        "hierarchy.self_s": self_s("hierarchy.build"),
        "cycles.smoother_build_calls": calls("cycles.smoother_build"),
        "cycles.smoother_build_s": busy("cycles.smoother_build"),
        "cycles.rho_star_s": busy("cycles.rho_star"),
        "cycles.coarse_build_s": busy("cycles.coarse_build"),
        "cycles.tg_cycle_calls": calls("cycles.tg_cycle"),
        "cycles.tg_cycle_s": busy("cycles.tg_cycle"),
        "cycles.tg_cycle_self_s": self_s("cycles.tg_cycle"),
        "cycles.tg_cycle_p50_ms": statistics.median(cycle_ms) if cycle_ms else 0.0,
        "cycles.tg_cycle_tail_ms": tail(cycle_ms) if cycle_ms else 0.0,
        "cycles.coarse_apply_calls": calls("cycles.coarse_apply"),
        "cycles.coarse_apply_s": busy("cycles.coarse_apply"),
        "cycles.v_cycle_calls": calls("cycles.v_cycle"),
        "cycles.v_cycle_s": busy("cycles.v_cycle"),
        "bounds.calls": calls("bounds"),
        "bounds.s": busy("bounds"),
        "harness.self_s": self_s("harness.run_experiment"),
        "harness.render_csv_s": busy("harness.render_csv"),
    }
