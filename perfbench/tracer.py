"""Outside-in span recorder for the twinalloc package.

The recorder replaces public names where the calling module looks them up
(``twinalloc.engine.step_control``, not ``twinalloc.twin.step_control``), so
every call that crosses a layer boundary opens a span. A span is a tuple in
memory: its id, layer key, parent span, start and end. Nothing is written
while the traced command runs; ``table`` reduces the spans to
per-key calls, inclusive time and self time once the command has returned,
and ``layer_metrics`` names them.

A site whose module or attribute does not exist is skipped, so a later
commit that deletes or renames a function reads 0 calls instead of failing.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time

import numpy as np

ROOT_KEY = "cli.main"

# (module, attribute, span key). "Class.method" patches the class attribute.
# Both the CLI and the engine bind run_scenario: the CLI binding is what
# `simulate` calls, the engine binding is what compare_policies calls.
WRAP_SITES = (
    ("twinalloc.cli", "load_scenario", "cli.load"),
    ("twinalloc.cli", "run_scenario", "engine.run"),
    ("twinalloc.cli", "compare_policies", "engine.compare"),
    ("twinalloc.cli", "write_metrics_csv", "report.csv"),
    ("twinalloc.cli", "render_comparison_svg", "report.svg"),
    ("twinalloc.cli", "write_manifest", "report.manifest"),
    ("twinalloc.engine", "run_scenario", "engine.run"),
    ("twinalloc.engine", "evolve_requirements", "engine.walk"),
    ("twinalloc.engine", "compute_requirement", "twin.requirement"),
    ("twinalloc.engine", "step_control", "twin.control"),
    ("twinalloc.engine", "update_regret", "twin.regret"),
    ("twinalloc.engine", "forecast_requirements", "twin.forecast"),
    ("twinalloc.engine", "allocate_equal", "manager.equal"),
    ("twinalloc.engine", "allocate_static", "manager.static"),
    ("twinalloc.engine", "allocate_event", "manager.event"),
    ("twinalloc.engine", "allocate_online", "manager.online"),
    ("twinalloc.engine", "should_trigger", "manager.trigger"),
    ("twinalloc.engine", "estimate_event_horizon", "manager.horizon"),
    ("twinalloc.engine", "AllocationConstraints", "core.constraints"),
    ("twinalloc.engine", "compute_residual", "core.residual"),
    ("twinalloc.twin", "compute_requirement", "twin.requirement"),
    ("twinalloc.twin", "iterations_for_delta", "solver.certificate"),
    ("twinalloc.twin", "DigitalTwin.assign_task", "twin.assign"),
    ("twinalloc.manager", "hinge_quadratic_solve", "solver.hinge"),
    ("twinalloc.manager", "project_capped_simplex", "solver.project"),
)

SPAN_KEYS = (ROOT_KEY,) + tuple(dict.fromkeys(key for _, _, key in WRAP_SITES))
_CODE = {key: code for code, key in enumerate(SPAN_KEYS)}


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        # (id, key code, parent id, start ns, end ns), appended as spans end;
        # ids count up in start order and the root's parent is -1
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._ids = itertools.count()
        self._stack = [-1]
        self.hinge_iters: list[int] = []
        self.hinge_sizes: list[int] = []
        self.csv_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, key: str, after=None):
        """Return fn wrapped in a span; after(args, result) runs once it ends."""
        code = _CODE[key]
        append, ids = self.spans.append, self._ids
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            i = next(ids)
            parent = stack[-1]
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                append((i, code, parent, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _after_hinge(self, args, result):
        # hinge_quadratic_solve returns (allocation, iterations_used)
        if isinstance(result, tuple) and len(result) == 2:
            x, used = result
            self.hinge_iters.append(int(used))
            self.hinge_sizes.append(int(np.size(x)))

    def _after_csv(self, args, result):
        if args and os.path.isfile(args[0]):
            self.csv_bytes += os.path.getsize(args[0])

    def install(self, sites=WRAP_SITES) -> list[str]:
        """Patch every site that exists; return the ones that were missing."""
        hooks = {"solver.hinge": self._after_hinge,
                 "report.csv": self._after_csv}
        missing = []
        for module_name, attr, key in sites:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or name not in vars(owner):
                missing.append(f"{module_name}.{attr}")
                continue
            original = vars(owner)[name]
            self._restore.append((owner, name, original))
            setattr(owner, name, self.wrap(original, key, hooks.get(key)))
        return missing

    def restore(self) -> None:
        """Put every patched name back, newest patch first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- reduction ----------------------------------------------------------

    def table(self) -> dict:
        """Per-key calls, inclusive ns and self ns, plus per-call extras.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly (one thread), so the self times of all
        spans under a root add up to the root's duration.
        """
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        ids, keys, parents, starts, ends = rows.T
        dur = ends - starts
        has_parent = parents >= 0
        child_ns = np.bincount(parents[has_parent], weights=dur[has_parent],
                               minlength=ids.max(initial=-1) + 1)
        self_ns = dur - child_ns[ids]
        k = len(SPAN_KEYS)
        calls = np.bincount(keys, minlength=k)
        total = np.bincount(keys, weights=dur, minlength=k)
        own = np.bincount(keys, weights=self_ns, minlength=k)
        online = dur[keys == _CODE["manager.online"]]
        return {
            "calls": {key: int(calls[i]) for i, key in enumerate(SPAN_KEYS)},
            "total_ns": {key: float(total[i]) for i, key in enumerate(SPAN_KEYS)},
            "self_ns": {key: float(own[i]) for i, key in enumerate(SPAN_KEYS)},
            "online_call_ns": online.tolist(),
            "hinge_iters": list(self.hinge_iters),
            "hinge_sizes": list(self.hinge_sizes),
            "csv_bytes": self.csv_bytes,
        }


# per-layer metric -> span keys whose self times it sums
SELF_TIME_METRICS = {
    "engine.run_self_s": ("engine.run", "engine.compare"),
    "engine.walk_s": ("engine.walk",),
    "twin.assign_s": ("twin.assign",),
    "twin.requirement_s": ("twin.requirement",),
    "twin.control_s": ("twin.control",),
    "twin.forecast_s": ("twin.forecast",),
    "twin.regret_s": ("twin.regret",),
    "manager.online_self_s": ("manager.online",),
    "manager.event_s": ("manager.event",),
    "manager.static_s": ("manager.static",),
    "manager.equal_s": ("manager.equal",),
    "manager.trigger_s": ("manager.trigger",),
    "manager.horizon_s": ("manager.horizon",),
    "solver.hinge_s": ("solver.hinge",),
    "solver.certificate_s": ("solver.certificate",),
    "solver.project_s": ("solver.project",),
    "core.constraints_s": ("core.constraints",),
    "core.residual_s": ("core.residual",),
    "report.csv_s": ("report.csv",),
    "report.svg_s": ("report.svg",),
    "report.manifest_s": ("report.manifest",),
    "cli.load_s": ("cli.load",),
    "cli.self_s": (ROOT_KEY,),
}

CALL_METRICS = {
    "twin.assign_calls": "twin.assign",
    "twin.requirement_calls": "twin.requirement",
    "twin.control_calls": "twin.control",
    "manager.online_calls": "manager.online",
    "manager.event_calls": "manager.event",
    "solver.hinge_calls": "solver.hinge",
    "solver.certificate_calls": "solver.certificate",
}

# metrics that are exact counts: the same inputs give the same value
COUNT_METRICS = tuple(CALL_METRICS) + (
    "engine.ticks", "solver.hinge_iters", "solver.hinge_iters_p50",
    "solver.hinge_iters_max", "solver.hinge_elem_iters", "report.csv_bytes")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tables, run_ns: float, ticks: int) -> dict:
    """Name the per-layer metrics of one traced command or several.

    tables holds one table() per traced command; run_ns is the summed
    wall time of those commands measured around main(); ticks is the
    number of ticks they simulated. Every ``_s`` metric except
    ``manager.online_s`` is a self time, so those metrics plus
    ``trace.uncovered_s`` add up to ``trace.run_s``.
    """
    def summed(field, key):
        return sum(t[field].get(key, 0) for t in tables)

    def concat(field):
        return [v for t in tables for v in t[field]]

    out = {}
    for name, keys in SELF_TIME_METRICS.items():
        out[name] = sum(summed("self_ns", key) for key in keys) / 1e9
    for name, key in CALL_METRICS.items():
        out[name] = summed("calls", key)
    out["engine.ticks"] = ticks
    out["manager.online_s"] = summed("total_ns", "manager.online") / 1e9
    online_ms = [v / 1e6 for v in concat("online_call_ns")]
    out["manager.online_p50_ms"] = _percentile(online_ms, 50)
    out["manager.online_p90_ms"] = _percentile(online_ms, 90)
    iters = concat("hinge_iters")
    sizes = concat("hinge_sizes")
    out["solver.hinge_iters"] = int(sum(iters))
    out["solver.hinge_iters_p50"] = _percentile(iters, 50)
    out["solver.hinge_iters_max"] = int(max(iters, default=0))
    elem_iters = int(sum(i * n for i, n in zip(iters, sizes)))
    out["solver.hinge_elem_iters"] = elem_iters
    hinge_ns = summed("total_ns", "solver.hinge")
    out["solver.hinge_ns_per_elem_iter"] = (hinge_ns / elem_iters
                                            if elem_iters else 0.0)
    out["report.csv_bytes"] = sum(t["csv_bytes"] for t in tables)
    run_s = run_ns / 1e9
    out["trace.run_s"] = run_s
    out["trace.uncovered_s"] = run_s - sum(out[name]
                                           for name in SELF_TIME_METRICS)
    return out


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ns_per_elem_iter"):
        return "ns"
    if name.endswith("_frac"):
        return "fraction"
    return "count"
