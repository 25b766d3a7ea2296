"""Spans around trenq's public functions, installed from outside the program.

install() replaces each traced function by a wrapper in every trenq module
that holds it, so calls made inside the program (thresholds calling the
oracle, the CLI calling everything) are traced as well as the benchmark's own.
Spans stay in memory; layer_metrics() turns them into the per-layer metrics
when the run ends.  A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# item numbers of the spans outside the timed items
SETUP = -1
CLI = -2

LAYERS = ("potentials", "action", "corrections", "effective", "thresholds", "oracle", "cli")
TRACED = {
    "trenq.potentials": ("to_log_well",),
    "trenq.action": ("action", "action_profile", "fit_phi"),
    "trenq.corrections": ("solve_spectrum",),
    "trenq.effective": ("ordering_table",),
    "trenq.thresholds": ("critical_coupling",),
    "trenq.oracle": ("count_bound_states", "exact_critical_coupling"),
    "trenq.cli": ("main",),
}


def _span_name(fname: str, args: tuple, kwargs: dict) -> str:
    if fname == "critical_coupling":
        return "critical_coupling_factory" if kwargs.get("well_factory") else "critical_coupling_linear"
    if fname == "action_profile":
        return "action_profile_analytic" if args[0].breakpoints is None else "action_profile_tabulated"
    if fname == "main":
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else "main"
    return fname


def _span_extra(fname: str, result):
    if fname == "count_bound_states":
        return result.step_stats["n_steps"], result.step_stats["renormalizations"]
    if fname == "action_profile":
        return float(result.quad_error.max())
    return None


class Tracer:
    """Records one span per call of a traced function.

    A span is [name, layer, parent index, item number, start, end, extra];
    `item` is set by the caller to the number of the item being run, or to
    SETUP / CLI outside the timed items.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = SETUP
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in TRACED]
        modules += [m for name, m in sys.modules.items() if name == "trenq" or name.startswith("trenq.")]
        for modname, fnames in TRACED.items():
            layer = modname.split(".")[1]
            for fname in fnames:
                original = getattr(sys.modules[modname], fname)
                wrapped = self._wrap(layer, fname, original)
                for module in set(modules):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, layer: str, fname: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [_span_name(fname, args, kwargs), layer, stack[-1] if stack else None, self.item, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            span[6] = _span_extra(fname, result)
            return result

        return traced


class _Phase:
    """Aggregates of the spans of one phase (set-up, timed items or CLI call)."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.spans = 0
        self.steps = self.renorms = self.grid_max = 0
        self.direct_counts = 0
        self.factory_builds = 0
        self.quad_error_max = 0.0

    def mean(self, name: str) -> float:
        return self.inclusive[name] / self.calls[name] if self.calls[name] else math.nan


def _aggregate(spans: list[list]) -> dict[str, _Phase]:
    child = [0.0] * len(spans)
    for name, layer, parent, item, t0, t1, extra in spans:
        if parent is not None:
            child[parent] += t1 - t0
    phases: dict[str, _Phase] = defaultdict(_Phase)
    for i, (name, layer, parent, item, t0, t1, extra) in enumerate(spans):
        ph = phases["setup" if item == SETUP else "cli" if item == CLI else "items"]
        duration = t1 - t0
        ph.spans += 1
        ph.calls[name] += 1
        ph.inclusive[name] += duration
        ph.self_time[name] += duration - child[i]
        ph.layer_self[layer] += duration - child[i]
        parent_name = spans[parent][0] if parent is not None else None
        if name == "count_bound_states" and extra is not None:
            ph.steps += extra[0]
            ph.renorms += extra[1]
            ph.grid_max = max(ph.grid_max, extra[0])
            if parent_name != "exact_critical_coupling":
                ph.direct_counts += 1
        elif name.startswith("action_profile") and extra is not None:
            ph.quad_error_max = max(ph.quad_error_max, extra)
        elif name == "to_log_well" and parent_name == "critical_coupling_factory":
            ph.factory_builds += 1
    return phases


def layer_metrics(spans: list[list], attempted: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, {name: (value, unit)}.

    Times are per call, counts and self times per item.  Each metric comes
    from the timed items.  Where the items of a workload never call the
    function a metric is about, it comes from the set-up warm-up instead,
    counted as one item: the warm-up calls every traced function, so every
    metric exists on every workload.  cli.* come from the one CLI call.
    """
    phases = _aggregate(spans)
    items, setup, cli = phases["items"], phases["setup"], phases["cli"]

    def pick(*names: str) -> _Phase:
        return items if any(items.calls[n] for n in names) else setup

    def per_item(ph: _Phase, value: float) -> float:
        return value / attempted if ph is items else value

    out: dict[str, tuple[float, str]] = {}
    ph = pick("count_bound_states")
    out["oracle.node_counts"] = (per_item(ph, ph.calls["count_bound_states"]), "count/item")
    ph = pick("count_bound_states", "exact_critical_coupling")
    outcomes = ph.calls["exact_critical_coupling"] + ph.direct_counts
    out["oracle.node_counts_per_threshold"] = (ph.calls["count_bound_states"] / outcomes, "count")
    out["oracle.exact_critical_coupling_s"] = (pick("exact_critical_coupling").mean("exact_critical_coupling"), "s")
    ph = pick("count_bound_states")
    out["oracle.count_bound_states_s"] = (ph.mean("count_bound_states"), "s")
    out["oracle.numerov_steps"] = (per_item(ph, ph.steps), "count/item")
    out["oracle.ns_per_step"] = (1e9 * ph.self_time["count_bound_states"] / ph.steps, "ns")
    out["oracle.renormalizations"] = (per_item(ph, ph.renorms), "count/item")
    out["oracle.grid_points_max"] = (ph.grid_max, "count")
    for kind in ("analytic", "tabulated"):
        name = f"action_profile_{kind}"
        out[f"action.{name}_s"] = (pick(name).mean(name), "s")
    out["action.fit_phi_s"] = (pick("fit_phi").mean("fit_phi"), "s")
    out["action.action_s"] = (pick("action").mean("action"), "s")
    ph = pick("action_profile_analytic", "action_profile_tabulated")
    out["action.quad_error_max"] = (ph.quad_error_max, "1")
    for route in ("linear", "factory"):
        name = f"critical_coupling_{route}"
        out[f"thresholds.{name}_s"] = (pick(name).mean(name), "s")
    ph = pick("critical_coupling_factory")
    out["thresholds.factory_builds"] = (per_item(ph, ph.factory_builds), "count/item")
    ph = pick("to_log_well")
    out["potentials.to_log_well_s"] = (ph.mean("to_log_well"), "s")
    out["potentials.to_log_well_calls"] = (per_item(ph, ph.calls["to_log_well"]), "count/item")
    ph = pick("solve_spectrum")
    out["corrections.solve_spectrum_s"] = (ph.mean("solve_spectrum"), "s")
    out["corrections.solve_spectrum_calls"] = (per_item(ph, ph.calls["solve_spectrum"]), "count/item")
    out["effective.ordering_table_s"] = (pick("ordering_table").mean("ordering_table"), "s")
    out["cli.validate_s"] = (cli.mean("validate"), "s")
    for layer in LAYERS:
        if layer == "cli":
            out["cli.self_s_per_item"] = (cli.layer_self["cli"], "s")
            continue
        ph = items if items.layer_self[layer] else setup
        out[f"{layer}.self_s_per_item"] = (per_item(ph, ph.layer_self[layer]), "s")
    out["trace.spans_per_item"] = (items.spans / attempted, "count/item")
    return out
