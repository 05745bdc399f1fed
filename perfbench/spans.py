"""Span recorder installed from outside the package, and the per-layer metrics it yields.

The recorder replaces each traced public function at every module attribute
that holds it (``aoi_energy.cli.evaluate_exact``,
``aoi_energy.evaluation.stationary_distribution``,
``aoi_energy.solver.bellman_qvalues``, ...), so callers that look the name
up at call time reach the wrapper. Each call appends one span (name, start,
end, parent, raised) to in-memory lists; nothing is written until the run
ends. The package itself is not modified.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from pathlib import Path

from aoi_energy.policies import Periodic
from harness import loc_metric_name, module_loc
from workloads import params_key

MODULES = ("aoi_energy", "aoi_energy.cli", "aoi_energy.evaluation", "aoi_energy.solver",
           "aoi_energy.structure", "aoi_energy.model", "aoi_energy.policies")


def _exact_states(spec, params, *args, **kwargs):
    period = spec.period if isinstance(spec, Periodic) else 1
    return {"states": params.n_states * period}


def _mc_slots(spec, params, cfg, *args, **kwargs):
    return {"slots": cfg.horizon * cfg.replications}


def _enumerated(params, *args, **kwargs):
    return {"policies": 1 << params.n_states}


def _solve_key(params, *args, **kwargs):
    return {"key": params_key(params)}


def _solve_gain(result):
    return {"gain": result[0].gain}


# span name -> (module that defines it, hook on the arguments, hook on the result)
TRACED = {
    "cli.main": ("aoi_energy.cli", None, None),
    "solver.solve": ("aoi_energy.solver", _solve_key, _solve_gain),
    "solver.bellman_qvalues": ("aoi_energy.solver", None, None),
    "solver.check_truncation_adequacy": ("aoi_energy.solver", None, None),
    "solver.greedy_policy": ("aoi_energy.solver", None, None),
    "solver.extract_thresholds": ("aoi_energy.solver", None, None),
    "structure.certify_structure": ("aoi_energy.structure", None, None),
    "evaluation.evaluate_exact": ("aoi_energy.evaluation", _exact_states, None),
    "evaluation.stationary_distribution": ("aoi_energy.evaluation", None, None),
    "evaluation.simulate": ("aoi_energy.evaluation", _mc_slots, None),
    "evaluation.enumerate_optimal": ("aoi_energy.evaluation", _enumerated, None),
}


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.raised: list[bool] = []
        self.fields: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, arg_hook, result_hook):
        names, starts, ends = self.names, self.starts, self.ends
        parents, raised, fields, stack = self.parents, self.raised, self.fields, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            raised.append(False)
            ends.append(0.0)
            if arg_hook is not None:
                fields[idx] = arg_hook(*args, **kwargs)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = True
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if result_hook is not None:
                fields.setdefault(idx, {}).update(result_hook(result))
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, arg_hook, result_hook) in TRACED.items():
            attr = name.split(".", 1)[1]
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original, arg_hook, result_hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_csv(self, path: Path, origin: float) -> None:
        """Spans as ``name,start_s,end_s,parent,raised`` rows, times from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "raised"])
            for i, name in enumerate(self.names):
                writer.writerow([i, name, f"{self.starts[i] - origin:.9f}",
                                 f"{self.ends[i] - origin:.9f}", self.parents[i],
                                 int(self.raised[i])])


def _noop(*args, **kwargs):
    return None


def span_cost_s(calls: int = 20000, repeats: int = 7) -> float:
    """Time the recorder adds to one call: a wrapped no-op minus the bare no-op.

    The median over ``repeats`` batches of ``calls`` calls each. Argument and
    result hooks are not included; they read a field or two.
    """
    wrapped = Tracer()._wrap("cli.main", _noop, None, None)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            wrapped()
        middle = clock()
        for _ in range(calls):
            _noop()
        costs.append(((middle - start) - (clock() - middle)) / calls)
    return statistics.median(costs)


def layer_metrics(tracer: Tracer, traced_wall: float, span_cost: float,
                  reference_gains: dict[str, float]) -> dict[str, float]:
    """Per-layer busy time, counts and retries from the recorded spans.

    A span's self time is its duration minus the durations of its children;
    spans of one thread nest, so children never overlap. A layer is busy
    while any of its spans runs that is not inside another span of the same
    layer. The tracing overhead is ``span_cost`` (see ``span_cost_s``) times
    the number of spans.
    """
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parents[i] >= 0:
            child[tracer.parents[i]] += dur[i]

    def layer(i: int) -> str:
        return tracer.names[i].split(".", 1)[0]

    by_name: dict[str, list[int]] = {name: [] for name in TRACED}
    busy = {"cli": 0.0, "solver": 0.0, "structure": 0.0, "evaluation": 0.0}
    for i in range(n):
        by_name[tracer.names[i]].append(i)
        parent = tracer.parents[i]
        if parent < 0 or layer(parent) != layer(i):
            busy[layer(i)] += dur[i]

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name[name])

    def field_sum(name: str, key: str) -> int:
        return sum(tracer.fields[i][key] for i in by_name[name])

    exact = by_name["evaluation.evaluate_exact"]
    exact_raised = sum(tracer.raised[i] for i in exact)
    exact_s = total("evaluation.evaluate_exact")
    enumerate_s = total("evaluation.enumerate_optimal")
    simulate_s = total("evaluation.simulate")
    mc_slots = field_sum("evaluation.simulate", "slots")
    sweeps = by_name["solver.bellman_qvalues"]
    gain_errors = [
        abs(tracer.fields[i]["gain"] - reference_gains[tracer.fields[i]["key"]])
        for i in by_name["solver.solve"]
        if not tracer.raised[i] and tracer.fields[i]["key"] in reference_gains
    ]
    metrics = {
        "evaluation.exact_calls": len(exact),
        "evaluation.exact_raised": exact_raised,
        "evaluation.exact_useful_ratio": (len(exact) - exact_raised) / len(exact) if exact else 0.0,
        "evaluation.exact_s": exact_s,
        "evaluation.exact_self_s": sum(dur[i] - child[i] for i in exact),
        "evaluation.stationary_s": total("evaluation.stationary_distribution"),
        "evaluation.exact_states": field_sum("evaluation.evaluate_exact", "states"),
        "evaluation.enumerate_s": enumerate_s,
        "evaluation.enumerate_policies_per_s": (
            field_sum("evaluation.enumerate_optimal", "policies") / enumerate_s
            if enumerate_s else 0.0
        ),
        "evaluation.simulate_s": simulate_s,
        "evaluation.mc_slots": mc_slots,
        "evaluation.mc_slots_per_s": mc_slots / simulate_s if simulate_s else 0.0,
        "evaluation.busy_s": busy["evaluation"],
        "solver.solve_calls": len(by_name["solver.solve"]),
        "solver.solve_s": total("solver.solve"),
        "solver.sweeps": len(sweeps),
        "solver.sweep_us": 1e6 * statistics.median([dur[i] for i in sweeps]) if sweeps else 0.0,
        "solver.truncation_check_s": total("solver.check_truncation_adequacy"),
        "solver.extract_s": total("solver.greedy_policy") + total("solver.extract_thresholds"),
        "solver.gain_err_max": max(gain_errors, default=0.0),
        "solver.busy_s": busy["solver"],
        "structure.certify_calls": len(by_name["structure.certify_structure"]),
        "structure.certify_s": total("structure.certify_structure"),
        "cli.self_s": sum(dur[i] - child[i] for i in by_name["cli.main"]),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": span_cost * n,
        "trace.spans": n,
    }
    modules = module_loc()
    metrics["src.loc"] = sum(modules.values())
    for module, lines in modules.items():
        metrics[loc_metric_name(module)] = lines
    return metrics


# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "evaluation.exact_calls",
    "evaluation.exact_raised",
    "evaluation.exact_states",
    "evaluation.mc_slots",
    "solver.solve_calls",
    "solver.sweeps",
    "structure.certify_calls",
    "trace.spans",
)
