"""Per-layer tracing installed from outside the library.

Every wrapper replaces one public function in the namespace where its
caller looks it up: because of ``from .x import y`` the survival routine
used by the cost model is ``maintenance_policy.series_survival_over_times``,
not the one in ``system_reliability``. A wrapper records a span (name,
start, end, parent) and a few counters; spans stay in memory until the run
writes them out. Self time is a span's duration minus its children's.

Quadrature integrands are wrapped too. Their calls are recorded as
``integrand`` spans, which count the nodes evaluated, and whose self time
is charged to the layer that supplied the integrand (the caller of the
quadrature), not to ``numerics``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from cbmopt import cli, failure_model, maintenance_policy, optimizer, simulator, system_reliability
from cbmopt.errors import CbmError

# (per-layer metric name, unit): counts and ratios repeat exactly between
# runs of one seed; times ("s") are medians over the traced rounds
LAYER_METRICS = [
    ("numerics.integrate_vector.calls", "count"),
    ("numerics.integrate_vector.self_s", "s"),
    ("numerics.integrate_vector.nodes", "count"),
    ("numerics.integrate.calls", "count"),
    ("numerics.integrate.self_s", "s"),
    ("numerics.integrate.nodes", "count"),
    ("failure_model.block.calls", "count"),
    ("failure_model.block.self_s", "s"),
    ("failure_model.block.cells", "count"),
    ("failure_model.block.max_shock_terms", "count"),
    ("system_reliability.survival.calls", "count"),
    ("system_reliability.survival.self_s", "s"),
    ("system_reliability.survival.time_points", "count"),
    ("system_reliability.survival.calls_per_cost_rate", "ratio"),
    ("maintenance_policy.cost_rate.calls", "count"),
    ("maintenance_policy.cost_rate.self_s", "s"),
    ("maintenance_policy.cost_rate.failed", "count"),
    ("maintenance_policy.inspections.s", "s"),
    ("maintenance_policy.inspections.time_points", "count"),
    ("maintenance_policy.downtime.s", "s"),
    ("maintenance_policy.downtime.time_points", "count"),
    ("optimizer.evaluations", "count"),
    ("optimizer.failed_evaluations", "count"),
    ("optimizer.iterations_used", "count"),
    ("optimizer.starts_converged", "count"),
    ("optimizer.self_s", "s"),
    ("simulator.cycles", "count"),
    ("simulator.cycle.self_s", "s"),
    ("simulator.estimate.self_s", "s"),
    ("simulator.fpt.paths", "count"),
    ("simulator.fpt.self_s", "s"),
    ("cli.parse_config.s", "s"),
    ("cli.optimize.s", "s"),
    ("cli.evaluate.s", "s"),
    ("cli.reliability.s", "s"),
    ("cli.self_s", "s"),
]

OVERHEAD_METRIC = "trace.overhead_s"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _len(times):
    try:
        return len(times)
    except TypeError:
        return 1


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []
        self._restore = []

    # -- spans ---------------------------------------------------------
    def open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {} if attrs is None else attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ------------------------------------------------------
    def _wrap(self, module, attr, name, before=None, after=None, integrand=None):
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            if integrand is not None:
                args, kwargs = tracer._count_integrand(args, kwargs, attrs)
            index = tracer.open(name, attrs)
            try:
                result = original(*args, **kwargs)
            except CbmError:
                attrs["failed"] = 1
                raise
            finally:
                tracer.close(index)
            if after:
                attrs.update(after(result))
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def _count_integrand(self, args, kwargs, attrs):
        attrs["nodes"] = 0
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            index = self.open("integrand")
            try:
                return f(x)
            finally:
                self.close(index)
                attrs["nodes"] += _len(x)

        return (counted, *args[1:]), kwargs

    def install(self):
        mp, sr = maintenance_policy, system_reliability
        self._wrap(failure_model, "adaptive_integrate_vector", "numerics.integrate_vector", integrand=True)
        self._wrap(mp, "adaptive_integrate", "numerics.integrate", integrand=True)

        def block_attrs(args, kwargs):
            max_m = _arg(args, kwargs, 3, "max_m")
            return {"cells": (max_m + 1) * _len(_arg(args, kwargs, 2, "times")),
                    "shock_terms": max_m + 1}

        self._wrap(sr, "threshold_cdf_block", "failure_model.block", before=block_attrs)

        def survival_attrs(args, kwargs):
            return {"time_points": _len(_arg(args, kwargs, 1, "times"))}

        for module in (sr, mp, cli):
            self._wrap(module, "series_survival_over_times", "system_reliability.survival",
                       before=survival_attrs)
        for module in (mp, optimizer, cli):
            self._wrap(module, "cost_rate", "maintenance_policy.cost_rate")
        self._wrap(mp, "expected_inspections", "maintenance_policy.inspections")
        self._wrap(mp, "expected_downtime", "maintenance_policy.downtime")

        def search_attrs(result):
            return {"iterations_used": result.iterations_used,
                    "starts_converged": result.starts_converged}

        for module in (optimizer, cli):
            for attr in ("optimize_policy", "optimize_fixed_tau"):
                self._wrap(module, attr, "optimizer.search", after=search_attrs)
        for module in (simulator, cli):
            self._wrap(module, "simulate_many", "simulator.cycle",
                       after=lambda outcomes: {"cycles": len(outcomes)})
            self._wrap(module, "estimate_from_outcomes", "simulator.estimate")
            self._wrap(module, "empirical_first_passage_cdf", "simulator.fpt",
                       before=lambda a, k: {"paths": _arg(a, k, 2, "config").replications})
        self._wrap(simulator, "estimate_cost_rate", "simulator.estimate")
        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "parse_config", "cli.parse_config")
        for command in ("optimize", "evaluate", "reliability", "simulate"):
            self._wrap(cli, f"cmd_{command}", f"cli.{command}")

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _ancestor(spans, index, names):
    """Name of the nearest strict ancestor whose name is in `names`, or None."""
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one round's spans."""
    duration = [s[2] - s[1] for s in spans]
    self_time = list(duration)
    for s, d in zip(spans, duration):
        if s[3] is not None:
            self_time[s[3]] -= d
    total = defaultdict(float)  # summed durations per span name
    own = defaultdict(float)  # summed self time per layer
    calls = defaultdict(int)
    attr_sum = defaultdict(int)
    for i, s in enumerate(spans):
        name, attrs = s[0], s[4]
        if name == "integrand":
            # the integrand belongs to whoever handed it to the quadrature
            grandparent = spans[s[3]][3]
            name = spans[grandparent][0] if grandparent is not None else "integrand"
        else:
            total[name] += duration[i]
            calls[name] += 1
            for key, value in attrs.items():
                if key != "shock_terms":
                    attr_sum[(name, key)] += value
        own[name] += self_time[i]

    out = {
        "numerics.integrate_vector.calls": calls["numerics.integrate_vector"],
        "numerics.integrate_vector.self_s": own["numerics.integrate_vector"],
        "numerics.integrate_vector.nodes": attr_sum[("numerics.integrate_vector", "nodes")],
        "numerics.integrate.calls": calls["numerics.integrate"],
        "numerics.integrate.self_s": own["numerics.integrate"],
        "numerics.integrate.nodes": attr_sum[("numerics.integrate", "nodes")],
        "failure_model.block.calls": calls["failure_model.block"],
        "failure_model.block.self_s": own["failure_model.block"],
        "failure_model.block.cells": attr_sum[("failure_model.block", "cells")],
        "failure_model.block.max_shock_terms": max(
            (s[4]["shock_terms"] for s in spans if s[0] == "failure_model.block"), default=0
        ),
        "system_reliability.survival.calls": calls["system_reliability.survival"],
        "system_reliability.survival.self_s": own["system_reliability.survival"],
        "system_reliability.survival.time_points": attr_sum[("system_reliability.survival", "time_points")],
        "maintenance_policy.cost_rate.calls": calls["maintenance_policy.cost_rate"],
        "maintenance_policy.cost_rate.self_s": own["maintenance_policy.cost_rate"],
        "maintenance_policy.cost_rate.failed": attr_sum[("maintenance_policy.cost_rate", "failed")],
        "maintenance_policy.inspections.s": total["maintenance_policy.inspections"],
        "maintenance_policy.downtime.s": total["maintenance_policy.downtime"],
        "optimizer.iterations_used": attr_sum[("optimizer.search", "iterations_used")],
        "optimizer.starts_converged": attr_sum[("optimizer.search", "starts_converged")],
        "optimizer.self_s": own["optimizer.search"],
        "simulator.cycles": attr_sum[("simulator.cycle", "cycles")],
        "simulator.cycle.self_s": own["simulator.cycle"],
        "simulator.estimate.self_s": own["simulator.estimate"],
        "simulator.fpt.paths": attr_sum[("simulator.fpt", "paths")],
        "simulator.fpt.self_s": own["simulator.fpt"],
        "cli.parse_config.s": total["cli.parse_config"],
        "cli.optimize.s": total["cli.optimize"],
        "cli.evaluate.s": total["cli.evaluate"],
        "cli.reliability.s": total["cli.reliability"],
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
    }

    ladder = {"maintenance_policy.inspections", "maintenance_policy.downtime"}
    points = defaultdict(int)
    in_cost_rate = 0
    evaluations = failed = 0
    for i, s in enumerate(spans):
        if s[0] == "system_reliability.survival":
            owner = _ancestor(spans, i, ladder)
            if owner:
                points[owner] += s[4]["time_points"]
            if _ancestor(spans, i, {"maintenance_policy.cost_rate"}):
                in_cost_rate += 1
        elif s[0] == "maintenance_policy.cost_rate" and _ancestor(spans, i, {"optimizer.search"}):
            evaluations += 1
            failed += s[4].get("failed", 0)
    cost_rate_calls = out["maintenance_policy.cost_rate.calls"]
    out["maintenance_policy.inspections.time_points"] = points["maintenance_policy.inspections"]
    out["maintenance_policy.downtime.time_points"] = points["maintenance_policy.downtime"]
    out["system_reliability.survival.calls_per_cost_rate"] = (
        in_cost_rate / cost_rate_calls if cost_rate_calls else 0.0
    )
    out["optimizer.evaluations"] = evaluations
    out["optimizer.failed_evaluations"] = failed
    return out


def summarize(rounds: list[dict]) -> dict:
    """Counts from the first traced round, times as medians over rounds."""
    return {
        name: statistics.median(r[name] for r in rounds) if unit == "s" else rounds[0][name]
        for name, unit in LAYER_METRICS
    }


def write_spans(path, rounds_of_spans):
    """Write every recorded span as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for round_index, spans in enumerate(rounds_of_spans):
            for index, (name, start, end, parent, attrs) in enumerate(spans):
                handle.write(json.dumps({
                    "round": round_index, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent, "attrs": attrs,
                }) + "\n")
