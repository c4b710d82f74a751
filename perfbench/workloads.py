"""The three workloads: inputs, one round of timed operations, and checks.

A workload is built once from the seed (set-up), then runs identical
rounds of operations until the measuring time is spent. Every operation
belongs to one phase: ``optimize`` (time to an optimized policy), ``cost_rate`` (the
explicit sweep, in evaluations), ``reliability`` (survival/CDF time
points), ``cycles`` (simulated renewal cycles) and ``fpt`` (first-passage
paths). The benchmark calls every library function through its module
attribute so that the traced run's wrappers see the call.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
from scipy import special

from cbmopt import (
    cli,
    failure_model,
    maintenance_policy,
    optimizer,
    simulator,
    system_reliability,
)
from cbmopt.errors import CbmError

import checks

# The machine this benchmark was tuned on, a shared 2-core VM, runs the same
# code up to twice as slow for stretches of seconds to minutes. Each
# operation is therefore timed between two runs of a fixed calibration
# kernel that does not touch cbmopt, and its time is scaled to the speed at
# which one kernel pass takes CALIBRATION_S: times are reported in seconds
# at that reference speed. Both sides of a comparison use the same kernel,
# so a change to cbmopt moves the scaled times exactly as the raw ones.
CALIBRATION_S = 0.001
_KERNEL_X = np.linspace(0.1, 5.0, 64)


def _kernel_pass() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(4_000):
        total += i * 0.5
    for _ in range(40):
        total += float((special.gammainc(_KERNEL_X, 1.5) * np.exp(-_KERNEL_X)).sum())
    return time.perf_counter() - start


def calibration_kernel() -> float:
    """Median time of five passes over a fixed mix of interpreted arithmetic
    and small numpy/scipy calls, the mix cbmopt spends its time in; the
    median keeps one interrupted pass from skewing the scale."""
    return sorted(_kernel_pass() for _ in range(5))[2]


def speed_factor() -> float:
    """Reference speed over current speed."""
    return CALIBRATION_S / calibration_kernel()


class Round:
    """Timings of one round: (phase, work units, raw seconds, scaled
    seconds) per operation, in the order the operations ran, plus
    operation counts."""

    def __init__(self):
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self._kernel = calibration_kernel()

    def _timed(self, phase, units, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except CbmError:
            result = None
        raw = time.perf_counter() - start
        kernel = calibration_kernel()
        scaled = raw * CALIBRATION_S / (0.5 * (self._kernel + kernel))
        self._kernel = kernel
        self.ops.append((phase, units, raw, scaled))
        return result

    def op(self, phase, units, fn, *args):
        """Run one library call; a CbmError counts as a failed operation."""
        result = self._timed(phase, units, fn, *args)
        self.failed += result is None
        return result

    def cli_op(self, phase, units, argv):
        """Run one CLI command in-process; a nonzero exit code counts as failed."""
        ok = self._timed(phase, units, cli.main, argv) == 0
        self.failed += not ok
        return ok


# -- random systems -----------------------------------------------------

# the ranges of the random test systems in tests/conftest.py
COMPONENT_RANGES = {
    "h1": (5.0, 20.0),
    "d": (1.5, 3.0),
    "alpha": (0.3, 1.2),
    "beta": (0.3, 1.0),
    "y_alpha": (0.3, 1.5),
    "y_beta": (0.5, 2.0),
    "w_mu": (0.8, 1.6),
    "w_sigma": (0.1, 0.4),
}
# Each parameter range is cut into STRATA equal strata. A fixed generator
# gives every component its own stratum of every parameter; the workload
# seed only places the value inside that stratum. So each seed gives new
# systems with the same spread of difficulty. The cost of a cost_rate call
# jumps with the number of shock terms and of ladder epochs, so free draws
# from the whole ranges would let the seed, not the code, set the speed.
STRATA = 32
_LAYOUT_SEED = 20190122


def stratified_systems(seed, sizes, lam_range):
    """Series systems with the given component counts, one stratum per
    component and parameter (Latin-hypercube style)."""
    layout = np.random.default_rng(_LAYOUT_SEED)
    rng = np.random.default_rng(seed)
    n_comp = sum(sizes)

    def draw(lo, hi, count):
        strata = layout.permutation(STRATA)[:count]
        return lo + (hi - lo) * (strata + rng.uniform(size=count)) / STRATA

    draws = {key: draw(lo, hi, n_comp) for key, (lo, hi) in COMPONENT_RANGES.items()}
    lams = draw(*lam_range, len(sizes))
    systems = []
    k = 0
    for j, n in enumerate(sizes):
        comps = []
        for i in range(n):
            fields = {key: float(draws[key][k]) for key in COMPONENT_RANGES}
            comps.append(failure_model.ComponentParams(name=f"sys{j}-c{i}", **fields))
            k += 1
        systems.append(failure_model.SystemModel(components=tuple(comps), lam=float(lams[j])))
    return systems


def timescale(model) -> float:
    """Mean time for the fastest component's wear alone to reach h1."""
    return min(c.h1 * c.beta / c.alpha for c in model.components)


def single_interval_tau(model, ts, tail=1e-11):
    """The tau at which the wear-only survival bound falls to `tail`: every
    cycle then ends at the first inspection, and all failure mass lies in
    the first interval. Found by bisection, so it moves smoothly with the
    parameters and the seed cannot change the shock-term count by a step."""

    def bound(tau):
        return checks.wear_survival(model.components, model.h1_vector, [tau])[0]

    lo, hi = ts, 2.0 * ts
    while bound(hi) > tail:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound(mid) > tail else (lo, mid)
    return hi


def _inspection_checks(outcomes, e_ni, label):
    counts = np.array([o.inspections for o in outcomes], dtype=float)
    return checks.inspections_agree(float(counts.mean()), float(counts.var(ddof=1)),
                                    counts.size, e_ni, label)


def _fpt_checks(model, thresholds, grid, curve, paths, sub_step, label):
    """Empirical first-passage CDF against the analytic one, in its DKW band."""
    t = np.array([p[0] for p in curve])
    empirical = np.array([p[1] for p in curve])
    survival = system_reliability.series_survival_over_times
    cdf_at = 1.0 - survival(model, t, thresholds)
    before = np.maximum(t - sub_step, 0.0)
    cdf_before = np.where(t - sub_step > 0.0, 1.0 - survival(model, before, thresholds), 0.0)
    return checks.first_passage_band(empirical, cdf_at, cdf_before, paths, label)


def _convolution_checks(model, points, label):
    """threshold_cdf_block against quad at (component, x, t, m) points."""
    errors = []
    for i, x, t, max_m in points:
        c = model.components[i]
        block = failure_model.threshold_cdf_block(c, x, np.array([t]), max_m)
        for m in range(1, max_m + 1):
            errors += checks.convolution_oracle(
                c, x, t, m, float(block[m, 0]), f"{label} component {i}"
            )
    return errors


def _survival_checks(model, grid, survival_h1, survival_h2, h2, label):
    comps = model.components
    errors = checks.survival_bracket(comps, model.lam, model.h1_vector, grid, survival_h1,
                                     f"{label} reliability")
    if survival_h2 is not None:
        errors += checks.survival_bracket(comps, model.lam, h2, grid, survival_h2,
                                          f"{label} detection")
        errors += checks.detection_dominates(1.0 - survival_h1, 1.0 - survival_h2, label)
    return errors


# -- paper-tables -------------------------------------------------------

class PaperTables:
    """The literal four-component benchmark, driven through cbmopt.cli.main."""

    TABLES = ("table2", "table3")
    FIXED_TAUS = (24.0, 120.0)
    EVALUATE = ("table2_tau24", "table2_tau120")
    PUBLISHED = maintenance_policy.Policy(
        tau=44.7129, h2=(0.0003055, 0.0003055, 0.0002728, 0.0002728)
    )
    # joint search budget as a share of the shipped one (8 starts, 300 iterations)
    START_DIVISOR = 8
    ITERATION_DIVISOR = 60
    RELIABILITY_T_MAX = 0.04  # hours; failure is near-immediate at these units
    RELIABILITY_STEPS = 401
    SWEEP_TAUS = (0.004, 0.008, 0.016, 0.032)
    FPT_PATHS = 60_000
    FPT_STRIDE = 10  # every tenth reliability grid point

    def __init__(self, root, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        configs = os.path.join(root, "configs")
        self.paths = {
            name: os.path.join(configs, f"{name}.json")
            for name in self.TABLES + self.EVALUATE
        }
        self.config = {name: cli.parse_config(path) for name, path in self.paths.items()}
        self.capped = {}
        for name in self.TABLES:
            with open(self.paths[name], encoding="utf-8") as handle:
                raw = json.load(handle)
            opt = raw.setdefault("optimizer", {})
            defaults = optimizer.OptimizerConfig()
            opt["multistart_count"] = max(
                1, opt.get("multistart_count", defaults.multistart_count) // self.START_DIVISOR
            )
            opt["max_iterations"] = max(
                1, opt.get("max_iterations", defaults.max_iterations) // self.ITERATION_DIVISOR
            )
            path = os.path.join(tmp, f"{name}_capped.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            self.capped[name] = path
        rng = np.random.default_rng(seed)
        base = self.config["table2"]
        # seeded jitter of 5%: the ladder length, and with it the cost of a
        # call, follows 1/tau, so wider jitter would make the seed set the speed
        self.sweep = [
            maintenance_policy.Policy(
                tau=tau * rng.uniform(0.95, 1.05),
                h2=tuple(rng.uniform(0.45, 0.55) * h for h in base.system.h1_vector),
            )
            for tau in self.SWEEP_TAUS
        ]
        self.fpt_grid = np.linspace(0.0, self.RELIABILITY_T_MAX, self.RELIABILITY_STEPS)[::self.FPT_STRIDE]
        self.fpt_config = simulator.SimulationConfig(replications=self.FPT_PATHS, seed=seed)

    def _out(self, name):
        return os.path.join(self.tmp, f"{name}.json")

    def _read(self, name):
        with open(self._out(name), encoding="utf-8") as handle:
            report = json.load(handle)
        return report["outputs"]

    def run_round(self, r: Round) -> dict:
        outputs = {}
        for name in self.TABLES:
            key = f"{name}_joint"
            if r.cli_op("optimize", 1, ["optimize", "--config", self.capped[name],
                                        "--out", self._out(key)]):
                outputs[key] = self._read(key)
            for tau in self.FIXED_TAUS:
                key = f"{name}_fixed{tau:g}"
                if r.cli_op("optimize", 1, ["optimize", "--config", self.capped[name],
                                            "--fixed-tau", str(tau), "--out", self._out(key)]):
                    outputs[key] = self._read(key)
        for name in self.EVALUATE:
            cycles = self.config[name].simulation.replications
            if r.cli_op("cycles", cycles, ["evaluate", "--config", self.paths[name],
                                           "--out", self._out(name), "--seed", str(self.seed)]):
                outputs[name] = self._read(name)
        for name in ("table2_tau24", "table3"):
            key = f"{name}_reliability"
            curves = 2 if self.config[name].policy is not None else 1
            if r.cli_op("reliability", curves * self.RELIABILITY_STEPS,
                        ["reliability", "--config", self.paths[name], "--out", self._out(key),
                         "--t-max", repr(self.RELIABILITY_T_MAX),
                         "--steps", str(self.RELIABILITY_STEPS)]):
                outputs[key] = self._read(key)
        base = self.config["table2"]
        outputs["sweep"] = [
            r.op("cost_rate", 1, maintenance_policy.cost_rate, base.system, policy, base.costs)
            for policy in self.sweep
        ]
        outputs["fpt"] = r.op("fpt", self.FPT_PATHS, simulator.empirical_first_passage_cdf,
                              base.system, base.system.h1_vector, self.fpt_config, self.fpt_grid)
        return outputs

    def check(self, out) -> list[str]:
        errors = []
        costs = self.config["table2"].costs
        for name in self.TABLES:
            model = self.config[name].system
            joint = out.get(f"{name}_joint")
            if joint:
                published = maintenance_policy.cost_rate(model, self.PUBLISHED, costs).cr
                errors += checks.no_worse(joint["best_breakdown"]["cr"], published, name,
                                          "the published tau = 44.7129 policy")
            for tau in self.FIXED_TAUS:
                fixed = out.get(f"{name}_fixed{tau:g}")
                if fixed:
                    if fixed["best_policy"]["tau"] != tau:
                        errors.append(f"{name}: fixed-tau run moved tau to {fixed['best_policy']['tau']}")
                    errors += checks.downtime_bracket(
                        model.components, model.lam, tau, fixed["best_breakdown"]["e_rho"],
                        f"{name} fixed tau {tau:g}",
                    )
        for name in self.EVALUATE:
            report = out.get(name)
            if not report:
                continue
            config = self.config[name]
            b, sim = report["breakdown"], report["simulation"]
            tau = config.policy.tau
            # the report gives no sample variance; the check's floor stands in
            # for it (a mean of exactly 1 has none: every count is >= 1)
            errors += checks.inspections_agree(sim["mean_inspections"], 0.0,
                                               config.simulation.replications, b["e_ni"], name)
            sub_step = config.simulation.sub_step or tau / 1024.0
            errors += checks.cost_rate_agrees(sim["mean_cr"], sim["stderr_cr"], b["cr"],
                                              config.costs.c_rho, sub_step, b["e_k"], name)
            errors += checks.downtime_bracket(config.system.components, config.system.lam,
                                              tau, b["e_rho"], name)
        for name in ("table2_tau24", "table3"):
            rel = out.get(f"{name}_reliability")
            if not rel:
                continue
            config = self.config[name]
            detection = rel.get("detection_cdf")
            errors += _survival_checks(
                config.system, np.array(rel["t"]), np.array(rel["reliability"]),
                None if detection is None else 1.0 - np.array(detection),
                config.policy.h2 if config.policy else None, name,
            )
        for policy, breakdown in zip(self.sweep, out["sweep"]):
            if breakdown is not None and not (math.isfinite(breakdown.cr) and breakdown.cr > 0.0):
                errors.append(f"sweep: cost rate {breakdown.cr!r} at tau={policy.tau!r}")
        model = self.config["table2"].system
        errors += _convolution_checks(
            model, [(0, model.components[0].h1, 0.002, 2), (2, 0.0004, 0.001, 2)], "table2"
        )
        if out["fpt"] is not None:
            sub_step = self.RELIABILITY_T_MAX / 4096.0
            errors += _fpt_checks(model, model.h1_vector, self.fpt_grid, out["fpt"],
                                  self.FPT_PATHS, sub_step, "table2 first passage")
        return errors


# -- random-systems -----------------------------------------------------

class RandomSystems:
    """Random systems with timescales of hours and up to about 20 shock terms."""

    SIZES = (2, 3, 4)
    LAMBDA = (0.001, 0.05)
    COSTS = maintenance_policy.CostParams(c_i=50.0, c_rho=400.0, c_r=60.0)
    # tau bounds as multiples of the system's timescale; with the default
    # bounds one cost_rate call near the lower end takes seconds (README)
    TAU_BOUNDS = (0.2, 0.6)
    SWEEP_CELLS = 3  # sweep taus at the cell centres of log tau_bounds
    SWEEP_FRACTIONS = (0.25, 0.5)  # h2 as a share of h1
    STARTS = 2
    ITERATIONS = 8
    GRID_POINTS = 257
    GRID_SPAN = 3.0  # multiples of the timescale
    CYCLES = 6000
    FPT_PATHS = 20_000

    def __init__(self, root, seed, tmp):
        self.systems = stratified_systems(seed, self.SIZES, self.LAMBDA)
        self.plans = []
        lo, hi = self.TAU_BOUNDS
        for j, model in enumerate(self.systems):
            ts = timescale(model)
            self.plans.append({
                "ts": ts,
                "sweep": [
                    maintenance_policy.Policy(tau=tau, h2=tuple(g * h for h in model.h1_vector))
                    for tau in np.geomspace(lo * ts, hi * ts, 2 * self.SWEEP_CELLS + 1)[1::2]
                    for g in self.SWEEP_FRACTIONS
                ],
                "optimizer": optimizer.OptimizerConfig(
                    multistart_count=self.STARTS, max_iterations=self.ITERATIONS,
                    tau_bounds=(lo * ts, hi * ts), seed=j,
                ),
                "grid": np.linspace(0.0, self.GRID_SPAN * ts, self.GRID_POINTS),
                "cycles": simulator.SimulationConfig(replications=self.CYCLES, seed=seed + j),
                "fpt": simulator.SimulationConfig(replications=self.FPT_PATHS, seed=seed + j),
            })

    def run_round(self, r: Round) -> dict:
        outputs = []
        survival = system_reliability.series_survival_over_times
        for model, plan in zip(self.systems, self.plans):
            out = {"sweep": [r.op("cost_rate", 1, maintenance_policy.cost_rate, model, policy, self.COSTS)
                             for policy in plan["sweep"]]}
            out["optimum"] = r.op("optimize", 1, optimizer.optimize_policy, model, self.COSTS,
                                  plan["optimizer"])
            # curves and simulations use the middle sweep policy, whose work
            # depends on the system alone, not on where the search ended
            policy = plan["sweep"][len(plan["sweep"]) // 2]
            grid = plan["grid"]
            out["survival_h1"] = r.op("reliability", grid.size, survival, model, grid, model.h1_vector)
            out["survival_h2"] = r.op("reliability", grid.size, survival, model, grid, policy.h2)
            out["outcomes"] = r.op("cycles", self.CYCLES, simulator.simulate_many,
                                   model, policy, plan["cycles"])
            out["fpt"] = r.op("fpt", self.FPT_PATHS, simulator.empirical_first_passage_cdf,
                              model, model.h1_vector, plan["fpt"], grid)
            outputs.append(out)
        return {"systems": outputs}

    def check(self, out) -> list[str]:
        errors = []
        for j, (model, plan, o) in enumerate(zip(self.systems, self.plans, out["systems"])):
            label = f"system {j}"
            sweep = [b.cr for b in o["sweep"] if b is not None]
            result = o["optimum"]
            grid = plan["grid"]
            if result is not None:
                policy = result.best_policy
                if sweep:
                    errors += checks.no_worse(result.best_breakdown.cr, min(sweep), label,
                                              "the best sweep point")
                twin = failure_model.SystemModel(components=model.components, lam=0.0)
                errors += checks.lambda_zero_twin(
                    model.components, policy.tau, policy.h2,
                    maintenance_policy.expected_inspections(twin, policy), label,
                )
            middle = len(plan["sweep"]) // 2
            policy, breakdown = plan["sweep"][middle], o["sweep"][middle]
            if o["outcomes"] is not None and breakdown is not None:
                errors += _inspection_checks(o["outcomes"], breakdown.e_ni, label)
                errors += checks.cycle_properties(o["outcomes"], policy.tau, label)
            if o["survival_h1"] is not None:
                errors += _survival_checks(model, grid, o["survival_h1"], o["survival_h2"],
                                           policy.h2, label)
            errors += _convolution_checks(
                model, [(i, c.h1, plan["ts"], 3) for i, c in enumerate(model.components[:2])], label
            )
            if o["fpt"] is not None:
                errors += _fpt_checks(model, model.h1_vector, grid, o["fpt"], self.FPT_PATHS,
                                      grid[-1] / 4096.0, f"{label} first passage")
        return errors


# -- monte-carlo --------------------------------------------------------

class MonteCarlo:
    """High-lambda systems where the simulators do almost all of the work."""

    SIZES = (2, 3, 4)
    LAMBDA = (0.05, 0.15)
    COSTS = maintenance_policy.CostParams(c_i=1.0, c_rho=400.0, c_r=60.0)
    MULTI_TAU = 1.0 / 6.0  # tau as a share of the timescale: several inspections per cycle
    FRACTION = 0.6  # h2 as a share of h1
    CYCLES = 8000  # per regime and system
    FPT_PATHS = 20_000
    GRID_POINTS = 65
    GRID_SPAN = 3.0

    def __init__(self, root, seed, tmp):
        self.systems = stratified_systems(seed, self.SIZES, self.LAMBDA)
        self.plans = []
        for j, model in enumerate(self.systems):
            ts = timescale(model)
            h2 = tuple(self.FRACTION * h for h in model.h1_vector)
            self.plans.append({
                "policies": {
                    "multi": maintenance_policy.Policy(tau=self.MULTI_TAU * ts, h2=h2),
                    # the closed form is exact here, so the cost rate is checked too
                    "single": maintenance_policy.Policy(tau=single_interval_tau(model, ts), h2=h2),
                },
                "cycles": simulator.SimulationConfig(replications=self.CYCLES, seed=seed + j),
                "grid": np.linspace(0.0, self.GRID_SPAN * ts, self.GRID_POINTS),
                "fpt": simulator.SimulationConfig(replications=self.FPT_PATHS, seed=seed + j),
            })
        # one small threshold search keeps the optimizer in this workload's mix
        self.search = optimizer.OptimizerConfig(multistart_count=1, max_iterations=1, seed=0)

    def run_round(self, r: Round) -> dict:
        first, plan0 = self.systems[0], self.plans[0]
        outputs = {"search": r.op("optimize", 1, optimizer.optimize_fixed_tau, first, self.COSTS,
                                  plan0["policies"]["single"].tau, self.search)}
        systems = []
        for model, plan in zip(self.systems, self.plans):
            out = {}
            for name, policy in plan["policies"].items():
                out[f"{name}_cr"] = r.op("cost_rate", 1, maintenance_policy.cost_rate,
                                         model, policy, self.COSTS)
                outcomes = r.op("cycles", self.CYCLES, simulator.simulate_many,
                                model, policy, plan["cycles"])
                out[f"{name}_outcomes"] = outcomes
                if outcomes is not None:
                    out[f"{name}_estimate"] = r.op("cycles", 0, simulator.estimate_from_outcomes,
                                                   outcomes, self.COSTS)
            grid = plan["grid"]
            out["survival"] = r.op("reliability", grid.size, system_reliability.series_survival_over_times,
                                   model, grid, model.h1_vector)
            out["fpt"] = r.op("fpt", self.FPT_PATHS, simulator.empirical_first_passage_cdf,
                              model, model.h1_vector, plan["fpt"], grid)
            systems.append(out)
        outputs["systems"] = systems
        return outputs

    def check(self, out) -> list[str]:
        errors = []
        search = out["search"]
        if search is not None:
            model = self.systems[0]
            errors += checks.downtime_bracket(model.components, model.lam, search.best_policy.tau,
                                              search.best_breakdown.e_rho, "system 0 threshold search")
        for j, (model, plan, o) in enumerate(zip(self.systems, self.plans, out["systems"])):
            for name, policy in plan["policies"].items():
                label = f"system {j} {name}-interval"
                breakdown, outcomes = o[f"{name}_cr"], o[f"{name}_outcomes"]
                if breakdown is None or outcomes is None:
                    continue
                errors += _inspection_checks(outcomes, breakdown.e_ni, label)
                errors += checks.cycle_properties(outcomes, policy.tau, label)
                if name == "single":
                    # the closed form is exact only with all failure mass in one interval
                    estimate = o["single_estimate"]
                    errors += checks.cost_rate_agrees(
                        estimate.mean_cr, estimate.stderr_cr, breakdown.cr, self.COSTS.c_rho,
                        policy.tau / 1024.0, breakdown.e_k, label,
                    )
                    errors += checks.downtime_bracket(model.components, model.lam, policy.tau,
                                                      breakdown.e_rho, label)
            grid = plan["grid"]
            if o["survival"] is not None:
                errors += _survival_checks(model, grid, o["survival"], None, None, f"system {j}")
            if o["fpt"] is not None:
                errors += _fpt_checks(model, model.h1_vector, grid, o["fpt"], self.FPT_PATHS,
                                      grid[-1] / 4096.0, f"system {j} first passage")
        return errors


WORKLOADS = {
    "paper-tables": PaperTables,
    "random-systems": RandomSystems,
    "monte-carlo": MonteCarlo,
}
