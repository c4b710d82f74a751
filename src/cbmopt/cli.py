"""Command line surface: config ingestion, dispatch, and report emission.

The CLI is a pure shell over the library. Every number in a report is the
corresponding library result, serialized at 12 significant digits; curve
files carry full-precision values. Reports are deterministic given the
config and seed, up to the wall-clock duration field.

Exit codes: 0 success, 2 config or validation error, 3 computation error
(truncation, tail, or horizon caps, failed quadrature, failed starts),
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from functools import cache
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .errors import CbmError, ConfigError, DomainError
from .failure_model import SystemModel, TruncationConfig
from .maintenance_policy import CostParams, Policy, SeriesTailConfig, cost_rate
from .optimizer import OptimizerConfig, optimize_fixed_tau, optimize_policy
from .simulator import SimulationConfig, empirical_first_passage_cdf, estimate_cost_rate
from .system_reliability import series_survival_over_times

# unused here; perfbench/tracing.py wraps these module attributes by name
from .simulator import estimate_from_outcomes, simulate_many  # noqa: F401

__all__ = [
    "RunConfig",
    "parse_config",
    "cmd_reliability",
    "cmd_evaluate",
    "cmd_optimize",
    "cmd_simulate",
    "main",
]

# JSON keys that differ from the field names they set
_JSON_KEYS = {"lam": "lambda"}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration with all defaults resolved.

    policy and simulation are None when their sections are absent.
    """

    system: SystemModel
    costs: CostParams
    policy: Policy | None
    optimizer: OptimizerConfig
    simulation: SimulationConfig | None
    truncation: TruncationConfig
    tail: SeriesTailConfig


def _check_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _value(hint, value, where: str):
    """Read one JSON value as the type hint says, naming a fault by where.

    float takes a number and int an integer, neither a bool; X | None also
    takes null; tuple[X, ...] takes a non-empty list and tuple[X, X] a list
    of two. A dataclass in a list is built at its index, which is also its
    name when it has no other.
    """
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where} is out of float range") from None
    args = get_args(hint)
    if type(None) in args:
        return None if value is None else _value(args[0], value, where)
    if args[-1] is Ellipsis:
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{where} must be a non-empty list")
    elif not (isinstance(value, list) and len(value) == len(args)):
        raise ConfigError(f"{where} must be a list of {len(args)} values")
    if is_dataclass(args[0]):
        return tuple(
            _build(args[0], v, f"{where}[{i}]", name=str(i)) for i, v in enumerate(value)
        )
    return tuple(_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))


@cache
def _schema(cls) -> tuple:
    """(JSON key, field, resolved type hint) for each field of the dataclass
    cls; resolving the hints costs more than reading a section, so it is
    done once per class."""
    hints = get_type_hints(cls)
    return tuple((_JSON_KEYS.get(f.name, f.name), f, hints[f.name]) for f in fields(cls))


def _arguments(cls, obj: dict, path: str, defaults: dict) -> dict:
    """Constructor arguments of the dataclass cls from the JSON object obj.

    A field with a dataclass default, or one in defaults, is optional; any
    other is required. Keys are field names, apart from _JSON_KEYS.
    """
    schema = _schema(cls)
    required = {
        key for key, f, _ in schema
        if f.default is MISSING and f.default_factory is MISSING and f.name not in defaults
    }
    _check_keys(obj, path, required, {key for key, _, _ in schema})
    kwargs = dict(defaults)
    for key, f, hint in schema:
        if key in obj:
            kwargs[f.name] = _value(hint, obj[key], f"{path}.{key}")
    return kwargs


def _build(cls, obj: dict, path: str, **defaults):
    """The dataclass cls built from the JSON object obj at path."""
    try:
        return cls(**_arguments(cls, obj, path, defaults))
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_policy(obj: dict, system: SystemModel) -> Policy:
    """The policy section, its thresholds checked against the system's."""
    kwargs = _arguments(Policy, obj, "policy", {})
    h2 = kwargs["h2"]
    if len(h2) != system.n:
        raise ConfigError(f"policy.h2 has {len(h2)} entries for {system.n} components")
    for i, (v, c) in enumerate(zip(h2, system.components)):
        if not 0.0 <= v <= c.h1:
            raise ConfigError(
                f"policy.h2[{i}] must lie in [0, system.components[{i}].h1], got {v}"
            )
    try:
        return Policy(**kwargs)
    except DomainError as exc:  # h2 is sound, so tau is at fault
        raise ConfigError(f"policy.tau: {exc}") from exc


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _check_keys(
        raw, "config", {"system", "costs"},
        {"policy", "optimizer", "simulation", "truncation", "tail"},
    )
    system = _build(SystemModel, raw["system"], "system")
    return RunConfig(
        system=system,
        costs=_build(CostParams, raw["costs"], "costs"),
        policy=_build_policy(raw["policy"], system) if "policy" in raw else None,
        optimizer=_build(OptimizerConfig, raw.get("optimizer", {}), "optimizer"),
        simulation=(
            _build(SimulationConfig, raw["simulation"], "simulation")
            if "simulation" in raw else None
        ),
        truncation=_build(TruncationConfig, raw.get("truncation", {}), "truncation"),
        tail=_build(SeriesTailConfig, raw.get("tail", {}), "tail"),
    )


def _round12(value):
    """Serialize floats at 12 significant digits, keeping them JSON-safe."""
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(f"{v:.12g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _echo_config(config: RunConfig) -> dict:
    echo = asdict(config)
    system = echo["system"]
    # the report puts lambda first, the reverse of SystemModel's field order
    echo["system"] = {"lambda": system["lam"], "components": system["components"]}
    return echo


def _report(command: str, config: RunConfig, outputs: dict, warnings: list[str], started: float) -> dict:
    return {
        "command": command,
        "config": _echo_config(config),
        "outputs": outputs,
        "warnings": warnings,
        "version": __version__,
        "duration_seconds": time.time() - started,
    }


def _breakdown_dict(breakdown) -> dict:
    return {
        "e_ni": breakdown.e_ni,
        "e_rho": breakdown.e_rho,
        "e_k": breakdown.e_k,
        "e_tc": breakdown.e_tc,
        "cr": breakdown.cr,
    }


def _estimate_dict(estimate) -> dict:
    return {
        "mean_cr": estimate.mean_cr,
        "stderr_cr": estimate.stderr_cr,
        "mean_inspections": estimate.mean_breakdown.inspections,
        "mean_downtime": estimate.mean_breakdown.downtime,
        "mean_cycle_length": estimate.mean_breakdown.cycle_length,
        "mean_total_cost": estimate.mean_breakdown.total_cost,
        "preventive_fraction": estimate.preventive_fraction,
    }


def _write_csv(path: str, header: list[str], columns: list[list[float]]):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _curve_path(out_path: str, suffix: str = "") -> str:
    stem, _ = os.path.splitext(out_path)
    return f"{stem}{suffix}.csv"


def cmd_reliability(config: RunConfig, t_max: float, steps: int, out_path: str) -> dict:
    """System survival and first-passage CDFs on an even time grid."""
    started = time.time()
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ConfigError(f"--t-max must be finite and positive, got {t_max}")
    if steps < 2:
        raise ConfigError(f"--steps must be at least 2, got {steps}")
    grid = np.linspace(0.0, t_max, steps)
    h1 = config.system.h1_vector
    rows = [h1] if config.policy is None else [h1, config.policy.h2]
    curves = series_survival_over_times(config.system, grid, rows, config.truncation)
    failure = 1.0 - curves[0]
    header = ["t", "reliability", "failure_cdf"]
    columns = [grid.tolist(), curves[0].tolist(), failure.tolist()]
    outputs = {
        "t": grid.tolist(),
        "reliability": curves[0].tolist(),
        "failure_cdf": failure.tolist(),
    }
    if config.policy is not None:
        detection = 1.0 - curves[1]
        header.append("detection_cdf")
        columns.append(detection.tolist())
        outputs["detection_cdf"] = detection.tolist()
    _write_csv(_curve_path(out_path), header, columns)
    outputs["curve_csv"] = _curve_path(out_path)
    return _report("reliability", config, outputs, [], started)


def cmd_evaluate(config: RunConfig) -> dict:
    """Cost breakdown for the configured policy, with an optional Monte
    Carlo cross-check when a simulation section is present."""
    started = time.time()
    if config.policy is None:
        raise ConfigError("evaluate requires a policy section in the config")
    breakdown = cost_rate(
        config.system, config.policy, config.costs, config.truncation, config.tail
    )
    outputs = {"breakdown": _breakdown_dict(breakdown)}
    warnings = []
    sim = config.simulation
    if sim is not None and sim.replications > 1:
        estimate = estimate_cost_rate(config.system, config.policy, config.costs, sim)
        outputs["simulation"] = _estimate_dict(estimate)
        outputs["cr_gap"] = breakdown.cr - estimate.mean_cr
        outputs["downtime_gap"] = breakdown.e_rho - estimate.mean_breakdown.downtime
        outputs["downtime_gap_stderr"] = estimate.stderr_downtime
        # the simulator reports each soft failure less than one sub-step
        # late, so its mean downtime, and with it its cost rate, can only
        # read low, by at most this much
        sub_step = sim.sub_step if sim.sub_step is not None else config.policy.tau / 1024.0
        late = sub_step * (1.0 - estimate.preventive_fraction)
        warnings += _gap_warning(
            "cost-rate", outputs["cr_gap"], estimate.stderr_cr,
            config.costs.c_rho * late / breakdown.e_k,
        )
        warnings += _gap_warning(
            "downtime", outputs["downtime_gap"], estimate.stderr_downtime, late
        )
    return _report("evaluate", config, outputs, warnings, started)


def _gap_warning(name: str, gap: float, stderr: float, late: float) -> list[str]:
    """Flag an analytic-minus-simulated gap outside [-3 stderr, 3 stderr + late]."""
    low, high = -3.0 * stderr, 3.0 * stderr + late
    if low <= gap <= high:
        return []
    return [
        f"{name} gap (analytic - simulated) {gap:.6g} is outside [{low:.6g}, {high:.6g}] "
        "(3 stderr, plus the late-detection bound on the high side)"
    ]


def cmd_optimize(
    config: RunConfig,
    fixed_tau: float | None = None,
    multistart: int | None = None,
    out_path: str | None = None,
) -> dict:
    """Minimize the cost rate over the policy variables."""
    started = time.time()
    opt = config.optimizer
    if multistart is not None:
        if multistart < 1:
            raise ConfigError(f"--multistart must be at least 1, got {multistart}")
        opt = replace(opt, multistart_count=multistart)
    if fixed_tau is not None:
        if not (math.isfinite(fixed_tau) and fixed_tau > 0.0):
            raise ConfigError(f"--fixed-tau must be finite and positive, got {fixed_tau}")
        result = optimize_fixed_tau(
            config.system, config.costs, fixed_tau, opt, config.truncation, config.tail
        )
    else:
        result = optimize_policy(
            config.system, config.costs, opt, config.truncation, config.tail
        )
    outputs = {
        "best_policy": {
            "tau": result.best_policy.tau,
            "h2": list(result.best_policy.h2),
        },
        "best_breakdown": _breakdown_dict(result.best_breakdown),
        "iterations_used": result.iterations_used,
        "starts_converged": result.starts_converged,
        "evaluations": result.evaluations,
        "failed_evaluations": result.failed_evaluations,
        "trace_length": len(result.trace),
    }
    if out_path:
        trace_path = _curve_path(out_path, "_trace")
        header = ["iteration", "tau"] + [f"h2_{i}" for i in range(config.system.n)] + ["cr"]
        columns = [
            list(range(len(result.trace))),
            [p.tau for p, _ in result.trace],
            *[[p.h2[i] for p, _ in result.trace] for i in range(config.system.n)],
            [v for _, v in result.trace],
        ]
        _write_csv(trace_path, header, columns)
        outputs["trace_csv"] = trace_path
    warnings = [] if fixed_tau is not None else _bound_warning(result.best_policy.tau, opt.tau_bounds)
    if result.stop_reason == "f_tol" and result.iterations_used == 1:
        warnings.append(
            "the best start stopped on its f_tol test in its first iteration: the objective "
            "was already flat across its initial simplex, so the reported optimum may be arbitrary"
        )
    if result.stop_reason == "max_iterations":
        # this also covers a search where no start converged
        warnings.append(
            f"the best start stopped on max_iterations ({opt.max_iterations}) before its x_tol "
            f"or f_tol test held, and {result.starts_converged} of {opt.multistart_count} starts "
            "converged: the reported optimum may not be a minimum"
        )
    return _report("optimize", config, outputs, warnings, started)


def _bound_warning(tau: float, bounds: tuple[float, float]) -> list[str]:
    """Flag a best tau within 1% of log(hi/lo) of either end of tau_bounds,
    where the true optimum may lie outside the searched range."""
    lo, hi = bounds
    margin = 0.01 * math.log(hi / lo)
    for name, bound, gap in [("lower", lo, math.log(tau / lo)), ("upper", hi, math.log(hi / tau))]:
        if gap <= margin:
            return [
                f"best tau {tau:.6g} lies within 1% (log scale) of the {name} "
                f"tau bound {bound:.6g}; the optimum may lie outside tau_bounds"
            ]
    return []


def cmd_simulate(
    config: RunConfig,
    reps: int | None = None,
    fpt_t_max: float | None = None,
    fpt_steps: int = 101,
    out_path: str | None = None,
) -> dict:
    """Monte Carlo estimate of the configured policy's cost rate."""
    started = time.time()
    if config.policy is None:
        raise ConfigError("simulate requires a policy section in the config")
    if fpt_t_max is not None and not (math.isfinite(fpt_t_max) and fpt_t_max > 0.0):
        raise ConfigError(f"--fpt-t-max must be finite and positive, got {fpt_t_max}")
    if fpt_steps < 2:
        raise ConfigError(f"--fpt-steps must be at least 2, got {fpt_steps}")
    sim = config.simulation or SimulationConfig()
    if reps is not None:
        if reps < 1:
            raise ConfigError(f"--reps must be at least 1, got {reps}")
        sim = replace(sim, replications=reps)
    estimate = estimate_cost_rate(config.system, config.policy, config.costs, sim)
    warnings = []
    if sim.replications == 1:
        warnings.append("single replication: stderr is undefined")
    outputs = {"simulation": _estimate_dict(estimate), "replications": sim.replications}
    if fpt_t_max is not None:
        grid = np.linspace(0.0, fpt_t_max, fpt_steps)
        curve = empirical_first_passage_cdf(
            config.system, config.system.h1_vector, sim, grid
        )
        outputs["first_passage"] = {
            "t": [t for t, _ in curve],
            "empirical_cdf": [v for _, v in curve],
        }
        if out_path:
            fpt_path = _curve_path(out_path, "_fpt")
            _write_csv(
                fpt_path,
                ["t", "empirical_cdf"],
                [[t for t, _ in curve], [v for _, v in curve]],
            )
            outputs["first_passage_csv"] = fpt_path
    return _report("simulate", config, outputs, warnings, started)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args leaves
    it unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="cbmopt",
        description="Condition-based maintenance analysis for degrading series systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", required=out_required, help="path for the JSON report")
        p.add_argument("--seed", type=int, default=None, help="override configured seeds")

    rel = sub.add_parser("reliability", help="survival and first-passage curves")
    common(rel, out_required=True)
    rel.add_argument("--t-max", type=float, required=True)
    rel.add_argument("--steps", type=int, default=101)

    ev = sub.add_parser("evaluate", help="cost rate of the configured policy")
    common(ev)

    opt = sub.add_parser("optimize", help="optimize the inspection policy")
    common(opt)
    opt.add_argument("--fixed-tau", type=float, default=None)
    opt.add_argument("--multistart", type=int, default=None)

    sim = sub.add_parser("simulate", help="Monte Carlo policy estimate")
    common(sim)
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--fpt-t-max", type=float, default=None)
    sim.add_argument("--fpt-steps", type=int, default=101)
    return parser


def _apply_seed_override(config: RunConfig, seed: int | None) -> RunConfig:
    if seed is None:
        return config
    return replace(
        config,
        optimizer=replace(config.optimizer, seed=seed),
        simulation=replace(config.simulation, seed=seed) if config.simulation else None,
    )


def _emit(report: dict, out_path: str | None):
    text = json.dumps(_round12(report), indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        # resolve simulate's default section first, so --seed reaches it
        if args.command == "simulate" and config.simulation is None:
            config = replace(config, simulation=SimulationConfig())
        config = _apply_seed_override(config, args.seed)
        if args.command == "reliability":
            report = cmd_reliability(config, args.t_max, args.steps, args.out)
        elif args.command == "evaluate":
            report = cmd_evaluate(config)
        elif args.command == "optimize":
            report = cmd_optimize(config, args.fixed_tau, args.multistart, args.out)
        else:
            report = cmd_simulate(
                config, args.reps, args.fpt_t_max, args.fpt_steps, args.out
            )
        _emit(report, args.out)
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CbmError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
