"""Joint minimization of the cost rate over the inspection interval and
on-condition thresholds.

The objective comes out of truncated series and quadrature, so analytic
gradients are unavailable and finite differences would be noisy. A
projected Nelder-Mead simplex with seeded Latin-hypercube multistart does
the work instead: every candidate is clipped into the feasible box before
evaluation, accepted objective values never increase within a start, and
the run is deterministic given the seed.

Start points are drawn as a stream of fixed-size Latin-hypercube blocks,
each block seeded by its index. A larger multistart count therefore
extends the start set instead of reshuffling it, so more starts can never
produce a worse best value. The inspection interval is searched on a log
scale; the cost of inspecting explodes as the interval shrinks toward
zero, and a linear scale would waste most starts on the far right of the
range.

The starts run in lockstep: each Nelder-Mead search is a generator that
asks for the points it needs (its initial simplex, one candidate, or a
shrink's vertices), and each round the points that every live start asks
for, less those already evaluated, go to cost_rate as one stacked call.
A stacked call builds all their ladders in shared survival passes and
gives each policy bit for bit what a single call gives, so every start
makes the decisions it would make alone. The failure-time CDF depends on
the model alone, so cost_rate reads it from the model's failure law, which
a search builds at most once; each stacked call then makes only its
ladders' survival passes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AllStartsFailedError, CbmError, DomainError
from .failure_model import SystemModel, TruncationConfig
from .maintenance_policy import (
    CostBreakdown,
    CostParams,
    Policy,
    SeriesTailConfig,
    cost_rate,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "optimize_policy",
    "optimize_fixed_tau",
]

_LHS_BLOCK = 8


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart and termination settings."""

    multistart_count: int = 16
    max_iterations: int = 500
    x_tol: float = 1e-6
    f_tol: float = 1e-8
    tau_bounds: tuple[float, float] = (1e-3, 1e4)
    seed: int = 0

    def __post_init__(self):
        if self.multistart_count < 1 or self.max_iterations < 1:
            raise DomainError("multistart_count and max_iterations must be >= 1")
        if not (0.0 < self.x_tol < math.inf and 0.0 < self.f_tol < math.inf):
            raise DomainError(
                f"tolerances must be finite and positive, "
                f"got x_tol {self.x_tol}, f_tol {self.f_tol}"
            )
        lo, hi = self.tau_bounds
        if not (0.0 < lo < hi and math.isfinite(hi)):
            raise DomainError(
                f"tau_bounds must be finite, ordered and positive, got {self.tau_bounds}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


DEFAULT_OPTIMIZER = OptimizerConfig()


@dataclass(frozen=True)
class OptimizationResult:
    """Best policy found, its cost breakdown, and how the search went."""

    best_policy: Policy
    best_breakdown: CostBreakdown
    iterations_used: int
    starts_converged: int
    trace: tuple[tuple[Policy, float], ...]
    # why the best start stopped: "x_tol", "f_tol" or "max_iterations"
    stop_reason: str
    # distinct points evaluated, and the failed ones by CbmError class name
    evaluations: int
    failed_evaluations: dict[str, int]


def _lhs_starts(seed: int, count: int, dim: int) -> np.ndarray:
    """First `count` points of a deterministic stream of Latin-hypercube
    blocks in the unit cube."""
    blocks = []
    produced = 0
    index = 0
    while produced < count:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        )
        block = np.empty((_LHS_BLOCK, dim))
        for d in range(dim):
            block[:, d] = (rng.permutation(_LHS_BLOCK) + rng.uniform(size=_LHS_BLOCK)) / _LHS_BLOCK
        blocks.append(block)
        produced += _LHS_BLOCK
        index += 1
    return np.concatenate(blocks)[:count]


def _nelder_mead(x0, max_iterations, x_tol, f_tol):
    """Projected Nelder-Mead in the unit box, as a generator: it yields the
    points it needs evaluated, as the rows of an array (the initial
    simplex, one candidate, or a shrink's vertices), and is sent a list of
    their values.

    Returns (best x, best f, trace of per-iteration bests, iterations, stop
    reason), the reason being "x_tol" or "f_tol" for a converged start,
    "max_iterations", or "infeasible" when no vertex of the initial simplex
    has a finite value. Candidates are clipped into [0, 1]^d before every
    evaluation and the tracked best is monotone by construction.
    """
    dim = x0.size
    step = 0.08
    simplex = [np.clip(x0, 0.0, 1.0)]
    for d in range(dim):
        vertex = simplex[0].copy()
        vertex[d] += step if vertex[d] + step <= 1.0 else -step
        simplex.append(np.clip(vertex, 0.0, 1.0))
    simplex = np.array(simplex)
    values = np.array((yield simplex))
    trace = []
    iterations = 0
    reason = "max_iterations"
    if not np.isfinite(values.min()):
        return simplex[0], math.inf, [], 0, "infeasible"

    while iterations < max_iterations:
        iterations += 1
        order = np.argsort(values)
        simplex, values = simplex[order], values[order]
        best, worst = values[0], values[-1]
        trace.append((simplex[0].copy(), float(best)))
        if np.max(np.abs(simplex[1:] - simplex[0])) <= x_tol:
            reason = "x_tol"
            break
        finite_spread = worst - best if math.isfinite(worst) else math.inf
        if finite_spread <= f_tol * max(1.0, abs(best)):
            reason = "f_tol"
            break

        centroid = simplex[:-1].mean(axis=0)
        reflected = np.clip(centroid + (centroid - simplex[-1]), 0.0, 1.0)
        [f_reflected] = yield reflected[None]
        if f_reflected < values[0]:
            expanded = np.clip(centroid + 2.0 * (centroid - simplex[-1]), 0.0, 1.0)
            [f_expanded] = yield expanded[None]
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = np.clip(centroid + 0.5 * (reflected - centroid), 0.0, 1.0)
        else:
            contracted = np.clip(centroid + 0.5 * (simplex[-1] - centroid), 0.0, 1.0)
        [f_contracted] = yield contracted[None]
        if f_contracted < min(values[-1], f_reflected):
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        # shrink toward the best vertex
        simplex[1:] = np.clip(simplex[0] + 0.5 * (simplex[1:] - simplex[0]), 0.0, 1.0)
        values[1:] = yield simplex[1:]

    order = np.argsort(values)
    simplex, values = simplex[order], values[order]
    if trace and values[0] < trace[-1][1]:
        trace.append((simplex[0].copy(), float(values[0])))
    return simplex[0], float(values[0]), trace, iterations, reason


def _lockstep(evaluate, starts, config: OptimizerConfig):
    """One Nelder-Mead search per start, run in lockstep: each round, the
    points that every live search asks for go to evaluate in one call,
    which maps an array of points (rows) to a list of their values.

    Returns (best x, best f, best trace, iterations of the best start, its
    stop reason, converged-start count), the best start being the first
    with the lowest value. Raises AllStartsFailedError when no start sees
    a finite value.
    """
    searches = [
        _nelder_mead(np.asarray(x0, dtype=float), config.max_iterations, config.x_tol, config.f_tol)
        for x0 in starts
    ]
    results = [None] * len(searches)
    asks = {i: search.send(None) for i, search in enumerate(searches)}
    while asks:
        round_ = list(asks.items())
        asks.clear()
        values = evaluate(np.concatenate([points for _, points in round_]))
        offset = 0
        for i, points in round_:
            part = values[offset : offset + len(points)]
            offset += len(points)
            try:
                asks[i] = searches[i].send(part)
            except StopIteration as done:
                results[i] = done.value
    finite = [result for result in results if math.isfinite(result[1])]
    if not finite:
        raise AllStartsFailedError(f"no finite objective value across {len(starts)} starts")
    converged = sum(result[4] in ("x_tol", "f_tol") for result in results)
    # min keeps the first of equal values
    return (*min(finite, key=lambda result: result[1]), converged)


class _PolicyCodec:
    """Maps points of the unit cube to feasible policies and back.

    The first coordinate, when present, carries the inspection interval on
    a log scale between the configured bounds; the remaining coordinates
    are per-component threshold fractions of the critical levels.
    """

    def __init__(self, model: SystemModel, config: OptimizerConfig, fixed_tau: float | None):
        self.model = model
        self.fixed_tau = fixed_tau
        self.log_lo = math.log(config.tau_bounds[0])
        self.log_hi = math.log(config.tau_bounds[1])
        self.dim = model.n if fixed_tau is not None else model.n + 1

    def decode(self, z: np.ndarray) -> Policy:
        if self.fixed_tau is not None:
            tau = self.fixed_tau
            fractions = z
        else:
            tau = math.exp(self.log_lo + z[0] * (self.log_hi - self.log_lo))
            fractions = z[1:]
        h2 = tuple(
            float(frac) * c.h1 for frac, c in zip(fractions, self.model.components)
        )
        return Policy(tau=tau, h2=h2)


def _search(model, costs, config, trunc, tail, fixed_tau):
    codec = _PolicyCodec(model, config, fixed_tau)
    # per evaluated point its breakdown or the CbmError it raised; the
    # simplex can revisit a point, and the best point is always one
    # already evaluated
    evaluated: dict[bytes, CostBreakdown | CbmError] = {}

    def evaluate(points):
        fresh = {}  # the points not yet evaluated, once each
        for z in points:
            key = z.tobytes()
            if key not in evaluated and key not in fresh:
                fresh[key] = codec.decode(z)
        if fresh:
            policies = list(fresh.values())
            # called through this module's name, which perfbench/tracing.py wraps
            outcomes = cost_rate(model, policies, costs, trunc, tail)
            evaluated.update(zip(fresh, outcomes))
        return [
            breakdown.cr if isinstance(breakdown, CostBreakdown) else math.inf
            for breakdown in (evaluated[z.tobytes()] for z in points)
        ]

    starts = _lhs_starts(config.seed, config.multistart_count, codec.dim)
    # keep threshold starts away from the degenerate box edges
    h2_cols = slice(1, None) if fixed_tau is None else slice(0, None)
    starts[:, h2_cols] = 0.05 + 0.9 * starts[:, h2_cols]

    x, fx, trace, iterations, reason, converged = _lockstep(evaluate, starts, config)
    failed = Counter(
        type(outcome).__name__ for outcome in evaluated.values() if isinstance(outcome, CbmError)
    )
    return OptimizationResult(
        best_policy=codec.decode(x),
        best_breakdown=evaluated[x.tobytes()],
        iterations_used=iterations,
        starts_converged=converged,
        trace=tuple((codec.decode(z), f) for z, f in trace),
        stop_reason=reason,
        evaluations=len(evaluated),
        failed_evaluations=dict(sorted(failed.items())),
    )


def optimize_policy(
    model: SystemModel,
    costs: CostParams,
    config: OptimizerConfig | None = None,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
) -> OptimizationResult:
    """Jointly optimize the inspection interval and all thresholds."""
    return _search(model, costs, config or DEFAULT_OPTIMIZER, trunc, tail, None)


def optimize_fixed_tau(
    model: SystemModel,
    costs: CostParams,
    tau: float,
    config: OptimizerConfig | None = None,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
) -> OptimizationResult:
    """Optimize the thresholds for a predetermined inspection interval."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError(f"tau must be finite and positive, got {tau}")
    return _search(model, costs, config or DEFAULT_OPTIMIZER, trunc, tail, tau)
