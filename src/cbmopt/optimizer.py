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

The failure-time CDF does not depend on the thresholds, and at one
inspection interval the downtime integral asks for it at the same time
arrays again and again. Each search therefore keeps one memo of those
passes for the current tau (see _FailureCdfMemo): a fixed-tau search makes
each pass once, and so do the vertices of a joint search's initial simplex
that share tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllStartsFailedError, CbmError, DomainError
from .failure_model import SystemModel, TruncationConfig
from .maintenance_policy import (
    CostBreakdown,
    CostParams,
    Policy,
    SeriesTailConfig,
    _direct_failure_cdf,
    cost_rate,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "optimize_policy",
    "optimize_fixed_tau",
    "minimize_multistart",
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
        if not (self.x_tol > 0.0 and self.f_tol > 0.0):
            raise DomainError("tolerances must be positive")
        lo, hi = self.tau_bounds
        if not (0.0 < lo < hi):
            raise DomainError(f"tau_bounds must be ordered and positive, got {self.tau_bounds}")
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


def _nelder_mead(f, x0, max_iterations, x_tol, f_tol):
    """Projected Nelder-Mead in the unit box.

    Returns (best x, best f, trace of per-iteration bests, iterations,
    converged flag). Candidates are clipped into [0, 1]^d before every
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
    values = np.array([f(v) for v in simplex])
    trace = []
    iterations = 0
    converged = False
    if not np.isfinite(values.min()):
        return simplex[0], math.inf, [], 0, False

    while iterations < max_iterations:
        iterations += 1
        order = np.argsort(values)
        simplex, values = simplex[order], values[order]
        best, worst = values[0], values[-1]
        trace.append((simplex[0].copy(), float(best)))
        if np.max(np.abs(simplex[1:] - simplex[0])) <= x_tol:
            converged = True
            break
        finite_spread = worst - best if math.isfinite(worst) else math.inf
        if finite_spread <= f_tol * max(1.0, abs(best)):
            converged = True
            break

        centroid = simplex[:-1].mean(axis=0)
        reflected = np.clip(centroid + (centroid - simplex[-1]), 0.0, 1.0)
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = np.clip(centroid + 2.0 * (centroid - simplex[-1]), 0.0, 1.0)
            f_expanded = f(expanded)
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
        f_contracted = f(contracted)
        if f_contracted < min(values[-1], f_reflected):
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        # shrink toward the best vertex
        simplex[1:] = np.clip(simplex[0] + 0.5 * (simplex[1:] - simplex[0]), 0.0, 1.0)
        values[1:] = [f(v) for v in simplex[1:]]

    order = np.argsort(values)
    simplex, values = simplex[order], values[order]
    if trace and values[0] < trace[-1][1]:
        trace.append((simplex[0].copy(), float(values[0])))
    return simplex[0], float(values[0]), trace, iterations, converged


def minimize_multistart(objective, dim, config: OptimizerConfig, starts=None):
    """Multistart projected Nelder-Mead in the unit cube.

    objective maps a point of [0, 1]^dim to a float; non-finite values mark
    infeasible evaluations. Returns (best x, best f, best trace, iterations
    of the best start, converged-start count). Raises AllStartsFailedError
    when no start sees a finite value.
    """
    if starts is None:
        starts = _lhs_starts(config.seed, config.multistart_count, dim)
    best = None
    converged_count = 0
    for x0 in starts:
        x, fx, trace, iterations, converged = _nelder_mead(
            objective, np.asarray(x0, dtype=float),
            config.max_iterations, config.x_tol, config.f_tol,
        )
        converged_count += converged
        if math.isfinite(fx) and (best is None or fx < best[1]):
            best = (x, fx, trace, iterations)
    if best is None:
        raise AllStartsFailedError(
            f"no finite objective value across {len(starts)} starts"
        )
    return best[0], best[1], best[2], best[3], converged_count


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


class _FailureCdfMemo:
    """The failure-time CDF passes of one search, at one tau at a time.

    at(tau) gives the callable that cost_rate takes as failure_cdf. A
    request is keyed by its whole 1-D time array: the same array in gives
    the same pass out, so a hit is bit-identical to a fresh pass. A new tau
    drops the requests held for the old one. Held arrays are read-only,
    since every hit hands out the same one.
    """

    def __init__(self, model: SystemModel, trunc: TruncationConfig | None):
        self._direct = _direct_failure_cdf(model, trunc)
        self.tau: float | None = None
        self.held: dict[bytes, np.ndarray] = {}

    def at(self, tau: float):
        if tau != self.tau:
            self.tau = tau
            self.held.clear()
        return self._lookup

    def _lookup(self, ts: np.ndarray) -> np.ndarray:
        key = ts.tobytes()
        cdf = self.held.get(key)
        if cdf is None:
            cdf = self._direct(ts)
            cdf.flags.writeable = False
            self.held[key] = cdf
        return cdf


def _search(model, costs, config, trunc, tail, fixed_tau):
    codec = _PolicyCodec(model, config, fixed_tau)
    memo = _FailureCdfMemo(model, trunc)
    # breakdown per evaluated point (None where it failed); the simplex can
    # revisit a point, and the best point is always one already evaluated
    evaluated: dict[bytes, CostBreakdown | None] = {}

    def objective(z):
        key = z.tobytes()
        if key not in evaluated:
            try:
                policy = codec.decode(z)
                evaluated[key] = cost_rate(
                    model, policy, costs, trunc, tail, failure_cdf=memo.at(policy.tau)
                )
            except CbmError:
                evaluated[key] = None
        breakdown = evaluated[key]
        return math.inf if breakdown is None else breakdown.cr

    starts = _lhs_starts(config.seed, config.multistart_count, codec.dim)
    # keep threshold starts away from the degenerate box edges
    h2_cols = slice(1, None) if fixed_tau is None else slice(0, None)
    starts[:, h2_cols] = 0.05 + 0.9 * starts[:, h2_cols]

    x, fx, trace, iterations, converged = minimize_multistart(
        objective, codec.dim, config, starts=starts
    )
    return OptimizationResult(
        best_policy=codec.decode(x),
        best_breakdown=evaluated[x.tobytes()],
        iterations_used=iterations,
        starts_converged=converged,
        trace=tuple((codec.decode(z), f) for z, f in trace),
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
