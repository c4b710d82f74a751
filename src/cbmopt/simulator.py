"""Path-wise Monte Carlo engine for cycles and first-passage times.

Degradation paths are sampled exactly at event times (shock arrivals,
inspection epochs) using independent gamma increments. Crossing times
inside a segment are located by conditional bisection: given the levels at
both ends, the level at the midpoint follows a beta-scaled bridge, and
monotonicity of the path makes bisection find the same crossing point a
dense grid would. Crossings are therefore resolved to the configured
sub-step, detected late but never early, with bias below one sub-step.

Each replication of the cycle simulator owns a substream derived from the
seed and the replication index, so results do not depend on scheduling
order. The vectorized first-passage estimator derives substreams per
fixed-size block of replications instead, which is equally deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonCapError
from .failure_model import ComponentParams, SystemModel
from .maintenance_policy import CostParams, Policy, validate_policy
from .system_reliability import as_thresholds

__all__ = [
    "SimulationConfig",
    "CycleOutcome",
    "CycleMeans",
    "SimulationEstimate",
    "simulate_cycle",
    "simulate_many",
    "estimate_cost_rate",
    "estimate_from_outcomes",
    "empirical_first_passage_cdf",
]

_BLOCK = 1 << 16  # replications per substream block in the vectorized engine


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seeding, and crossing resolution.

    sub_step = None resolves to tau/1024 when a policy is present and to
    horizon/4096 for first-passage estimation.
    """

    replications: int = 100_000
    seed: int = 0
    sub_step: float | None = None
    horizon_cap: int = 10**6

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if self.sub_step is not None and not (
            math.isfinite(self.sub_step) and self.sub_step > 0.0
        ):
            raise DomainError(f"sub_step must be positive, got {self.sub_step}")
        if self.horizon_cap < 1:
            raise DomainError("horizon_cap must be at least 1")


@dataclass(frozen=True)
class CycleOutcome:
    """What one renewal cycle did."""

    inspections: int
    cycle_length: float
    downtime: float
    ended_preventively: bool
    failure_time: float | None
    failure_kind: str  # "soft", "hard", or "none"


@dataclass(frozen=True)
class CycleMeans:
    """Per-cycle sample means across replications."""

    inspections: float
    downtime: float
    cycle_length: float
    total_cost: float


@dataclass(frozen=True)
class SimulationEstimate:
    """Renewal-reward cost-rate estimate with its standard error."""

    mean_cr: float
    stderr_cr: float
    mean_breakdown: CycleMeans
    preventive_fraction: float


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _bisect_crossing(rng, alpha, ta, tb, xa, xb, limit, sub_step):
    """Locate the crossing of a monotone gamma path inside (ta, tb].

    The endpoint levels bracket the limit; each midpoint level is an exact
    conditional draw, so the returned right bracket has the same law as
    scanning a grid of the same resolution.
    """
    while tb - ta > sub_step:
        tm = 0.5 * (ta + tb)
        frac = rng.beta(alpha * (tm - ta), alpha * (tb - tm))
        xm = xa + (xb - xa) * frac
        if xm >= limit:
            tb, xb = tm, xm
        else:
            ta, xa = tm, xm
    return tb


def _advance_between(rng, components, levels, t0, t1, shock_times, limits, sub_step):
    """Advance every component from t0 to t1 in place.

    shock_times must be sorted within (t0, t1). Returns (time, kind) of the
    first threshold crossing or hard failure, or (None, None). Levels are
    only meaningful up to the returned time.
    """
    boundaries = [t0, *shock_times, t1]
    for j in range(len(boundaries) - 1):
        a, b = boundaries[j], boundaries[j + 1]
        if b > a:
            first = None
            for i, c in enumerate(components):
                before = levels[i]
                inc = rng.gamma(c.alpha * (b - a), 1.0 / c.beta)
                levels[i] = before + inc
                if before < limits[i] <= levels[i]:
                    t_cross = _bisect_crossing(
                        rng, c.alpha, a, b, before, levels[i], limits[i], sub_step
                    )
                    if first is None or t_cross < first:
                        first = t_cross
            if first is not None:
                return first, "soft"
        if j + 1 <= len(shock_times):
            s = boundaries[j + 1]
            hard = False
            soft = False
            for i, c in enumerate(components):
                w = rng.normal(c.w_mu, c.w_sigma)
                if w >= c.d:
                    hard = True  # the shock itself destroys the component
                else:
                    levels[i] += rng.gamma(c.y_alpha, 1.0 / c.y_beta)
                    if levels[i] >= limits[i]:
                        soft = True
            if hard:
                return s, "hard"
            if soft:
                return s, "soft"
    return None, None


def simulate_cycle(
    model: SystemModel,
    policy: Policy,
    rng: np.random.Generator,
    config: SimulationConfig | None = None,
) -> CycleOutcome:
    """Run one renewal cycle under the inspect-and-replace policy.

    The cycle ends at the first inspection that observes a hard failure or
    any component at or above its on-condition threshold. A failure before
    that inspection accrues downtime until it.
    """
    config = config or SimulationConfig()
    h2 = validate_policy(model, policy)
    tau = policy.tau
    sub_step = config.sub_step if config.sub_step is not None else tau / 1024.0
    h1 = model.h1_vector
    levels = [0.0] * model.n
    k = 0
    while True:
        k += 1
        if k > config.horizon_cap:
            raise HorizonCapError(
                f"no detection within {config.horizon_cap} inspections"
            )
        t0, t1 = (k - 1) * tau, k * tau
        n_shocks = rng.poisson(model.lam * tau)
        shock_times = np.sort(rng.uniform(t0, t1, size=n_shocks)).tolist()
        failure_time, kind = _advance_between(
            rng, model.components, levels, t0, t1, shock_times, h1, sub_step
        )
        if failure_time is not None:
            return CycleOutcome(
                inspections=k,
                cycle_length=k * tau,
                downtime=k * tau - failure_time,
                ended_preventively=False,
                failure_time=failure_time,
                failure_kind=kind,
            )
        if any(level >= threshold for level, threshold in zip(levels, h2)):
            return CycleOutcome(
                inspections=k,
                cycle_length=k * tau,
                downtime=0.0,
                ended_preventively=True,
                failure_time=None,
                failure_kind="none",
            )


def simulate_many(
    model: SystemModel, policy: Policy, config: SimulationConfig
) -> list[CycleOutcome]:
    """Independent cycles, one seeded substream per replication index."""
    return [
        simulate_cycle(model, policy, _substream(config.seed, j), config)
        for j in range(config.replications)
    ]


def estimate_cost_rate(
    model: SystemModel,
    policy: Policy,
    costs: CostParams,
    config: SimulationConfig | None = None,
) -> SimulationEstimate:
    """Renewal-reward ratio estimate of the long-run cost rate.

    The standard error uses the delta method for a ratio of means; with a
    single replication it is reported as nan.
    """
    config = config or SimulationConfig()
    return estimate_from_outcomes(simulate_many(model, policy, config), costs)


def estimate_from_outcomes(
    outcomes: list[CycleOutcome], costs: CostParams
) -> SimulationEstimate:
    """Cost-rate estimate from already-simulated cycles."""
    inspections = np.array([o.inspections for o in outcomes], dtype=float)
    downtime = np.array([o.downtime for o in outcomes])
    lengths = np.array([o.cycle_length for o in outcomes])
    total_cost = costs.c_i * inspections + costs.c_rho * downtime + costs.c_r
    rate = float(total_cost.sum() / lengths.sum())
    n = len(outcomes)
    if n > 1:
        residuals = total_cost - rate * lengths
        stderr = float(
            math.sqrt(float(residuals @ residuals) / (n - 1) / n) / lengths.mean()
        )
    else:
        stderr = float("nan")
    return SimulationEstimate(
        mean_cr=rate,
        stderr_cr=stderr,
        mean_breakdown=CycleMeans(
            inspections=float(inspections.mean()),
            downtime=float(downtime.mean()),
            cycle_length=float(lengths.mean()),
            total_cost=float(total_cost.mean()),
        ),
        preventive_fraction=float(np.mean([o.ended_preventively for o in outcomes])),
    )


def empirical_first_passage_cdf(
    model: SystemModel,
    thresholds,
    config: SimulationConfig,
    t_grid,
) -> list[tuple[float, float]]:
    """Empirical CDF of the first threshold crossing or hard failure.

    Vectorized across replications in fixed-size blocks; paths that never
    cross within the grid horizon are right-censored and simply never count.
    """
    values = as_thresholds(model, thresholds)
    grid = [float(t) for t in t_grid]
    if not grid:
        raise DomainError("t_grid must not be empty")
    previous = None
    for t in grid:
        if t < 0.0 or (previous is not None and t < previous):
            raise DomainError("t_grid must be nonnegative and nondecreasing")
        previous = t
    horizon = grid[-1]
    if horizon == 0.0:
        return [(t, 0.0) for t in grid]
    sub_step = config.sub_step if config.sub_step is not None else horizon / 4096.0
    n_strides = max(1, math.ceil(horizon / (64.0 * sub_step)))
    stride = horizon / n_strides
    depth = max(0, math.ceil(math.log2(stride / sub_step))) if stride > sub_step else 0

    grid_arr = np.array(grid)
    counts_leq = np.zeros(len(grid), dtype=np.int64)
    remaining = config.replications
    block_index = 0
    while remaining > 0:
        size = min(_BLOCK, remaining)
        rng = _substream(config.seed, block_index)
        cross = _first_passage_block(model, values, rng, size, n_strides, stride, depth, sub_step)
        counts_leq += np.searchsorted(np.sort(cross), grid_arr, side="right")
        remaining -= size
        block_index += 1
    return [
        (t, c / config.replications) for t, c in zip(grid, counts_leq.tolist())
    ]


def _first_passage_block(
    model: SystemModel,
    thresholds: tuple[float, ...],
    rng: np.random.Generator,
    size: int,
    n_strides: int,
    stride: float,
    depth: int,
    sub_step: float,
) -> np.ndarray:
    comps = model.components
    levels = np.zeros((model.n, size))
    cross = np.full(size, np.inf)
    for s in range(n_strides):
        a = s * stride
        b = a + stride
        alive = np.flatnonzero(np.isinf(cross))
        if alive.size == 0:
            break
        shock_counts = rng.poisson(model.lam * stride, size=alive.size)
        quiet = alive[shock_counts == 0]
        shocked = alive[shock_counts > 0]
        for i, c in enumerate(comps):
            before = levels[i, quiet]
            after = before + rng.gamma(c.alpha * stride, 1.0 / c.beta, size=quiet.size)
            levels[i, quiet] = after
            hit = np.flatnonzero((before < thresholds[i]) & (after >= thresholds[i]))
            if hit.size:
                ta = np.full(hit.size, a)
                tb = np.full(hit.size, b)
                xa = before[hit]
                xb = after[hit]
                for _ in range(depth):
                    tm = 0.5 * (ta + tb)
                    frac = rng.beta(c.alpha * (tm - ta), c.alpha * (tb - tm))
                    xm = xa + (xb - xa) * frac
                    above = xm >= thresholds[i]
                    tb = np.where(above, tm, tb)
                    xb = np.where(above, xm, xb)
                    ta = np.where(above, ta, tm)
                    xa = np.where(above, xa, xm)
                reps = quiet[hit]
                cross[reps] = np.minimum(cross[reps], tb)
        # rare shocked paths fall back to the exact scalar advance
        for rep, count in zip(shocked, shock_counts[shock_counts > 0].tolist()):
            times = np.sort(rng.uniform(a, b, size=count)).tolist()
            rep_levels = [float(levels[i, rep]) for i in range(model.n)]
            t_cross, _ = _advance_between(
                rng, comps, rep_levels, a, b, times, thresholds, sub_step
            )
            for i in range(model.n):
                levels[i, rep] = rep_levels[i]
            if t_cross is not None:
                cross[rep] = min(cross[rep], t_cross)
    return cross
