"""Path-wise Monte Carlo engine for cycles and first-passage times.

A block of paths runs in two steps. _advance moves the paths between two
times: shocks arrive after exponential gaps, and between them each
component takes one exact gamma increment; a crossing inside such a quiet
stretch is only recorded as a bracket. _resolve then locates the block's
crossings by conditional bisection, one _bisect per component: given the
levels at both ends, the level at a split point follows a beta-scaled
bridge that no other draw affects, and monotonicity of the path keeps the
crossing inside the bracket. A path fails at its earliest crossing, so
each later component is bisected only where it comes before the earliest
one found so far. The cycle simulator advances a block interval by
interval, as inspection counts never depend on where a crossing falls in
its stretch, then halves each bracket down to the configured sub-step: a
failure is found late by at most max(sub_step, one ulp of t), never
early. The first-passage estimator advances once over the whole horizon
and splits brackets at grid points only, so its curve is exact there.

Replications run in fixed-size blocks, each drawing from a substream
derived from the seed and the block index. The same seed and replication
count give identical results; a different replication count re-draws them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HorizonCapError
from .failure_model import SystemModel
from .maintenance_policy import CostParams, Policy
from .system_reliability import as_thresholds

__all__ = [
    "SimulationConfig",
    "CycleOutcome",
    "CycleMeans",
    "SimulationEstimate",
    "simulate_many",
    "estimate_cost_rate",
    "estimate_from_outcomes",
    "empirical_first_passage_cdf",
]

_BLOCK = 1 << 16  # replications per substream block in the vectorized engine


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seeding, and crossing resolution.

    sub_step is the cycle simulator's crossing resolution; None resolves to
    tau/1024 (see resolved_sub_step). First-passage curves do not use it:
    they are exact at their grid points.
    """

    replications: int = 100_000
    seed: int = 0
    sub_step: float | None = None
    horizon_cap: int = 10**6

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.sub_step is not None and not (
            math.isfinite(self.sub_step) and self.sub_step > 0.0
        ):
            raise DomainError(f"sub_step must be positive, got {self.sub_step}")
        if self.horizon_cap < 1:
            raise DomainError("horizon_cap must be at least 1")

    def resolved_sub_step(self, tau: float) -> float:
        """The crossing resolution of cycles inspected every tau hours."""
        return self.sub_step if self.sub_step is not None else tau / 1024.0


class CycleOutcome(NamedTuple):
    """What one renewal cycle did: a named tuple, so a list of them
    transposes into columns with zip(*outcomes)."""

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
    """Renewal-reward cost-rate estimate with its standard error, and the
    standard error of the mean downtime per cycle (both nan for one cycle)."""

    mean_cr: float
    stderr_cr: float
    mean_breakdown: CycleMeans
    preventive_fraction: float
    stderr_downtime: float


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _blocks(config: SimulationConfig):
    """(substream, size) for each block of at most _BLOCK replications."""
    for block, start in enumerate(range(0, config.replications, _BLOCK)):
        yield _substream(config.seed, block), min(_BLOCK, config.replications - start)


def _bisect(alpha, limit, rng, lo, hi, x_lo, x_hi, sub_step, grid, cap=None):
    """Right ends of the crossing brackets (lo, hi] after conditional bisection.

    The level x_lo at lo is below limit and x_hi at hi is not; the level at
    a split point is an exact beta-bridge draw between them. Without grid a
    bracket is halved while it is wider than sub_step; with grid (strictly
    increasing) it is split at its middle grid point strictly inside while
    one is left. A bracket too narrow to split, its beta shapes not both
    positive (one ulp of t), counts as resolved. Either way the right end
    returned is at or after the crossing, and without grid at most
    max(sub_step, one ulp) after it; with grid it is the first grid point
    inside the bracket at or after the crossing, or hi.

    cap, one value per bracket, is the earliest crossing already found on
    the bracket's path; a crossing past it cannot move the path's failure
    time. A bracket with lo >= cap is dropped, its right end returned as it
    came. One with lo < cap < hi that would be split is first split at cap,
    one bridge draw: if the level there is below limit the crossing lies
    after cap and the bracket is dropped too. Otherwise it becomes
    (lo, cap] and is split on as any other. So min(right end, cap) is cap
    where the crossing lies past cap, and otherwise a right end with the
    guarantee above.

    The live brackets stay compacted in their original order, so after the
    split at cap each round draws one beta per bracket it splits, in
    bracket order.
    """
    out = hi.copy()
    at = np.arange(hi.size)
    if grid is None:
        keep = hi - lo > sub_step
    else:
        # grid points a .. b-1 lie strictly inside (lo, hi)
        a = np.searchsorted(grid, lo, side="right")
        b = np.searchsorted(grid, hi, side="left")
        keep = a < b
    if cap is not None:
        keep &= lo < cap
        split = np.flatnonzero(keep & (cap < hi))
        if split.size:
            c = cap[split]
            left, right = alpha * (c - lo[split]), alpha * (hi[split] - c)
            # a cap one ulp from an end is not split at
            ok = (left > 0.0) & (right > 0.0)
            split, c = split[ok], c[ok]
            x_c = x_lo[split] + (x_hi[split] - x_lo[split]) * rng.beta(left[ok], right[ok])
            above = x_c >= limit
            keep[split[~above]] = False
            split, c = split[above], c[above]
            hi, x_hi = hi.copy(), x_hi.copy()
            hi[split], x_hi[split] = c, x_c[above]
            if grid is None:
                keep[split] = c - lo[split] > sub_step
            else:
                b[split] = np.searchsorted(grid, c, side="left")
                keep[split] = a[split] < b[split]
    while True:
        if not keep.all():
            out[at[~keep]] = hi[~keep]
            at, lo, hi, x_lo, x_hi = at[keep], lo[keep], hi[keep], x_lo[keep], x_hi[keep]
            if grid is not None:
                a, b = a[keep], b[keep]
        if not at.size:
            return out
        if grid is None:
            mid = 0.5 * (lo + hi)
        else:
            m = (a + b) // 2
            mid = grid[m]
        left, right = alpha * (mid - lo), alpha * (hi - mid)
        if min(left.min(), right.min()) <= 0.0:
            keep = (left > 0.0) & (right > 0.0)
            continue
        x_mid = x_lo + (x_hi - x_lo) * rng.beta(left, right)
        above = x_mid >= limit
        lo, x_lo = np.where(above, lo, mid), np.where(above, x_lo, x_mid)
        hi, x_hi = np.where(above, mid, hi), np.where(above, x_mid, x_hi)
        if grid is None:
            keep = hi - lo > sub_step
        else:
            a, b = np.where(above, a, m + 1), np.where(above, m, b)
            keep = a < b


def _advance(
    model: SystemModel,
    levels: np.ndarray,
    limits,
    rng: np.random.Generator,
    t0: float,
    t1: float,
    ids: np.ndarray,
    brackets: list[list],
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the paths in the columns of levels from t0 to t1 in place.

    Returns each path's first failure time in (t0, t1], inf where there is
    none, and whether that failure was hard. A path's levels are only
    meaningful up to its failure time. Between shocks each component takes
    one gamma increment. A crossing inside that quiet stretch is left for
    _resolve: the path fails at the stretch's end for now, and component
    i appends the bracket (ids, lo, hi, x_lo, x_hi) to brackets[i], ids
    naming the columns. A path stops at its first stretch with a crossing,
    so it leaves at most one bracket per component, all on that stretch.
    """
    fail = np.full(levels.shape[1], np.inf)
    hard = np.zeros(levels.shape[1], dtype=bool)
    paths = np.arange(levels.shape[1])
    t = np.full(paths.size, float(t0))
    while paths.size:
        if model.lam > 0.0:
            shock = t + rng.exponential(1.0 / model.lam, size=paths.size)
        else:
            shock = np.full(paths.size, np.inf)
        end = np.minimum(shock, t1)
        crossed = np.full(paths.size, np.inf)
        for i, c in enumerate(model.components):
            before = levels[i, paths]
            after = before + rng.gamma(c.alpha * (end - t), 1.0 / c.beta)
            levels[i, paths] = after
            hit = np.flatnonzero((before < limits[i]) & (after >= limits[i]))
            if hit.size:
                hi = crossed[hit] = end[hit]
                brackets[i].append((ids[paths[hit]], t[hit], hi, before[hit], after[hit]))
        fail[paths] = crossed
        # a wear crossing comes before the shock that ends its stretch
        go = np.isinf(crossed) & (shock < t1)
        paths, t = paths[go], shock[go]
        lethal = np.zeros(paths.size, dtype=bool)
        over = np.zeros(paths.size, dtype=bool)
        for i, c in enumerate(model.components):
            destroyed = rng.normal(c.w_mu, c.w_sigma, size=paths.size) >= c.d
            jump = rng.gamma(c.y_alpha, 1.0 / c.y_beta, size=paths.size)
            levels[i, paths] += np.where(destroyed, 0.0, jump)
            lethal |= destroyed
            over |= levels[i, paths] >= limits[i]
        failed = lethal | over
        fail[paths[failed]] = t[failed]
        hard[paths[failed]] = lethal[failed]
        paths, t = paths[~failed], t[~failed]
    return fail, hard


def _resolve(model, limits, rng, fail, brackets, sub_step, grid):
    """Refine fail, indexed by the ids of _advance, at the brackets it left.

    One _bisect per component, capped at the earliest crossing that the
    earlier components found on each path: the path fails at the first
    one, so a later component's crossing is refined only where it comes
    earlier. A bracketed path's fail starts at its stretch's end, a cap
    that splits nothing. Without grid the failure is reported late by at
    most max(sub_step, one ulp of t) and never early. With grid the
    reported time is at most a grid point exactly when the crossing is.
    """
    for i, c in enumerate(model.components):
        if brackets[i]:
            # one stretch's brackets are used without a copy, so a block
            # whose paths cross in one stretch pays nothing for the batching
            parts = brackets[i]
            ids, lo, hi, x_lo, x_hi = (
                parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            )
            cap = fail[ids]
            found = _bisect(c.alpha, limits[i], rng, lo, hi, x_lo, x_hi, sub_step, grid, cap)
            fail[ids] = np.minimum(cap, found)


_KINDS = np.array(["soft", "hard", "none"], dtype=object)


def _simulate_columns(
    model: SystemModel, policy: Policy, config: SimulationConfig
) -> CycleOutcome:
    """The cycles of simulate_many as one CycleOutcome of arrays, in the
    same order; failure_time is inf where a cycle ended preventively."""
    h2 = np.array(as_thresholds(model, policy.h2))[:, None]
    tau = policy.tau
    sub_step = config.resolved_sub_step(tau)
    blocks = []
    for rng, size in _blocks(config):
        levels = np.zeros((model.n, size))
        paths = np.arange(size)
        inspections = np.zeros(size, dtype=np.int64)
        fail = np.full(size, np.inf)
        hard = np.zeros(size, dtype=bool)
        brackets = [[] for _ in model.components]
        k = 0
        while paths.size:
            k += 1
            if k > config.horizon_cap:
                raise HorizonCapError(
                    f"no detection within {config.horizon_cap} inspections"
                )
            t_fail, t_hard = _advance(
                model, levels, model.h1_vector, rng, (k - 1) * tau, k * tau, paths, brackets
            )
            failed = np.isfinite(t_fail)
            fail[paths[failed]] = t_fail[failed]
            hard[paths[failed]] = t_hard[failed]
            done = failed | (levels >= h2).any(axis=0)
            inspections[paths[done]] = k
            paths, levels = paths[~done], levels[:, ~done]
        _resolve(model, model.h1_vector, rng, fail, brackets, sub_step, None)
        blocks.append((inspections, fail, hard))
    inspections, fail, hard = (np.concatenate(column) for column in zip(*blocks))
    preventive = np.isinf(fail)
    lengths = inspections * tau
    return CycleOutcome(
        inspections=inspections,
        cycle_length=lengths,
        downtime=np.where(preventive, 0.0, lengths - fail),
        ended_preventively=preventive,
        failure_time=fail,
        failure_kind=_KINDS[np.where(preventive, 2, hard)],
    )


def simulate_many(
    model: SystemModel, policy: Policy, config: SimulationConfig
) -> list[CycleOutcome]:
    """Independent renewal cycles under the inspect-and-replace policy.

    A cycle ends at the first inspection that observes a hard failure or
    any component at or above its on-condition threshold. A failure before
    that inspection accrues downtime until it. Raises HorizonCapError when
    some cycle is not over after config.horizon_cap inspections.
    """
    columns = _simulate_columns(model, policy, config)
    failure_time = columns.failure_time.astype(object)
    failure_time[columns.ended_preventively] = None
    # tuple.__new__ builds each record without _make's length check
    return list(map(partial(tuple.__new__, CycleOutcome), zip(
        columns.inspections.tolist(),
        columns.cycle_length.tolist(),
        columns.downtime.tolist(),
        columns.ended_preventively.tolist(),
        failure_time.tolist(),
        columns.failure_kind.tolist(),
    )))


def estimate_cost_rate(
    model: SystemModel,
    policy: Policy,
    costs: CostParams,
    config: SimulationConfig | None = None,
) -> SimulationEstimate:
    """Renewal-reward ratio estimate of the long-run cost rate.

    The standard error uses the delta method for a ratio of means; with a
    single replication it is reported as nan. The result equals, field for
    field, estimate_from_outcomes on simulate_many's cycles, without
    building the records.
    """
    return _estimate(_simulate_columns(model, policy, config or SimulationConfig()), costs)


def estimate_from_outcomes(
    outcomes: list[CycleOutcome], costs: CostParams
) -> SimulationEstimate:
    """Cost-rate estimate from already-simulated cycles."""
    if not outcomes:
        raise DomainError("outcomes must not be empty")
    return _estimate(CycleOutcome._make(zip(*outcomes)), costs)


def _estimate(columns: CycleOutcome, costs: CostParams) -> SimulationEstimate:
    """The estimate from per-cycle columns, arrays or sequences."""
    inspections = np.asarray(columns.inspections, dtype=float)
    downtime = np.asarray(columns.downtime, dtype=float)
    lengths = np.asarray(columns.cycle_length, dtype=float)
    total_cost = costs.c_i * inspections + costs.c_rho * downtime + costs.c_r
    rate = float(total_cost.sum() / lengths.sum())
    n = lengths.size
    if n > 1:
        # not BLAS's dot, which wakes a thread pool past ~10,000 entries
        residuals = total_cost - rate * lengths
        stderr = float(
            math.sqrt(float(np.square(residuals).sum()) / (n - 1) / n) / lengths.mean()
        )
        stderr_downtime = float(downtime.std(ddof=1) / math.sqrt(n))
    else:
        stderr = stderr_downtime = float("nan")
    return SimulationEstimate(
        mean_cr=rate,
        stderr_cr=stderr,
        mean_breakdown=CycleMeans(
            inspections=float(inspections.mean()),
            downtime=float(downtime.mean()),
            cycle_length=float(lengths.mean()),
            total_cost=float(total_cost.mean()),
        ),
        preventive_fraction=float(np.mean(columns.ended_preventively)),
        stderr_downtime=stderr_downtime,
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
    Each crossing is bisected at grid points only, until none is left inside
    its bracket, so a path counts at a grid point exactly when it has
    crossed by then: the curve carries sampling error alone, and
    config.sub_step plays no part.
    """
    values = as_thresholds(model, thresholds)
    grid = [float(t) for t in t_grid]
    if not grid:
        raise DomainError("t_grid must not be empty")
    if not all(math.isfinite(t) for t in grid):
        raise DomainError("t_grid must be finite")
    if grid[0] < 0.0 or any(b < a for a, b in zip(grid, grid[1:])):
        raise DomainError("t_grid must be nonnegative and nondecreasing")
    horizon = grid[-1]
    if horizon == 0.0:
        return [(t, 0.0) for t in grid]
    grid_arr = np.array(grid)
    points = np.unique(grid_arr)
    counts_leq = np.zeros(len(grid), dtype=np.int64)
    for rng, size in _blocks(config):
        brackets = [[] for _ in model.components]
        cross, _ = _advance(
            model, np.zeros((model.n, size)), values, rng, 0.0, horizon, np.arange(size), brackets
        )
        _resolve(model, values, rng, cross, brackets, None, points)
        counts_leq += np.searchsorted(np.sort(cross), grid_arr, side="right")
    return [
        (t, c / config.replications) for t, c in zip(grid, counts_leq.tolist())
    ]
