"""Renewal-cycle cost analytics for the periodic inspection policy.

A cycle runs from one replacement to the next. The system is inspected
every tau hours; the cycle ends at the first inspection that sees a hard
failure or any component at or above its on-condition threshold. Failures
that happen between inspections sit undetected and accrue downtime until
the next inspection.

The downtime expectation follows the printed cost-rate formula literally:
each interval's downtime integral against the failure-time CDF is
multiplied by that interval's detection probability mass. The integral
already carries probability mass of its own, so this product is not a
path-consistent expectation when detection and failure times differ; the
simulator provides the path-wise reference value, and reports quantify
the gap rather than reinterpreting the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .errors import CbmError, DomainError, TailCapError, TruncationCapError
from .failure_model import SystemModel, TruncationConfig, poisson_weights
from .numerics import adaptive_integrate, kronrod_nodes, negligible_shape
from .system_reliability import (
    FailureLaw,
    as_thresholds,
    failure_law,
    series_survival_over_times,
)

__all__ = [
    "CostParams",
    "Policy",
    "CostBreakdown",
    "SeriesTailConfig",
    "expected_inspections",
    "expected_downtime",
    "cost_rate",
]

# the most inspection epochs one survival pass of a ladder takes
_BATCH = 64


@dataclass(frozen=True)
class CostParams:
    """Inspection, downtime-per-hour, and replacement costs."""

    c_i: float
    c_rho: float
    c_r: float

    def __post_init__(self):
        for field, value in [("c_i", self.c_i), ("c_rho", self.c_rho), ("c_r", self.c_r)]:
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{field} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class Policy:
    """Inspection interval tau and per-component on-condition thresholds."""

    tau: float
    h2: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise DomainError(f"tau must be finite and positive, got {self.tau}")
        object.__setattr__(self, "h2", tuple(float(v) for v in self.h2))
        for i, v in enumerate(self.h2):
            if not (math.isfinite(v) and v >= 0.0):
                raise DomainError(f"h2[{i}] must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class CostBreakdown:
    """Expected per-cycle quantities and the resulting long-run cost rate."""

    e_ni: float
    e_rho: float
    e_k: float
    e_tc: float
    cr: float


@dataclass(frozen=True)
class SeriesTailConfig:
    """Cutoff rule for the infinite sums over the inspection count."""

    k_tail_eps: float = 1e-9
    k_max_cap: int = 10**6

    def __post_init__(self):
        if not (0.0 < self.k_tail_eps < 1.0):
            raise DomainError("k_tail_eps must lie in (0, 1)")
        if self.k_max_cap < 1:
            raise DomainError("k_max_cap must be at least 1")


DEFAULT_TAIL = SeriesTailConfig()


def _next_batch(model: SystemModel, h2, tau: float, k: int, trunc, tail: SeriesTailConfig):
    """The epochs of a ladder's survival pass after its k-th: the next
    _BATCH, cut at the first where the wear-only bound prod_i
    P(wear_i(j*tau) <= h2_i) falls below the tail cutoff, by which the
    ladder surely ends because degradation is at least the wear; then
    halved while a pass could not reach the last one within the shock-count
    series' term cap, which only a ladder still open there needs to.
    """
    epochs = tau * np.arange(k + 1, min(k + _BATCH, tail.k_max_cap) + 1)
    shapes = np.array([[c.alpha] for c in model.components]) * epochs
    levels = np.array([[c.beta * h] for c, h in zip(model.components, h2)])
    # a negligible wear shape is the point mass at zero, below any level
    wear = np.where(negligible_shape(shapes), 1.0, special.gammainc(shapes, levels))
    below = np.flatnonzero(wear.prod(axis=0) < tail.k_tail_eps)
    epochs = epochs[: below[0] + 1] if below.size else epochs
    while epochs.size > 1:
        try:
            poisson_weights(model.lam * float(epochs[-1]), trunc)
            return epochs
        except TruncationCapError:
            epochs = epochs[: epochs.size // 2]
    return epochs


def _ladder_passes(model: SystemModel, policy: Policy, trunc, tail: SeriesTailConfig):
    """The detection-time CDF of one policy at 0, tau, 2*tau, ... until the
    tail drops below the cutoff, as a generator of its survival passes; it
    raises TailCapError if that never happens within the cap.

    Each pass takes the epochs of _next_batch at the levels h2 alone: the
    generator yields the pass's times and the levels, and is sent back
    1 - survival at those times. So a ladder of up to _BATCH epochs is one
    pass unless the term cap halves it, and no pass asks for an epoch past
    the wear-only bound's end. Returns the ladder. The failure-time CDF at
    the same epochs comes from the model's failure law.
    """
    h2 = as_thresholds(model, policy.h2)
    ladder = [0.0]
    while True:
        k = len(ladder) - 1
        if k + 1 > tail.k_max_cap:
            raise TailCapError(
                f"detection not reached after {tail.k_max_cap} inspections "
                f"(tail eps {tail.k_tail_eps}); the policy may never trigger"
            )
        cdfs = yield _next_batch(model, h2, policy.tau, k, trunc, tail), h2
        for f_k in cdfs:
            ladder.append(float(f_k))
            if 1.0 - f_k < tail.k_tail_eps:
                return ladder


def _cdf_ladders(
    model: SystemModel,
    policies: list[Policy],
    trunc: TruncationConfig | None,
    tail: SeriesTailConfig | None,
) -> list:
    """The ladders of _ladder_passes for every policy, built in rounds: each
    round is one survival pass over the next batch of every ladder still
    open. Returns per policy its ladder or the CbmError that its own ladder
    raised; an error of a pass itself propagates.
    """
    tail = tail or DEFAULT_TAIL
    outcomes: list = [None] * len(policies)
    asks = {}  # policy index -> its generator and the (times, rows) it asks for

    def advance(i, passes, cdfs):
        try:
            asks[i] = passes, passes.send(cdfs)
        except StopIteration as done:
            outcomes[i] = done.value
        except CbmError as error:
            outcomes[i] = error

    for i, policy in enumerate(policies):
        advance(i, _ladder_passes(model, policy, trunc, tail), None)
    while asks:
        round_ = [(i, *asks.pop(i)) for i in list(asks)]
        if len(round_) == 1:
            # a lone ladder's pass keeps its own form, which costs less than
            # the stacked form below
            cdfs = [1.0 - series_survival_over_times(model, *round_[0][2], trunc)]
        else:
            # one threshold row per time, and one segment per ladder, so that
            # each gets what a pass of its own gives
            asked = [ask for _, _, ask in round_]
            times = np.concatenate([epochs for epochs, _ in asked])[:, None]
            rows = np.concatenate([np.tile(h2, (epochs.size, 1)) for epochs, h2 in asked])
            sizes = [epochs.size for epochs, _ in asked]
            survival = series_survival_over_times(model, times, rows, trunc, segments=sizes)
            cdfs = np.split(1.0 - survival[:, 0], np.cumsum(sizes)[:-1])
        for (i, passes, _), part in zip(round_, cdfs):
            advance(i, passes, part)
    return outcomes


def _only(outcomes: list):
    """The one entry of a list of outcomes; raises it if it is a CbmError."""
    [outcome] = outcomes
    if isinstance(outcome, CbmError):
        raise outcome
    return outcome


def _cdf_ladder(model, policy, trunc, tail):
    """The ladder of one policy; raises what building it raised."""
    return _only(_cdf_ladders(model, [policy], trunc, tail))


def _inspections_from_ladder(ladder: list[float]) -> float:
    # residual tail mass is assigned to the final inspection, so the
    # detection-count weights sum to one exactly and the mean is >= 1
    kmax = len(ladder) - 1
    total = sum(k * (ladder[k] - ladder[k - 1]) for k in range(1, kmax + 1))
    return total + kmax * (1.0 - ladder[kmax])


def expected_inspections(
    model: SystemModel,
    policy: Policy,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
) -> float:
    """Expected number of inspections in one renewal cycle."""
    return _inspections_from_ladder(_cdf_ladder(model, policy, trunc, tail))


def _downtimes(taus: list[float], ladders: list, law: FailureLaw) -> list:
    """E[rho] of each policy from its tau and ladder: the sum over
    inspection intervals k of the detection mass of interval k (the
    residual tail on the last one) times the Stieltjes integral of
    (k*tau - t) against the failure-time CDF. Returns per policy its
    E[rho] or a CbmError: its ladder's, or one that its own reads raised.

    Each interval integral is rewritten by parts as the area under the CDF
    minus a boundary term; differentiating a CDF built from truncated
    series would amplify the truncation noise. The intervals are cut at
    the law's panel edges, so one law evaluation gives every policy's CDF
    at its epochs and the exact area of each piece (see
    FailureLaw.cdf_and_areas). Intervals where the CDF barely rises are
    provably negligible and are clipped off. A policy that reaches an
    incomplete law's end reads its epochs from one direct pass of its own,
    and integrates its pieces past the end adaptively on direct passes.
    """
    plans, times, los, his = [], [], [], []
    for tau, ladder in zip(taus, ladders):
        if isinstance(ladder, CbmError):
            plans.append(ladder)
            continue
        epochs = tau * np.arange(len(ladder))
        mesh = np.union1d(epochs, law.edges[1 : np.searchsorted(law.edges, epochs[-1])])
        past_end = not law.complete and epochs[-1] >= law.horizon
        # the pieces that start before an incomplete law's end read the law
        on_law = int(np.searchsorted(mesh[:-1], law.horizon)) if past_end else mesh.size - 1
        plans.append((tau, ladder, epochs, mesh, on_law, past_end))
        times.append(np.empty(0) if past_end else epochs[1:])
        los.append(mesh[:on_law])
        his.append(mesh[1 : on_law + 1])
    if not times:  # every ladder failed
        return plans
    cdfs, areas = law.cdf_and_areas(*(np.concatenate(parts) for parts in (times, los, his)))
    cdfs = iter(np.split(cdfs, np.cumsum([part.size for part in times])[:-1]))
    areas = iter(np.split(areas, np.cumsum([part.size for part in los])[:-1]))
    outcomes = []
    for plan in plans:
        if isinstance(plan, CbmError):
            outcomes.append(plan)
            continue
        try:
            outcomes.append(_downtime(*plan, next(cdfs), next(areas), law))
        except CbmError as error:
            outcomes.append(error)
    return outcomes


def _downtime(tau, ladder, epochs, mesh, on_law, past_end, cdf, areas, law) -> float:
    """One policy's E[rho] from its share of the law evaluation of
    _downtimes."""
    weights = np.diff(np.array(ladder))
    weights[-1] += 1.0 - ladder[-1]
    weights = np.maximum(weights, 0.0)
    f1_at = np.concatenate([[0.0], law(epochs[1:]) if past_end else cdf])
    significant = np.flatnonzero(weights * tau * np.diff(f1_at) >= 1e-13 * tau)
    if significant.size == 0:
        return 0.0
    first, last = int(significant[0]), int(significant[-1])
    boundary = float(np.sum(weights[first : last + 1] * f1_at[first : last + 1]))
    # the pieces of the significant intervals, and the interval of each
    start, stop = np.searchsorted(mesh, epochs[[first, last + 1]])
    interval = np.searchsorted(epochs, mesh[start:stop], side="right") - 1
    split = max(min(on_law, stop), start)
    area = float(np.sum(weights[interval[: split - start]] * areas[start:split]))
    if split < stop:

        def weighted_cdf(ts):
            return weights[np.minimum((ts / tau).astype(int), len(weights) - 1)] * law(ts)

        lo, hi = mesh[split:stop], mesh[split + 1 : stop + 1]
        # called through this module's name, which perfbench/tracing.py wraps
        area += adaptive_integrate(weighted_cdf, lo, hi, weighted_cdf(kronrod_nodes(lo, hi)))
    return max(area - tau * boundary, 0.0)


def expected_downtime(
    model: SystemModel,
    policy: Policy,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
) -> float:
    """Expected downtime per cycle from the literal closed-form expression
    (see the module docstring for its caveat)."""
    ladder = _cdf_ladder(model, policy, trunc, tail)
    return _only(_downtimes([policy.tau], [ladder], failure_law(model, trunc)))


def _breakdowns(
    model: SystemModel,
    policies: list[Policy],
    costs: CostParams,
    trunc: TruncationConfig | None,
    tail: SeriesTailConfig | None,
) -> list:
    """Per policy its CostBreakdown or the CbmError it raised; a stacked
    pass that raises is made again one policy at a time."""
    try:
        ladders = _cdf_ladders(model, policies, trunc, tail)
    except CbmError as error:
        if len(policies) == 1:
            return [error]
        # a cap that one policy reaches fails the pass of all of them
        return [
            outcome
            for policy in policies
            for outcome in _breakdowns(model, [policy], costs, trunc, tail)
        ]
    downtimes = _downtimes([policy.tau for policy in policies], ladders, failure_law(model, trunc))
    outcomes = []
    for policy, ladder, e_rho in zip(policies, ladders, downtimes):
        if isinstance(e_rho, CbmError):
            outcomes.append(e_rho)
            continue
        e_ni = _inspections_from_ladder(ladder)
        e_k = policy.tau * e_ni
        e_tc = costs.c_i * e_ni + costs.c_rho * e_rho + costs.c_r
        outcomes.append(CostBreakdown(e_ni=e_ni, e_rho=e_rho, e_k=e_k, e_tc=e_tc, cr=e_tc / e_k))
    return outcomes


def cost_rate(
    model: SystemModel,
    policy: Policy | Sequence[Policy],
    costs: CostParams,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
):
    """Long-run maintenance cost per hour with its per-cycle breakdown.

    E[N_I] and E[rho] share one ladder of detection-CDF values, built in
    survival passes at the levels h2 alone. Every failure-CDF value and
    downtime area comes from the model's failure law (see
    system_reliability.failure_law), which the first call on a model
    builds and later calls reuse; so a call on a model whose law is built
    makes only its ladder's passes, and one law evaluation.

    policy may also be a sequence of policies. Their ladders are built
    together, each round one survival pass over the next batch of every
    ladder still open, and one law evaluation gives the failure CDF at
    every policy's epochs and the areas of its downtime pieces (see
    _downtimes). Each ladder is one segment of the pass (see
    series_survival_over_times), with its own shock-count cutoff and
    mixture stop, so the result, a list of one entry per policy, holds bit
    for bit what single calls give: the policy's CostBreakdown or the
    CbmError it raised. A series cap that one policy reaches fails the
    whole pass; the policies are then evaluated again one at a time.
    """
    if isinstance(policy, Policy):
        return _only(_breakdowns(model, [policy], costs, trunc, tail))
    return _breakdowns(model, list(policy), costs, trunc, tail)
