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
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import CbmError, DomainError, TailCapError
from .failure_model import SystemModel, TruncationConfig
from .numerics import adaptive_integrate, kronrod_nodes, negligible_shape
from .system_reliability import as_thresholds, series_survival_over_times

__all__ = [
    "CostParams",
    "Policy",
    "CostBreakdown",
    "SeriesTailConfig",
    "expected_inspections",
    "expected_downtime",
    "cost_rate",
]

# a ladder that the wear-only bound ends within this many epochs takes one
# survival pass, which also carries the downtime integral's first
# Gauss-Kronrod round on its intervals
_FIRST_BATCH = 16

# the failure-time CDF (at the critical levels h1) at a 1-D time array
FailureCdf = Callable[[np.ndarray], np.ndarray]


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


def _wear_bound_end(model: SystemModel, h2, tau: float, tail: SeriesTailConfig) -> int | None:
    """An epoch k <= _FIRST_BATCH by which the ladder surely ends, or None.

    Degradation is at least the wear, so the detection survival at k*tau is
    at most the wear-only bound prod_i P(wear_i(k*tau) <= h2_i), and the
    ladder ends by the first k where that bound is below the tail cutoff.
    """
    epochs = tau * np.arange(1, min(_FIRST_BATCH, tail.k_max_cap) + 1)
    shapes = np.array([[c.alpha] for c in model.components]) * epochs
    levels = np.array([[c.beta * h] for c, h in zip(model.components, h2)])
    # a negligible wear shape is the point mass at zero, below any level
    wear = np.where(negligible_shape(shapes), 1.0, special.gammainc(shapes, levels))
    below = np.flatnonzero(wear.prod(axis=0) < tail.k_tail_eps)
    return int(below[0]) + 1 if below.size else None


def _ladder_passes(model: SystemModel, policy: Policy, tail: SeriesTailConfig):
    """The detection-time CDF of one policy at 0, tau, 2*tau, ... until the
    tail drops below the cutoff, as a generator of its survival passes; it
    raises TailCapError if that never happens within the cap.

    Each batch of epochs is one pass at the levels h2 and h1: the generator
    yields the pass's times and threshold rows, in the form that
    series_survival_over_times takes them, and is sent back 1 - survival,
    raveled. The first batch also carries, at h1 only, the probe time
    tau/128. Where the wear-only bound shows that the
    ladder ends within _FIRST_BATCH epochs, the first batch holds exactly
    those epochs, and its pass also carries the Gauss-Kronrod nodes of
    their intervals, so that the downtime integral needs no pass of its own
    for its first round. Otherwise the batches hold 8, 16, 32 and then 64
    epochs, and no nodes: on a longer ladder the downtime integral's own
    pass covers them at less cost. Returns the ladder, the failure-time CDF
    at the same epochs, at the probe, and at the nodes carried (one row of
    15 per interval), which _downtime_from_ladder needs.
    """
    h2 = as_thresholds(model, policy.h2)
    rows = np.array([h2, model.h1_vector])
    tau = policy.tau
    ladder = [0.0]
    failure = [0.0]
    k = 0
    end = _wear_bound_end(model, h2, tau, tail)
    batch = end or 8
    while True:
        if k + 1 > tail.k_max_cap:
            raise TailCapError(
                f"detection not reached after {tail.k_max_cap} inspections "
                f"(tail eps {tail.k_tail_eps}); the policy may never trigger"
            )
        ks = range(k + 1, min(k + batch, tail.k_max_cap) + 1)
        epochs = np.array([j * tau for j in ks])
        n = epochs.size
        if k == 0:
            # h2 and h1 at the epochs, then h1 alone at the probe and nodes
            carried = ks if end else ks[:0]
            lows = np.array([(j - 1) * tau for j in carried])
            at = kronrod_nodes(lows, epochs[: len(carried)])
            times = np.concatenate([epochs, epochs, [tau / 128.0], at.ravel()])
            cdfs = yield times[:, None], np.repeat(rows, [n, times.size - n], axis=0)
            probe = float(cdfs[2 * n])
            first_round = cdfs[2 * n + 1 :].reshape(at.shape)
        else:
            cdfs = yield epochs, rows
        for f_k, f1_k in zip(cdfs[:n], cdfs[n : 2 * n]):
            k += 1
            ladder.append(float(f_k))
            failure.append(f1_k)
            if 1.0 - f_k < tail.k_tail_eps:
                return ladder, np.array(failure), probe, first_round
        batch = min(batch * 2, 64)


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
        advance(i, _ladder_passes(model, policy, tail), None)
    while asks:
        round_ = [(i, *asks.pop(i)) for i in list(asks)]
        if len(round_) == 1:
            # a lone ladder's pass keeps its own form: shared epochs for
            # both levels make a later batch's mixture a little cheaper
            cdfs = [(1.0 - series_survival_over_times(model, *round_[0][2], trunc)).ravel()]
        else:
            # one threshold row per time, and one segment per ladder, so that
            # each gets what a pass of its own gives
            times, rows = zip(*(_as_pairs(*ask) for _, _, ask in round_))
            sizes = [t.size for t in times]
            survival = series_survival_over_times(
                model, np.concatenate(times)[:, None], np.concatenate(rows), trunc, segments=sizes
            )
            cdfs = np.split(1.0 - survival[:, 0], np.cumsum(sizes)[:-1])
        for (i, passes, _), part in zip(round_, cdfs):
            advance(i, passes, part)
    return outcomes


def _as_pairs(times: np.ndarray, rows: np.ndarray):
    """The times and threshold rows of a survival pass as one row per time,
    in the order of the pass's raveled result."""
    if times.ndim == 2:
        return times[:, 0], rows
    return np.tile(times, len(rows)), np.repeat(rows, times.size, axis=0)


def _cdf_ladder(model, policy, trunc, tail):
    """The ladder of one policy; raises what building it raised."""
    [outcome] = _cdf_ladders(model, [policy], trunc, tail)
    if isinstance(outcome, CbmError):
        raise outcome
    return outcome


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
    return _inspections_from_ladder(_cdf_ladder(model, policy, trunc, tail)[0])


def _direct_failure_cdf(model: SystemModel, trunc: TruncationConfig | None) -> FailureCdf:
    """The failure-time CDF at a time array, one survival pass at h1 per call."""

    def failure_cdf(ts):
        return 1.0 - series_survival_over_times(model, ts, model.h1_vector, trunc)

    return failure_cdf


def _downtime_from_ladder(
    tau: float,
    ladder: list[float],
    f1_at: np.ndarray,
    probe: float,
    first_round: np.ndarray,
    failure_cdf: FailureCdf,
) -> float:
    """Sum over inspection intervals of the detection mass of interval k
    (the residual tail on the last one) times the Stieltjes integral of
    (k*tau - t) against the failure-time CDF.

    Each interval integral is rewritten by parts as the area under the CDF
    minus a boundary term; differentiating a CDF built from truncated
    series would amplify the truncation noise. The per-interval areas are
    evaluated together as one composite integral of the weight step
    function times the CDF, with mesh breakpoints at the inspection epochs,
    so one refinement round covers many intervals at once. The first
    round's panels on the intervals of the ladder's first batch come from
    first_round, the failure-time CDF at their nodes, so only the other
    panels and the refinement rounds ask failure_cdf for values. Intervals
    where the CDF barely rises are provably negligible and are clipped off.
    """
    weights = np.diff(np.array(ladder))
    weights[-1] += 1.0 - ladder[-1]
    weights = np.maximum(weights, 0.0)
    kmax = len(weights)
    rises = np.diff(f1_at)
    significant = np.flatnonzero(weights * tau * rises >= 1e-13 * tau)
    if significant.size == 0:
        return 0.0
    k_first = int(significant[0]) + 1
    k_last = int(significant[-1]) + 1

    def weighted(ts, cdf):
        k_of_t = np.minimum((ts / tau).astype(int), kmax - 1)
        return weights[k_of_t] * cdf

    def weighted_cdf(ts):
        return weighted(ts, failure_cdf(ts))

    boundary = float(
        np.sum(weights[k_first - 1 : k_last] * f1_at[k_first - 1 : k_last])
    )
    area = 0.0
    chunk = 256
    for start in range(k_first, k_last + 1, chunk):
        stop = min(start + chunk - 1, k_last)
        edges = [k * tau for k in range(start - 1, stop + 1)]
        # the CDF may rise in a thin layer far below the first epoch; its
        # value at tau/128 decides whether to grade the mesh toward zero
        graded = start == 1 and probe > 0.99
        if graded:
            edges = edges[:1] + [tau * 0.5**j for j in range(27, 6, -1)] + edges[1:]
        lo, hi = np.array(edges[:-1]), np.array(edges[1:])
        nodes = kronrod_nodes(lo, hi)
        # the panels that are whole intervals of the first batch are known
        known = np.zeros(lo.size, dtype=bool)
        whole = start + graded  # the first interval that is one panel
        count = max(min(stop, len(first_round)) - whole + 1, 0)
        skip = lo.size - (stop - whole + 1)  # the graded panels
        known[skip : skip + count] = True
        cdf = np.empty(nodes.shape)
        cdf[known] = first_round[whole - 1 : whole - 1 + count]
        if not known.all():
            cdf[~known] = failure_cdf(nodes[~known].ravel()).reshape(-1, nodes.shape[1])
        # called through this module's name, which perfbench/tracing.py wraps
        area += adaptive_integrate(weighted_cdf, lo, hi, weighted(nodes, cdf))
    return max(area - tau * boundary, 0.0)


def expected_downtime(
    model: SystemModel,
    policy: Policy,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
) -> float:
    """Expected downtime per cycle from the literal closed-form expression
    (see the module docstring for its caveat)."""
    ladder, *rest = _cdf_ladder(model, policy, trunc, tail)
    return _downtime_from_ladder(policy.tau, ladder, *rest, _direct_failure_cdf(model, trunc))


def _breakdowns(
    model: SystemModel,
    policies: list[Policy],
    costs: CostParams,
    trunc: TruncationConfig | None,
    tail: SeriesTailConfig | None,
    failure_cdfs: list[FailureCdf],
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
            for policy, failure_cdf in zip(policies, failure_cdfs)
            for outcome in _breakdowns(model, [policy], costs, trunc, tail, [failure_cdf])
        ]
    outcomes = []
    for policy, ladder, failure_cdf in zip(policies, ladders, failure_cdfs):
        if isinstance(ladder, CbmError):
            outcomes.append(ladder)
            continue
        try:
            e_rho = _downtime_from_ladder(policy.tau, *ladder, failure_cdf)
        except CbmError as error:
            outcomes.append(error)
            continue
        e_ni = _inspections_from_ladder(ladder[0])
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
    *,
    failure_cdf: FailureCdf | Sequence[FailureCdf] | None = None,
):
    """Long-run maintenance cost per hour with its per-cycle breakdown.

    E[N_I] and E[rho] share one ladder of detection- and failure-CDF values.
    The downtime integral's further failure-CDF values come from
    failure_cdf, a callable of a 1-D time array that must return what
    1 - series_survival_over_times(model, ts, model.h1_vector, trunc)
    returns; by default it is that survival pass. A caller that evaluates
    many policies at one tau, such as the optimizer, passes a memo of
    those passes instead.

    policy may also be a sequence of policies, with failure_cdf then a
    sequence of one callable per policy (or None). Their ladders are built
    together, each round one survival pass over the next batch of every
    ladder still open, while each downtime integral stays with its own
    policy. Each ladder is one segment of the pass (see
    series_survival_over_times), with its own shock-count cutoff and
    mixture stop, so the result, a list of one entry per policy, holds bit
    for bit what single calls give: the policy's CostBreakdown or the
    CbmError it raised. A series cap that one policy reaches fails the
    whole pass; the policies are then evaluated again one at a time.
    """
    # the ladder's first pass keeps its h1 rows even where failure_cdf could
    # supply them: without them the h2 row's mixture loop would stop at
    # another term, changing the last bits, and where the fixed-tau
    # objective is flat to the ulp (table 2 at 24 h and 120 h) the reported
    # h2 would flip
    if isinstance(policy, Policy):
        [outcome] = _breakdowns(
            model, [policy], costs, trunc, tail, [failure_cdf or _direct_failure_cdf(model, trunc)]
        )
        if isinstance(outcome, CbmError):
            raise outcome
        return outcome
    policies = list(policy)
    failure_cdfs = [_direct_failure_cdf(model, trunc)] * len(policies)
    if failure_cdf is not None:
        failure_cdfs = list(failure_cdf)
        if len(failure_cdfs) != len(policies):
            raise DomainError(
                f"failure_cdf has {len(failure_cdfs)} callables for {len(policies)} policies"
            )
    return _breakdowns(model, policies, costs, trunc, tail, failure_cdfs)
