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

import numpy as np

from .errors import DomainError, TailCapError
from .failure_model import SystemModel, TruncationConfig
from .numerics import ToleranceConfig, adaptive_integrate
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

# the downtime expectation is consumed at Monte Carlo noise scales, so its
# time integral can run a digit looser than the library-wide quadrature
# default
_TIME_INTEGRAL_TOL = ToleranceConfig(rel_tol=1e-8, abs_tol=1e-12, max_subdivisions=60)


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


def validate_policy(model: SystemModel, policy: Policy) -> tuple[float, ...]:
    """Check the policy thresholds against the model and return them."""
    return as_thresholds(model, policy.h2)


def _cdf_ladder(
    model: SystemModel,
    policy: Policy,
    trunc: TruncationConfig | None,
    tail: SeriesTailConfig | None,
) -> tuple[list[float], np.ndarray, float]:
    """Validate the policy and sample its detection-time CDF at 0, tau,
    2*tau, ... until the tail drops below the cutoff; raises TailCapError
    if that never happens within the cap.

    Each batch of epochs is one survival pass over the rows [h2; h1], and
    the first one also carries the probe time tau/128. Returns the ladder,
    the failure-time CDF at the same epochs, and the failure-time CDF at
    the probe, which _downtime_from_ladder needs.
    """
    rows = (validate_policy(model, policy), model.h1_vector)
    tau = policy.tau
    tail = tail or DEFAULT_TAIL
    ladder = [0.0]
    failure = [0.0]
    k = 0
    batch = 8
    first = [tau / 128.0]  # the probe time rides along with the first batch
    while True:
        if k + 1 > tail.k_max_cap:
            raise TailCapError(
                f"detection not reached after {tail.k_max_cap} inspections "
                f"(tail eps {tail.k_tail_eps}); the policy may never trigger"
            )
        ks = range(k + 1, min(k + batch, tail.k_max_cap) + 1)
        times = np.array(first + [j * tau for j in ks])
        cdfs = 1.0 - series_survival_over_times(model, times, rows, trunc)
        if first:
            probe = float(cdfs[1, 0])
            cdfs, first = cdfs[:, 1:], []
        for f_k, f1_k in zip(cdfs[0], cdfs[1]):
            k += 1
            ladder.append(float(f_k))
            failure.append(f1_k)
            if 1.0 - f_k < tail.k_tail_eps:
                return ladder, np.array(failure), probe
        batch = min(batch * 2, 64)


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


def _downtime_from_ladder(
    model: SystemModel,
    tau: float,
    ladder: list[float],
    f1_at: np.ndarray,
    probe: float,
    trunc: TruncationConfig | None,
) -> float:
    """Sum over inspection intervals of the detection mass of interval k
    (the residual tail on the last one) times the Stieltjes integral of
    (k*tau - t) against the failure-time CDF.

    Each interval integral is rewritten by parts as the area under the CDF
    minus a boundary term; differentiating a CDF built from truncated
    series would amplify the truncation noise. The per-interval areas are
    evaluated together as one composite integral of the weight step
    function times the CDF, with mesh breakpoints at the inspection epochs,
    so one refinement round covers many intervals at once. Intervals where
    the CDF barely rises are provably negligible and are clipped off.
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

    def weighted_cdf(ts):
        ts = np.asarray(ts, dtype=float)
        cdf = 1.0 - series_survival_over_times(model, ts, model.h1_vector, trunc)
        k_of_t = np.minimum((ts / tau).astype(int), kmax - 1)
        return weights[k_of_t] * cdf

    boundary = float(
        np.sum(weights[k_first - 1 : k_last] * f1_at[k_first - 1 : k_last])
    )
    area = 0.0
    chunk = 256
    for start in range(k_first, k_last + 1, chunk):
        stop = min(start + chunk - 1, k_last)
        lo, hi = (start - 1) * tau, stop * tau
        mesh = [k * tau for k in range(start, stop)]
        # the CDF may rise in a thin layer far below the first epoch; its
        # value at tau/128 decides whether to grade the mesh toward zero
        if start == 1 and probe > 0.99:
            mesh = [tau * 0.5**j for j in range(7, 28)] + mesh
        value, _ = adaptive_integrate(
            weighted_cdf, lo, hi, _TIME_INTEGRAL_TOL, breakpoints=mesh
        )
        area += value
    return max(area - tau * boundary, 0.0)


def expected_downtime(
    model: SystemModel,
    policy: Policy,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
) -> float:
    """Expected downtime per cycle from the literal closed-form expression
    (see the module docstring for its caveat)."""
    ladder, f1_at, probe = _cdf_ladder(model, policy, trunc, tail)
    return _downtime_from_ladder(model, policy.tau, ladder, f1_at, probe, trunc)


def cost_rate(
    model: SystemModel,
    policy: Policy,
    costs: CostParams,
    trunc: TruncationConfig | None = None,
    tail: SeriesTailConfig | None = None,
) -> CostBreakdown:
    """Long-run maintenance cost per hour with its per-cycle breakdown.

    E[N_I] and E[rho] share one ladder of detection- and failure-CDF values."""
    ladder, f1_at, probe = _cdf_ladder(model, policy, trunc, tail)
    e_ni = _inspections_from_ladder(ladder)
    e_rho = _downtime_from_ladder(model, policy.tau, ladder, f1_at, probe, trunc)
    e_k = policy.tau * e_ni
    e_tc = costs.c_i * e_ni + costs.c_rho * e_rho + costs.c_r
    return CostBreakdown(e_ni=e_ni, e_rho=e_rho, e_k=e_k, e_tc=e_tc, cr=e_tc / e_k)
