"""Series-system survival and the first-passage-time CDFs.

One generic survival routine serves three laws that differ only in the
threshold vector: system reliability (critical thresholds), the failure
time CDF, and the detection time CDF (on-condition thresholds). All
components share the same shock count, so conditioning on it makes them
independent and turns the system probability into a product inside the
shock-count sum.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .failure_model import (
    SystemModel,
    TruncationConfig,
    poisson_weights,
    shock_survival_prob,
    threshold_cdf_block,
)

__all__ = [
    "series_survival",
    "series_survival_over_times",
    "failure_time_cdf",
    "detection_time_cdf",
    "reliability_curve",
]


def as_thresholds(model: SystemModel, thresholds) -> tuple[float, ...]:
    """Coerce and validate a threshold vector against a system model."""
    values = tuple(float(v) for v in thresholds)
    if len(values) != model.n:
        raise DomainError(
            f"threshold vector has length {len(values)}, system has {model.n} components"
        )
    for i, (v, c) in enumerate(zip(values, model.components)):
        if not (0.0 <= v <= c.h1):
            raise DomainError(f"thresholds[{i}] = {v} outside [0, h1 = {c.h1}]")
    return values


def series_survival(
    model: SystemModel,
    t: float,
    thresholds: Sequence[float],
    trunc: TruncationConfig | None = None,
) -> float:
    """Probability that, by time t, no component has hard-failed or crossed
    its threshold."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return float(series_survival_over_times(model, np.array([t]), thresholds, trunc)[0])


def series_survival_over_times(
    model: SystemModel,
    times,
    thresholds,
    trunc: TruncationConfig | None = None,
) -> np.ndarray:
    """series_survival on an array of times, batched for speed.

    thresholds of shape (C,) give survival of shape (T,), and L rows of
    shape (L, C) give (L, T). The shock-count cutoff is taken at the
    largest time, which only adds terms for the smaller ones; each component
    contributes one block of convolution CDFs over the whole (level, shock
    count, time) grid, so extra rows add no mixture loop.
    """
    t = np.asarray(times, dtype=float)
    single = np.ndim(thresholds) == 1
    if t.size == 0:
        return np.zeros(0) if single else np.zeros((len(thresholds), 0))
    if np.any(~np.isfinite(t)) or np.any(t < 0.0):
        raise DomainError("times must be finite and >= 0")
    rows = [thresholds] if single else thresholds
    values = np.array([as_thresholds(model, row) for row in rows]).reshape(-1, model.n)
    mu = model.lam * t
    n_terms = len(poisson_weights(float(mu.max()), trunc))
    weights = np.empty((n_terms, t.size))
    weights[0] = np.exp(-mu)
    for m in range(1, n_terms):
        weights[m] = weights[m - 1] * mu / m
    factors = weights
    for i, c in enumerate(model.components):
        block = threshold_cdf_block(c, values[:, i], t, n_terms - 1)
        survive_powers = shock_survival_prob(c) ** np.arange(n_terms)
        factors = factors * survive_powers[:, None] * block
    survival = np.clip(factors.sum(axis=-2), 0.0, 1.0)
    return survival[0] if single else survival


def failure_time_cdf(
    model: SystemModel,
    t: float,
    trunc: TruncationConfig | None = None,
) -> float:
    """CDF of the system failure time: first hard failure or crossing of
    any critical threshold."""
    return 1.0 - series_survival(model, t, model.h1_vector, trunc)


def detection_time_cdf(
    model: SystemModel,
    t: float,
    h2: Sequence[float],
    trunc: TruncationConfig | None = None,
) -> float:
    """CDF of the first time an on-condition threshold is reached or a hard
    failure occurs; dominates the failure time CDF pointwise."""
    return 1.0 - series_survival(model, t, h2, trunc)


def reliability_curve(
    model: SystemModel,
    t_grid: Sequence[float],
    thresholds: Sequence[float],
    trunc: TruncationConfig | None = None,
) -> list[tuple[float, float]]:
    """Pointwise survival along a nondecreasing time grid."""
    grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(grid) < 0.0):
        raise DomainError("t_grid must be nondecreasing")
    survival = series_survival_over_times(model, grid, thresholds, trunc)
    return [(float(t), float(s)) for t, s in zip(grid, survival)]
