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
    return tuple(float(v) for v in _threshold_array(model, thresholds))


def _threshold_array(model: SystemModel, thresholds) -> np.ndarray:
    """Threshold vectors of shape S + (C,) as a float array, each entry
    checked against [0, h1] of its component."""
    try:
        values = np.asarray(thresholds, dtype=float)
    except ValueError:
        raise DomainError("thresholds must be equal-length numeric vectors") from None
    if values.ndim == 0 or values.shape[-1] != model.n:
        length = values.shape[-1] if values.ndim else 0
        raise DomainError(
            f"threshold vector has length {length}, system has {model.n} components"
        )
    h1 = np.array(model.h1_vector)
    inside = (values >= 0.0) & (values <= h1)
    if not inside.all():
        first = tuple(np.argwhere(~inside)[0])
        i = first[-1]
        raise DomainError(f"thresholds[{i}] = {values[first]} outside [0, h1 = {h1[i]}]")
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
    shape (L, C) give (L, T): every row at every time. With L rows, times
    of shape (L, T) instead give each row its own times, so rows (N, C) and
    times (N, 1) pair one threshold vector with each time. The shock-count
    cutoff is taken at the largest time, which only adds terms for the
    smaller ones; each component contributes one block of convolution CDFs
    over every (row, time) pair, so extra rows add no mixture loop.
    """
    t = np.asarray(times, dtype=float)
    values = _threshold_array(model, thresholds)
    if not (t.ndim == 1 or (t.ndim == 2 and values.ndim == 2 and len(t) == len(values))):
        raise DomainError("times must be one-dimensional, or one row per threshold row")
    shape = np.broadcast(values[..., :1], t).shape
    if t.size == 0 or values.size == 0:
        return np.zeros(shape)
    if np.any(~np.isfinite(t)) or np.any(t < 0.0):
        raise DomainError("times must be finite and >= 0")
    if t.ndim == 2:  # the blocks take one-dimensional times, so one level per time
        levels = np.repeat(values, t.shape[1], axis=0)
        t = t.ravel()
    else:  # (1, C) or (L, 1, C): every level at every time
        levels = values[..., None, :]
    mu = model.lam * t
    n_terms = len(poisson_weights(float(mu.max()), trunc))
    weights = np.empty((n_terms, t.size))
    weights[0] = np.exp(-mu)
    for m in range(1, n_terms):
        weights[m] = weights[m - 1] * mu / m
    # each block has the shock count first, then the levels' shape broadcast
    # against the times
    ones = (1,) * (np.broadcast(levels[..., 0], t).ndim - 1)
    factors = weights.reshape((n_terms,) + ones + (t.size,))
    for i, c in enumerate(model.components):
        block = threshold_cdf_block(c, levels[..., i], t, n_terms - 1)
        survive_powers = shock_survival_prob(c) ** np.arange(n_terms)
        factors = factors * survive_powers.reshape((-1,) + ones + (1,)) * block
    return np.clip(factors.sum(axis=0), 0.0, 1.0).reshape(shape)


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
