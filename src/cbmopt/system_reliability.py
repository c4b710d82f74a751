"""Series-system survival, the source of the first-passage-time CDFs.

One survival routine serves three laws that differ only in the threshold
vector: system reliability at the critical thresholds h1, whose complement
is the failure-time CDF, and survival at the on-condition thresholds h2,
whose complement is the detection-time CDF. Stacked threshold rows give
several laws in one call. All components share the same shock count, so
conditioning on it makes them independent and turns the system
probability into a product inside the shock-count sum.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .failure_model import (
    SystemModel,
    TruncationConfig,
    poisson_weights,
    shock_survival_prob,
    threshold_cdf_block,
)

__all__ = ["series_survival_over_times"]


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


def series_survival_over_times(
    model: SystemModel,
    times,
    thresholds,
    trunc: TruncationConfig | None = None,
    *,
    segments=None,
) -> np.ndarray:
    """Probability that, by each time, no component has hard-failed or
    crossed its threshold.

    thresholds of shape (C,) give survival of shape (T,), and L rows of
    shape (L, C) give (L, T): every row at every time. With L rows, times
    of shape (L, T) instead give each row its own times, so rows (N, C) and
    times (N, 1) pair one threshold vector with each time. The shock-count
    cutoff is taken at the largest time, which only adds terms for the
    smaller ones; each component contributes one block of convolution CDFs
    over every (row, time) pair, so extra rows add no mixture loop.

    segments, a list of lengths that split the times (raveled, when each
    row has its own) into consecutive runs, makes one pass do the work of
    one call per run: each run takes the shock-count cutoff at its own
    largest time and its own mixture stop, so its values are bit for bit
    those of a call on the run alone.
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
    if segments is None:
        n_terms = len(poisson_weights(float(mu.max()), trunc))
    else:
        ends = np.cumsum(segments)
        if ends[-1] != t.size or min(segments) < 1:
            raise DomainError("segments must be positive lengths that add up to the times")
        own = [len(poisson_weights(float(part.max()), trunc)) for part in np.split(mu, ends[:-1])]
        n_terms = max(own)
    weights = np.empty((n_terms, t.size))
    weights[0] = np.exp(-mu)
    for m in range(1, n_terms):
        weights[m] = weights[m - 1] * mu / m
    if segments is not None:
        # a run's terms past its own cutoff add exact zeros
        for n, start, stop in zip(own, ends - segments, ends):
            weights[n:, start:stop] = 0.0
        segments = [(length, n - 1) for length, n in zip(segments, own)]
    # each block has the shock count first, then the levels' shape broadcast
    # against the times
    ones = (1,) * (np.broadcast(levels[..., 0], t).ndim - 1)
    factors = weights.reshape((n_terms,) + ones + (t.size,))
    for i, c in enumerate(model.components):
        block = threshold_cdf_block(c, levels[..., i], t, n_terms - 1, segments)
        survive_powers = shock_survival_prob(c) ** np.arange(n_terms)
        factors = factors * survive_powers.reshape((-1,) + ones + (1,)) * block
    return np.clip(factors.sum(axis=0), 0.0, 1.0).reshape(shape)

