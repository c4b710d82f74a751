"""Series-system survival, the source of the first-passage-time CDFs.

One survival routine serves three laws that differ only in the threshold
vector: system reliability at the critical thresholds h1, whose complement
is the failure-time CDF, and survival at the on-condition thresholds h2,
whose complement is the detection-time CDF. Stacked threshold rows give
several laws in one call. All components share the same shock count, so
conditioning on it makes them independent and turns the system
probability into a product inside the shock-count sum.

The failure-time CDF depends on the model alone, not on a policy, so
failure_law builds it once per model as a piecewise-Chebyshev interpolant
(Trefethen, Approximation Theory and Approximation Practice, SIAM 2013,
chapters 3 and 19), with each panel's antiderivative, and caches it; every
consumer of F_f and of its integrals reads it there.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import chebyshev
from scipy import special

from .errors import DomainError, TruncationCapError
from .failure_model import (
    DEFAULT_TRUNCATION,
    SystemModel,
    TruncationConfig,
    poisson_weights,
    shock_survival_prob,
    threshold_cdf_block,
)

__all__ = ["series_survival_over_times", "FailureLaw", "failure_law"]


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


# The failure law's panels: [0, T 2^-40], [T 2^-40, T 2^-39], ..., [T/2, T],
# each interpolated at _LAW_POINTS Chebyshev points of the first kind; a
# panel is halved, up to _LAW_DEPTH times, while any of its last _LAW_TRAIL
# coefficients exceeds _LAW_CHOP (Aurentz & Trefethen, "Chopping a Chebyshev
# series", ACM TOMS 43, 2017), unless the last halving left them above
# _LAW_STALL of their size, which is the rounding noise of the survival
# values and not a lack of resolution. Beyond the horizon T, where the
# survival is below _LAW_TAIL, F_f is 1.
_LAW_POINTS = 24
_LAW_GRADING = 40
_LAW_TRAIL = 4
_LAW_CHOP = 1e-14
_LAW_STALL = 0.5
_LAW_DEPTH = 20
_LAW_TAIL = 1e-17
_ANGLES = np.pi * (np.arange(_LAW_POINTS) + 0.5) / _LAW_POINTS
_CHEB_X = np.cos(_ANGLES)
# values at _CHEB_X to Chebyshev coefficients, by discrete orthogonality
_TO_COEFFS = 2.0 / _LAW_POINTS * np.cos(np.outer(np.arange(_LAW_POINTS), _ANGLES))
_TO_COEFFS[0] /= 2.0


class FailureLaw:
    """The failure-time CDF F_f(t) = 1 - S(t; h1) of one model and
    truncation rule, as a piecewise-Chebyshev interpolant; call it on a time
    array, or read F_f and its integrals over the pieces of a mesh cut at
    its edges with cdf_and_areas.

    Each refinement level evaluates its new panels' points in one survival
    pass, which also carries the horizon so that every level takes the
    shock-count cutoff there. The law agrees with direct passes to about
    1e-14, and since it is built whole, what a call returns depends on the
    model, the truncation rule and the call's times, never on earlier calls.

    The law is incomplete (complete is False) where the shock or mixture
    series cannot reach a horizon within its term cap, or where a panel
    does not resolve: it then ends at the latest time the series reach,
    or at the start of the first panel it could not resolve. A call with a
    time at or beyond that end reads all its times from one direct pass,
    which raises what such a pass raises; a direct pass's own rounding
    noise then stays consistent across the call's times.
    """

    def __init__(self, model: SystemModel, trunc: TruncationConfig):
        self.model, self.trunc = model, trunc
        top, found = _law_horizon(model, trunc)
        edges = np.concatenate([[0.0], top * 0.5 ** np.arange(_LAW_GRADING, -1, -1)])
        lo, hi = edges[:-1], edges[1:]
        before = np.full(lo.size, np.inf)  # trailing sizes before the last halving
        reach, kept = top, [(np.empty(0), np.empty((0, _LAW_POINTS)))]
        for depth in range(_LAW_DEPTH + 1):
            points = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _CHEB_X
            try:
                survival = series_survival_over_times(
                    model, np.append(points.ravel(), top), model.h1_vector, trunc
                )
            except TruncationCapError:  # the series cannot reach these panels
                reach = float(lo.min())
                break
            coeffs = (1.0 - survival[:-1]).reshape(points.shape) @ _TO_COEFFS.T
            trail = np.abs(coeffs[:, -_LAW_TRAIL:]).max(axis=1)
            done = trail <= _LAW_CHOP
            stuck = ~done & ((trail > _LAW_STALL * before) | (depth == _LAW_DEPTH))
            reach = float(np.min(lo[stuck], initial=reach))
            kept.append((lo[done], coeffs[done]))
            split = ~done & (lo < reach)
            mid = 0.5 * (lo + hi)[split]
            lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            before = np.tile(trail[split], 2)
            if lo.size == 0:
                break
        self.horizon, self.complete = reach, found and reach == top
        starts, coeffs = (np.concatenate(parts) for parts in zip(*kept))
        order = np.argsort(starts)
        order = order[starts[order] < reach]
        self.edges = np.append(starts[order], reach)
        # one column per panel, so that a gather gives one row per degree
        self.coeffs = coeffs[order].T.copy()
        # each panel's antiderivative G_p(t), the integral of F_f from the
        # panel's start edges[p] to t, in the same basis; one table holds
        # F_f's columns, padded with a zero top degree, then G_p's
        antiderivatives = chebyshev.chebint(self.coeffs, lbnd=-1.0) * (0.5 * np.diff(self.edges))
        self._table = np.hstack([np.pad(self.coeffs, ((0, 1), (0, 0))), antiderivatives])

    def __call__(self, times) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        if not self.complete and t.size and t.max() >= self.horizon:
            survival = series_survival_over_times(self.model, t.ravel(), self.model.h1_vector, self.trunc)
            return 1.0 - survival.reshape(t.shape)
        cdf, _ = self.cdf_and_areas(t.ravel(), (), ())
        return cdf.reshape(t.shape)

    def cdf_and_areas(self, times, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """F_f at one-dimensional times, and its integral over each piece
        [lo, hi], from one Clenshaw pass.

        Each piece lies in one panel p of the law, or at or past its
        horizon, as the pieces of a mesh cut at self.edges do. Its integral
        is G_p(hi) - G_p(lo), a difference at the panel's own scale with no
        quadrature (Trefethen, ATAP, chapter 19). Past the horizon F_f is
        1, as a complete law has it, so a piece there has the area hi - lo.
        Only the Chebyshev pieces are read: what lies at or past an
        incomplete law's end is for __call__, which reads a direct pass.
        """
        t, lo, hi = (np.asarray(v, dtype=float) for v in (times, lo, hi))
        points = np.concatenate([t, lo, hi])
        # each point's panel (the first or last for points outside the law)
        # and its table column: F_f's for the times, G_p's for both ends
        # of a piece, in the piece's panel
        panel = np.searchsorted(self.edges[1:-1], np.concatenate([t, lo, lo]), side="right")
        columns = panel + np.repeat([0, self.coeffs.shape[1]], [t.size, 2 * lo.size])
        start, end = self.edges[panel], self.edges[panel + 1]
        x2 = 2.0 * np.clip((2.0 * points - start - end) / (end - start), -1.0, 1.0)
        # Clenshaw's recurrence, one step per coefficient for every point
        c = self._table[:, columns]
        b1, b2 = c[-1], 0.0
        for c_k in c[-2:0:-1]:
            b1, b2 = c_k + x2 * b1 - b2, b1
        values = c[0] + 0.5 * x2 * b1 - b2
        cdf = np.where(t >= self.horizon, 1.0, np.clip(values[: t.size], 0.0, 1.0))
        at_lo, at_hi = np.split(values[t.size :], 2)
        return cdf, np.where(lo >= self.horizon, hi - lo, at_hi - at_lo)


def _law_horizon(model: SystemModel, trunc: TruncationConfig) -> tuple[float, bool]:
    """The failure law's horizon T, and whether the survival at T is below
    _LAW_TAIL.

    Degradation is at least the wear, so the survival is at most the
    wear-only bound prod_i P(wear_i(t) <= h1_i). At the first t = ts 2^j
    (ts the shortest wear timescale) where that bound is below _LAW_TAIL,
    one survival pass at t 2^-j, j = 0..8, gives the earliest of those
    times where the survival is below _LAW_TAIL. While the shock or
    mixture series cannot reach t within its term cap, t is halved.
    """
    comps = model.components
    t = min(c.h1 * c.beta / c.alpha for c in comps)
    while np.prod([special.gammainc(c.alpha * t, c.beta * c.h1) for c in comps]) >= _LAW_TAIL:
        t *= 2.0
    times = t * 0.5 ** np.arange(8, -1, -1)
    while True:
        try:
            survival = series_survival_over_times(model, times, model.h1_vector, trunc)
            break
        except TruncationCapError:
            times *= 0.5
    below = np.flatnonzero(survival < _LAW_TAIL)
    return (float(times[below[0]]), True) if below.size else (float(times[-1]), False)


@functools.lru_cache(maxsize=128)
def _cached_law(model: SystemModel, trunc: TruncationConfig) -> FailureLaw:
    return FailureLaw(model, trunc)


def failure_law(model: SystemModel, trunc: TruncationConfig | None = None) -> FailureLaw:
    """The FailureLaw of a model, built on first use and cached by value."""
    return _cached_law(model, trunc or DEFAULT_TRUNCATION)
