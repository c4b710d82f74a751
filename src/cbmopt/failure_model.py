"""Per-component failure law: shock survival, the degradation CDF block, status regions.

A component wears continuously (gamma process with shape alpha*t and rate
beta) and receives damage jumps from system-wide shocks arriving as a
Poisson process. Each shock also carries a normally distributed magnitude
that destroys the component outright when it reaches the hard threshold d.
Total degradation is the wear plus the accumulated jump damage; crossing
the critical level h1 is a soft failure, and crossing the lower
on-condition level h2 marks the component for preventive replacement.

Given m shocks, the degradation is a sum of two gamma variates with
different rates, wear gamma(alpha*t, beta) and jumps gamma(m*y_alpha,
y_beta). threshold_cdf_block evaluates its CDF for every shock count and
time at once, without quadrature, as an exact negative-binomial mixture of
regularized incomplete gammas with a provable truncation bound; its m = 0
row is the wear CDF alone. Series survival, the cost rate and the status
probabilities all read the law through that block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, TruncationCapError
from .numerics import negligible_shape

# unused here; perfbench/tracing.py wraps this module attribute by name
from .numerics import adaptive_integrate as adaptive_integrate_vector  # noqa: F401

__all__ = [
    "ComponentParams",
    "SystemModel",
    "TruncationConfig",
    "shock_survival_prob",
    "threshold_cdf_block",
    "event_probabilities",
    "poisson_weights",
]


@dataclass(frozen=True)
class ComponentParams:
    """Degradation, shock-damage, and threshold parameters of one component.

    h1      critical soft-failure degradation level (volume units)
    d       hard-failure shock magnitude threshold (stress units)
    alpha   wear shape rate per hour; wear at time t is gamma(alpha*t, beta)
    beta    wear rate parameter per volume unit
    y_alpha, y_beta   gamma(shape, rate) law of one shock's damage jump
    w_mu, w_sigma     normal law of one shock's magnitude
    """

    name: str
    h1: float
    d: float
    alpha: float
    beta: float
    y_alpha: float
    y_beta: float
    w_mu: float
    w_sigma: float

    def __post_init__(self):
        positive = {
            "h1": self.h1,
            "d": self.d,
            "alpha": self.alpha,
            "beta": self.beta,
            "y_alpha": self.y_alpha,
            "y_beta": self.y_beta,
            "w_sigma": self.w_sigma,
        }
        for field, value in positive.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{field} must be finite and positive, got {value}")
        if not math.isfinite(self.w_mu):
            raise DomainError(f"w_mu must be finite, got {self.w_mu}")


@dataclass(frozen=True)
class SystemModel:
    """Ordered series system of components sharing one shock stream of rate lam."""

    components: tuple[ComponentParams, ...]
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise DomainError("a system needs at least one component")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise DomainError(f"shock rate must be finite and >= 0, got {self.lam}")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def h1_vector(self) -> tuple[float, ...]:
        return tuple(c.h1 for c in self.components)


@dataclass(frozen=True)
class TruncationConfig:
    """Cutoff rule for the infinite sums over the shock count."""

    poisson_tail_eps: float = 1e-12
    m_max_cap: int = 200

    def __post_init__(self):
        if not (0.0 < self.poisson_tail_eps < 1.0):
            raise DomainError("poisson_tail_eps must lie in (0, 1)")
        if self.m_max_cap < 0:
            raise DomainError("m_max_cap must be nonnegative")


DEFAULT_TRUNCATION = TruncationConfig()

# _gamma_sum_cdf stops once the terms it leaves unsummed add up to at most
# _MIXTURE_EPS in every cell
_MIXTURE_EPS = 1e-15
# terms one mixture may take before it raises TruncationCapError
MIXTURE_TERM_CAP = 10_000
# _gamma_sum_cdf computes the weights of up to _MIXTURE_CHUNK terms at once,
# halving that while the chunk would hold more than _MIXTURE_CHUNK_CELLS values
_MIXTURE_CHUNK, _MIXTURE_CHUNK_CELLS = 16, 1024


def poisson_weights(mu: float, trunc: TruncationConfig | None = None) -> list[float]:
    """Poisson(mu) pmf values for m = 0..M, cut once the tail drops below eps."""
    trunc = trunc or DEFAULT_TRUNCATION
    if not (math.isfinite(mu) and mu >= 0.0):
        raise DomainError(f"Poisson mean must be finite and >= 0, got {mu}")
    if mu == 0.0:
        return [1.0]
    term = math.exp(-mu)
    weights = [term]
    cumulative = term
    m = 0
    while 1.0 - cumulative >= trunc.poisson_tail_eps:
        m += 1
        if m > trunc.m_max_cap:
            raise TruncationCapError(
                f"shock-count series needs more than {trunc.m_max_cap} terms "
                f"for mean {mu} at tail eps {trunc.poisson_tail_eps}"
            )
        term *= mu / m
        cumulative += term
        weights.append(term)
    return weights


def shock_survival_prob(c: ComponentParams) -> float:
    """Probability that one shock's magnitude stays below the hard threshold."""
    return float(special.ndtr((c.d - c.w_mu) / c.w_sigma))


def threshold_cdf_block(c: ComponentParams, x, times, max_m: int, segments=None) -> np.ndarray:
    """P(wear(t) + m damage jumps <= x) for every m = 0..max_m and every
    time t at once.

    Wear is gamma(alpha*t, beta) and the m jumps sum to gamma(m*y_alpha,
    y_beta). times is one-dimensional, and the levels x broadcast against
    it: one level, one level per time, or levels of shape (L, 1) to take L
    levels at every time. The result has shape (max_m + 1,) followed by the
    broadcast shape of x and times. The m = 0 row is the wear CDF alone and
    the t = 0 columns the jump-sum CDF alone; every other cell is the exact
    gamma-sum mixture of _gamma_sum_cdf, one loop for all of them.

    segments, a list of (length, own max_m) pairs that split the times into
    consecutive runs, makes each run's cells bit for bit those of a call on
    that run alone with its own max_m: the mixture stops for each run where
    that call would stop. A run's rows past its own max_m hold values in
    [0, 1] that mean nothing.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty((max_m + 1,) + np.broadcast(x, t).shape)
    # no wear yet where the wear shape alpha * t is zero or subnormal
    at_zero = negligible_shape(c.alpha * t)
    worn = ~at_zero

    def levels(columns):  # x at the chosen times, where x varies with time
        return x[..., columns] if x.ndim and x.shape[-1] == t.size else x

    # wear-only row: the degenerate shape is the point mass at zero
    out[0][..., at_zero] = 1.0
    out[0][..., worn] = np.clip(
        special.gammainc(c.alpha * t[worn], c.beta * levels(worn)), 0.0, 1.0
    )
    if max_m > 0:
        jump_shapes = np.arange(1, max_m + 1).reshape((-1,) + (1,) * (out.ndim - 1)) * c.y_alpha
        # no wear yet at t = 0, only the jump sum
        out[1:, ..., at_zero] = special.gammainc(jump_shapes, c.y_beta * levels(at_zero))
        if worn.any():
            runs = None if segments is None else _mixture_runs(segments, worn, jump_shapes)
            mixture = _gamma_sum_cdf(
                c.alpha * t[worn], c.beta, jump_shapes, c.y_beta, levels(worn), runs
            )
            out[1:, ..., worn] = np.clip(mixture, 0.0, 1.0)
    return out


def _mixture_runs(segments, worn: np.ndarray, jump_shapes: np.ndarray):
    """The runs argument of _gamma_sum_cdf for the worn times of
    threshold_cdf_block's segments: the start of each run that has a worn
    time, and which cells count toward their run's stop (None if all do)."""
    lengths, own = np.array(segments).T
    worn_before = np.concatenate([[0], np.cumsum(worn)])
    starts = worn_before[np.cumsum(lengths) - lengths]
    sizes = worn_before[np.cumsum(lengths)] - starts
    kept = sizes > 0
    # the row of jump count m counts up to each run's own max_m
    m = np.arange(1, jump_shapes.shape[0] + 1).reshape(jump_shapes.shape)
    counted = m <= np.repeat(own[kept], sizes[kept])
    return starts[kept], None if counted.all() else counted


def _gamma_sum_cdf(shape_a, rate_a: float, shape_b, rate_b: float, x, runs=None) -> np.ndarray:
    """P(A + B <= x) for independent A ~ gamma(shape_a, rate_a) and
    B ~ gamma(shape_b, rate_b), with positive shape arrays and levels
    x >= 0 that all broadcast together.

    The law with the slower rate r_s is an exact negative-binomial mixture
    of gammas with the faster rate r_f (Moschopoulos, Ann. Inst. Stat.
    Math. 37, 1985): gamma(a_s, r_s) = sum_k w_k gamma(a_s + k, r_f), with
    w the NB(a_s, p) pmf and p = r_s / r_f. Adding the other gamma gives
    F = sum_k w_k P(a + k, z), where a = shape_a + shape_b, z = r_f * x and
    P is the regularized lower incomplete gamma. One gammainc call per cell
    starts the sum; after it P(s + 1, z) = P(s, z) - d(s) with
    d(s) = z^s e^-z / Gamma(s + 1), and w_{k+1} = w_k (a_s + k) / (k + 1) (1 - p).
    The weights are carried in log space from k = 0, since w_0 = p^a_s
    underflows once a_s |ln p| exceeds about 745; so is d, which can rise
    from below the double range to order one along the sum.

    Only z, and with it P and d, depend on the levels: the weights, their
    ratios and the tail bounds depend on the slow shape alone, so levels on
    an axis of their own share one loop. Those small arrays are computed a
    chunk of terms at a time, the log weights as running sums of the log
    ratios (the same additions as term by term), and the loop over terms
    keeps only the full-array recurrence. A level x = 0 gives exactly 0.

    The sum stops before term k once P(a + k, z) min(1, w_k / (1 - rho))
    <= _MIXTURE_EPS in every cell, rho being the largest ratio w_{j+1} / w_j
    over j >= k: P falls as its shape grows and the NB weight from k on is
    at most min(1, w_k / (1 - rho)), so this bounds the unsummed terms.
    Raises TruncationCapError when that takes more than MIXTURE_TERM_CAP
    terms. The count grows like the NB mean plus eight NB standard
    deviations, (a_s q + 8 sqrt(a_s q)) / p with q = 1 - p, and is smaller
    where x lies below the mean of A + B, as P then falls below the bound
    first. At x three times that mean the cap admits slow shapes a_s up to
    about 8,900 at p = 0.5, 1,400 at p = 0.15, 850 at p = 0.1, 350 at
    p = 0.05, 33 at p = 0.01 and 3 at p = 0.001; wider rate ratios or
    larger slow shapes raise.

    runs = (starts, counted) splits the last axis of the cells into runs
    that start at starts, and the sum then stops for each run on its own
    cells, where it would stop on that run alone; a run that has stopped
    leaves the arrays, so it costs no further work. Cells where counted is
    false (None: nowhere) have no say in their run's stop and return
    values that mean nothing.
    """
    if rate_a > rate_b:
        shape_a, rate_a, shape_b, rate_b = shape_b, rate_b, shape_a, rate_a
    slow = np.asarray(shape_a, dtype=float)
    s = slow + shape_b
    z = rate_b * np.asarray(x, dtype=float)
    p = rate_a / rate_b
    if p == 1.0:
        return special.gammainc(s, z)
    q = 1.0 - p
    cdf = special.gammainc(s, z)
    if runs is not None:
        starts, counted = runs
        if counted is not None:
            # a cell that starts at 0 keeps a bound <= 0
            cdf = np.where(counted, cdf, 0.0)
        sizes = np.diff(np.append(starts, cdf.shape[-1]))
        columns = np.arange(cdf.shape[-1])  # where each column of the sum goes
        lead = tuple(range(cdf.ndim - 1))
        out = np.empty_like(cdf)
    log_z = _log_levels(z)
    log_d = s * log_z - z - special.gammaln(s + 1.0)
    total = np.zeros_like(cdf)
    log_w = slow * math.log(p)
    rows = _MIXTURE_CHUNK
    while rows > 1 and rows * slow.size > _MIXTURE_CHUNK_CELLS:
        rows //= 2
    k_axis = np.arange(rows).reshape((-1,) + (1,) * slow.ndim)
    for k0 in range(0, MIXTURE_TERM_CAP, rows):
        ks = k0 + k_axis
        ratio = q * (slow + ks) / (ks + 1.0)
        log_ws = [log_w]  # a running sum: numpy's cumsum over this axis is slow
        for log_r in np.log(ratio):
            log_ws.append(log_ws[-1] + log_r)
        w, log_w = np.exp(log_ws[:-1]), log_ws[-1]
        # the ratios tend to q, from above when a_s > 1 and from below otherwise
        rho = np.maximum(ratio, q)
        tail = np.minimum(np.divide(w, 1.0 - rho, out=np.ones_like(w), where=rho < 1.0), 1.0)
        for j in range(rows):
            if runs is None:
                if (cdf * tail[j]).max(initial=0.0) <= _MIXTURE_EPS:
                    return total
            else:
                bounds = np.maximum.reduceat((cdf * tail[j]).max(axis=lead), starts)
                if bounds.min() <= _MIXTURE_EPS:
                    # the runs that stop leave every array with a column axis
                    ending = bounds <= _MIXTURE_EPS
                    done = np.repeat(ending, sizes)
                    out[..., columns[done]] = total[..., done]
                    if done.all():
                        return out
                    n, keep = columns.size, ~done
                    cdf, log_d, s, total, log_z, slow, log_w, w, tail = (
                        a[..., keep] if a.shape[-1] == n else a
                        for a in (cdf, log_d, s, total, log_z, slow, log_w, w, tail)
                    )
                    columns, sizes = columns[keep], sizes[~ending]
                    starts = np.cumsum(sizes) - sizes
            total += w[j] * cdf
            cdf -= np.exp(log_d)
            s += 1.0
            log_d += log_z - np.log(s)
    raise TruncationCapError(
        f"gamma-sum mixture needs more than {MIXTURE_TERM_CAP} terms "
        f"for rate ratio {p} and slow shapes up to {float(slow.max())}"
    )


def _log_levels(z: np.ndarray) -> np.ndarray:
    """math.log of each level, -inf at 0; numpy's vectorized log can differ
    from it in the last bit.

    Levels given one per time repeat a few values over long runs, so the
    log is taken once per run there. Finding the runs costs about 4 us, more
    than the logs of up to 32 levels, so smaller arrays (the empty one
    among them) take the log of each level.
    """
    def logs(values):
        return np.array([math.log(v) if v > 0.0 else -math.inf for v in values.tolist()])

    flat = z.ravel()
    if flat.size <= 32:
        return logs(flat).reshape(z.shape)
    starts = np.empty(flat.size, dtype=bool)
    starts[0] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    return logs(flat[starts])[starts.cumsum() - 1].reshape(z.shape)


def event_probabilities(
    c: ComponentParams,
    lam: float,
    t: float,
    h2: float,
    trunc: TruncationConfig | None = None,
) -> tuple[float, float, float]:
    """Status-region probabilities (safe, warning, failed) at time t.

    Safe: every shock survived and total degradation below h2.
    Warning: every shock survived and total degradation in [h2, h1).
    Failed: complement (a hard failure or degradation at h1 or above).
    The failed probability is computed as 1 - safe - warning so the three
    sum to one exactly.
    """
    if not (0.0 <= h2 <= c.h1):
        raise DomainError(f"h2 must lie in [0, h1]; got h2={h2}, h1={c.h1}")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"shock rate must be finite and >= 0, got {lam}")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    weights = poisson_weights(lam * t, trunc)
    max_m = len(weights) - 1
    # the m-th term also needs all m shocks survived
    alive = np.array(weights) * shock_survival_prob(c) ** np.arange(max_m + 1)
    block = threshold_cdf_block(c, np.array([[h2], [c.h1]]), np.array([float(t)]), max_m)
    below_h2, below_h1 = block[..., 0].T
    p_safe = float(np.dot(alive, below_h2))
    p_warn = float(np.dot(alive, np.maximum(below_h1 - below_h2, 0.0)))
    p_safe = min(max(p_safe, 0.0), 1.0)
    p_warn = min(max(p_warn, 0.0), 1.0 - p_safe)
    return p_safe, p_warn, 1.0 - p_safe - p_warn
