"""Per-component failure law: shock survival, degradation CDFs, and status regions.

A component wears continuously (gamma process with shape alpha*t and rate
beta) and receives damage jumps from system-wide shocks arriving as a
Poisson process. Each shock also carries a normally distributed magnitude
that destroys the component outright when it reaches the hard threshold d.
Total degradation is the wear plus the accumulated jump damage; crossing
the critical level h1 is a soft failure, and crossing the lower
on-condition level h2 marks the component for preventive replacement.

Given m shocks, the degradation is a sum of two gamma variates with
different rates, wear gamma(alpha*t, beta) and jumps gamma(m*y_alpha,
y_beta). Its CDF is evaluated without quadrature, as an exact
negative-binomial mixture of regularized incomplete gammas with a provable
truncation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, TruncationCapError
from .numerics import gamma_cdf, negligible_shape, std_normal_cdf

# unused here; perfbench/tracing.py wraps this module attribute by name
from .numerics import adaptive_integrate_vector  # noqa: F401

__all__ = [
    "ComponentParams",
    "SystemModel",
    "TruncationConfig",
    "shock_survival_prob",
    "pure_degradation_cdf",
    "damage_sum_density",
    "threshold_cdf_given_m",
    "threshold_cdf_block",
    "total_degradation_cdf",
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
    return std_normal_cdf((c.d - c.w_mu) / c.w_sigma)


def pure_degradation_cdf(c: ComponentParams, x: float, t: float) -> float:
    """Probability that continuous wear alone is at most x by time t."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return gamma_cdf(x, c.alpha * t, c.beta)


def damage_sum_density(c: ComponentParams, m: int, u):
    """Density of the sum of m i.i.d. damage jumps at u > 0.

    Gamma additivity for a common rate gives gamma(m * y_alpha, y_beta).
    Accepts a scalar or an array of evaluation points.
    """
    if m < 1:
        raise DomainError("damage_sum_density requires m >= 1; m = 0 is a point mass at 0")
    shape = m * c.y_alpha
    rate = c.y_beta
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0):
        raise DomainError("density is defined for u > 0 only")
    log_pdf = (
        shape * math.log(rate)
        + (shape - 1.0) * np.log(u_arr)
        - rate * u_arr
        - math.lgamma(shape)
    )
    out = np.exp(log_pdf)
    return float(out) if np.isscalar(u) or out.ndim == 0 else out


def threshold_cdf_given_m(c: ComponentParams, x: float, t: float, m: int) -> float:
    """Probability that wear plus m damage jumps is at most x by time t.

    Wear is gamma(alpha*t, beta) and the m jumps sum to
    gamma(m*y_alpha, y_beta), so this is the CDF of a sum of two gammas,
    evaluated as an exact negative-binomial mixture of incomplete gammas
    (see threshold_cdf_block).
    """
    if m < 0:
        raise DomainError(f"shock count must be >= 0, got {m}")
    return float(_cdfs_by_shock_count(c, x, t, int(m))[m])


def _cdfs_by_shock_count(c: ComponentParams, x, t: float, max_m: int) -> np.ndarray:
    """threshold_cdf_block at one time t: one level x, or levels on a leading axis."""
    levels = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(levels) & (levels >= 0.0)):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return threshold_cdf_block(c, levels, np.array([float(t)]), max_m)[..., 0]


def threshold_cdf_block(c: ComponentParams, x, times, max_m: int) -> np.ndarray:
    """threshold_cdf_given_m for every m = 0..max_m and every time at once.

    x is one level or an array of levels; the result has shape
    x.shape + (max_m + 1, len(times)). The m = 0 row is the wear CDF alone
    and the t = 0 columns the jump-sum CDF alone; every other cell is the
    exact gamma-sum mixture of _gamma_sum_cdf, one loop for all levels.
    """
    t = np.asarray(times, dtype=float)
    flat = np.asarray(x, dtype=float).reshape(-1, 1, 1)
    out = np.empty((flat.shape[0], max_m + 1, t.size))
    # no wear yet where the wear shape alpha * t is zero or subnormal
    at_zero = negligible_shape(c.alpha * t)
    # wear-only row: the degenerate shape is the point mass at zero
    out[:, 0, at_zero] = 1.0
    out[:, 0, ~at_zero] = np.clip(
        special.gammainc(c.alpha * t[~at_zero], c.beta * flat[:, 0]), 0.0, 1.0
    )
    if max_m > 0:
        jump_shapes = np.arange(1, max_m + 1)[:, None] * c.y_alpha
        # no wear yet at t = 0, only the jump sum
        out[:, 1:, at_zero] = special.gammainc(jump_shapes, c.y_beta * flat)
        t_pos = t[~at_zero]
        if t_pos.size:
            mixture = _gamma_sum_cdf(c.alpha * t_pos[None, :], c.beta, jump_shapes, c.y_beta, flat)
            out[:, 1:, ~at_zero] = np.clip(mixture, 0.0, 1.0)
    return out.reshape(np.shape(x) + out.shape[1:])


def _gamma_sum_cdf(shape_a, rate_a: float, shape_b, rate_b: float, x) -> np.ndarray:
    """P(A + B <= x) for independent A ~ gamma(shape_a, rate_a) and
    B ~ gamma(shape_b, rate_b), with positive shape arrays that broadcast
    together and levels x >= 0 on leading axes of their own.

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

    Only z, and with it P and d, carry the level axis: the weights, their
    ratios and the tail bounds depend on the slow shape alone, so every
    level shares one loop. Those small arrays are computed a chunk of terms
    at a time, the log weights as running sums of the log ratios (the same
    additions as term by term), and the loop over terms keeps only the
    full-array recurrence. A level x = 0 gives exactly 0.

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
    # math.log per level: numpy's vectorized log can differ from it in the last bit
    log_z = np.array([math.log(v) if v > 0.0 else -math.inf for v in z.flat]).reshape(z.shape)
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
            if (cdf * tail[j]).max(initial=0.0) <= _MIXTURE_EPS:
                return total
            total += w[j] * cdf
            cdf -= np.exp(log_d)
            s += 1.0
            log_d += log_z - np.log(s)
    raise TruncationCapError(
        f"gamma-sum mixture needs more than {MIXTURE_TERM_CAP} terms "
        f"for rate ratio {p} and slow shapes up to {float(slow.max())}"
    )


def total_degradation_cdf(
    c: ComponentParams,
    lam: float,
    x: float,
    t: float,
    trunc: TruncationConfig | None = None,
) -> float:
    """Probability that total degradation (wear + shock damage) is at most x by t."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"shock rate must be finite and >= 0, got {lam}")
    weights = poisson_weights(lam * t, trunc)
    below = _cdfs_by_shock_count(c, x, t, len(weights) - 1)
    total = float(np.dot(weights, below))
    return min(max(total, 0.0), 1.0)


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
    weights = poisson_weights(lam * t, trunc)
    max_m = len(weights) - 1
    # the m-th term also needs all m shocks survived
    alive = np.array(weights) * shock_survival_prob(c) ** np.arange(max_m + 1)
    below_h2, below_h1 = _cdfs_by_shock_count(c, [h2, c.h1], t, max_m)
    p_safe = float(np.dot(alive, below_h2))
    p_warn = float(np.dot(alive, np.maximum(below_h1 - below_h2, 0.0)))
    p_safe = min(max(p_safe, 0.0), 1.0)
    p_warn = min(max(p_warn, 0.0), 1.0 - p_safe)
    return p_safe, p_warn, 1.0 - p_safe - p_warn
