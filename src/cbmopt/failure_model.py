"""Per-component failure law: shock survival, degradation CDFs, and status regions.

A component wears continuously (gamma process with shape alpha*t and rate
beta) and receives damage jumps from system-wide shocks arriving as a
Poisson process. Each shock also carries a normally distributed magnitude
that destroys the component outright when it reaches the hard threshold d.
Total degradation is the wear plus the accumulated jump damage; crossing
the critical level h1 is a soft failure, and crossing the lower
on-condition level h2 marks the component for preventive replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, TruncationCapError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    adaptive_integrate_vector,
    gamma_cdf,
    std_normal_cdf,
)

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


def threshold_cdf_given_m(
    c: ComponentParams,
    x: float,
    t: float,
    m: int,
    tol: ToleranceConfig | None = None,
) -> float:
    """Probability that wear plus m damage jumps is at most x by time t.

    Computed as the convolution of the wear CDF with the m-fold damage
    density. When the damage shape m * y_alpha is below one the density has
    an integrable singularity at the origin, removed by the substitution
    u = v**(1/shape) before quadrature.
    """
    if m < 0:
        raise DomainError(f"shock count must be >= 0, got {m}")
    return float(_cdfs_by_shock_count(c, x, t, int(m), tol)[m])


def _cdfs_by_shock_count(
    c: ComponentParams, x: float, t: float, max_m: int, tol: ToleranceConfig | None
) -> np.ndarray:
    """threshold_cdf_given_m at one (x, t) for every m = 0..max_m."""
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return threshold_cdf_block(c, float(x), np.array([float(t)]), max_m, tol)[:, 0]


def threshold_cdf_block(
    c: ComponentParams,
    x: float,
    times,
    max_m: int,
    tol: ToleranceConfig | None = None,
) -> np.ndarray:
    """threshold_cdf_given_m for every m = 0..max_m and every time at once.

    All jump counts share one set of quadrature nodes: substituting
    u = v**(1/y_alpha) turns the m-jump density into v**(m-1) times a
    smooth factor, which removes the origin singularity for every m
    simultaneously. One vectorized refinement loop then serves the whole
    (jump count, time) grid, which is far cheaper than separate quadratures
    because the integrand evaluations are dominated by call overhead.
    Returns an array of shape (max_m + 1, len(times)).
    """
    tol = tol or DEFAULT_TOL
    t = np.asarray(times, dtype=float)
    out = np.empty((max_m + 1, t.size))
    # no wear yet where the wear shape alpha * t is zero, which includes
    # subnormal times whose product with alpha underflows
    at_zero = c.alpha * t == 0.0
    # wear-only row: the degenerate shape is the point mass at zero
    out[0, at_zero] = 1.0
    out[0, ~at_zero] = np.clip(
        special.gammainc(c.alpha * t[~at_zero], c.beta * x), 0.0, 1.0
    )
    if max_m == 0:
        return out
    if x == 0.0:
        out[1:].fill(0.0)
        return out
    ms = np.arange(1, max_m + 1)
    shapes = ms * c.y_alpha
    # no wear yet at t = 0, only the jump sum
    jump_cdf = special.gammainc(shapes, c.y_beta * x)
    out[1:, at_zero] = jump_cdf[:, None]
    t_pos = t[~at_zero]
    if t_pos.size == 0:
        return out

    wear_shapes = c.alpha * t_pos
    wear_rate = c.beta
    jump_rate = c.y_beta
    q = 1.0 / c.y_alpha
    # per-m normalization of the transformed density q * v^(m-1) * exp(...)
    log_norm = (
        shapes * math.log(jump_rate)
        - special.gammaln(shapes)
        + math.log(q)
    )
    n_t = t_pos.size
    n_m = ms.size

    def integrand(v):
        v = np.asarray(v, dtype=float)
        u = np.minimum(v**q, x)
        wear = special.gammainc(wear_shapes[:, None], wear_rate * (x - u)[None, :])
        log_v = np.log(v)
        density = np.exp(
            log_norm[:, None]
            - jump_rate * u[None, :]
            + (ms - 1)[:, None] * log_v[None, :]
        )
        block = wear[None, :, :] * density[:, None, :]
        return block.reshape(n_m * n_t, v.size)

    hi = x ** c.y_alpha
    # the wear CDF has a corner where its argument vanishes, so seed the
    # mesh geometrically toward the right endpoint
    mesh = [hi * (1.0 - 0.5**j) for j in range(1, 9)]
    values, _ = adaptive_integrate_vector(
        integrand, 0.0, hi, n_m * n_t, tol, breakpoints=mesh
    )
    out[1:, ~at_zero] = np.clip(values.reshape(n_m, n_t), 0.0, 1.0)
    return out


def total_degradation_cdf(
    c: ComponentParams,
    lam: float,
    x: float,
    t: float,
    trunc: TruncationConfig | None = None,
    tol: ToleranceConfig | None = None,
) -> float:
    """Probability that total degradation (wear + shock damage) is at most x by t."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"shock rate must be finite and >= 0, got {lam}")
    weights = poisson_weights(lam * t, trunc)
    below = _cdfs_by_shock_count(c, x, t, len(weights) - 1, tol)
    total = float(np.dot(weights, below))
    return min(max(total, 0.0), 1.0)


def event_probabilities(
    c: ComponentParams,
    lam: float,
    t: float,
    h2: float,
    trunc: TruncationConfig | None = None,
    tol: ToleranceConfig | None = None,
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
    below_h2 = _cdfs_by_shock_count(c, h2, t, max_m, tol)
    below_h1 = _cdfs_by_shock_count(c, c.h1, t, max_m, tol)
    p_safe = float(np.dot(alive, below_h2))
    p_warn = float(np.dot(alive, np.maximum(below_h1 - below_h2, 0.0)))
    p_safe = min(max(p_safe, 0.0), 1.0)
    p_warn = min(max(p_warn, 0.0), 1.0 - p_safe)
    return p_safe, p_warn, 1.0 - p_safe - p_warn
