"""Special functions and adaptive quadrature.

Everything here is deterministic given its inputs. The gamma distribution
is parameterized by (shape, rate) throughout: the mean of a gamma(shape,
rate) variate is shape/rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError, IntegrationError

__all__ = [
    "ToleranceConfig",
    "regularized_lower_gamma",
    "gamma_cdf",
    "negligible_shape",
    "std_normal_cdf",
    "adaptive_integrate",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Accuracy targets for adaptive quadrature."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


DEFAULT_TOL = ToleranceConfig()


def regularized_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x), the gamma(shape, 1) CDF."""
    if not math.isfinite(shape) or shape <= 0.0:
        raise DomainError(f"shape must be finite and positive, got {shape}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and nonnegative, got {x}")
    return float(special.gammainc(shape, x))


def negligible_shape(shape):
    """True where a gamma shape (a float or an array) is zero or subnormal.

    The gamma law is then the point mass at zero to double precision, but
    scipy's gammainc returns 0 at subnormal shapes for arguments below
    about 1, so callers take the CDF as 1 there.
    """
    return shape < np.finfo(float).tiny


def gamma_cdf(x: float, shape: float, rate: float) -> float:
    """CDF of the gamma(shape, rate) law at x.

    A negligible shape is the point mass at zero, so the CDF is 1 for any x >= 0.
    """
    if not math.isfinite(rate) or rate <= 0.0:
        raise DomainError(f"rate must be finite and positive, got {rate}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and nonnegative, got {x}")
    if shape < 0.0 or not math.isfinite(shape):
        raise DomainError(f"shape must be finite and nonnegative, got {shape}")
    if negligible_shape(shape):
        return 1.0
    return regularized_lower_gamma(shape, rate * x)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    return float(special.ndtr(z))


# Gauss-Kronrod 7-15 nodes on [-1, 1]; Gauss weights are zero on the
# Kronrod-only nodes so both rules share one integrand evaluation.
_GK_NODES = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_GK_WEIGHTS_K = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_GK_WEIGHTS_G = np.zeros(15)
_GK_WEIGHTS_G[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]


def _initial_mesh(a: float, b: float, breakpoints) -> tuple[np.ndarray, np.ndarray]:
    if not breakpoints:
        return np.array([a]), np.array([b])
    points = [a] + [p for p in sorted(breakpoints) if a < p < b] + [b]
    edges = np.array(points)
    return edges[:-1], edges[1:]


def adaptive_integrate(
    f: Callable,
    a: float,
    b: float,
    tol: ToleranceConfig | None = None,
    breakpoints: "list[float] | None" = None,
) -> tuple[float, float]:
    """Integrate f over [a, b] with adaptive Gauss-Kronrod bisection.

    The integrand is called with a flat numpy array of nodes (possibly from
    several intervals at once) and must return an array of the same shape;
    it runs on adaptive_integrate_vector with one component. Endpoints are
    never evaluated, so integrable endpoint singularities are allowed.
    Optional breakpoints seed the initial mesh where the integrand is known
    to be rough. Returns (value, error estimate) and raises
    IntegrationError if the subdivision budget runs out before the
    requested tolerance is met.
    """
    values, errors = adaptive_integrate_vector(
        lambda x: np.reshape(f(x), (1, -1)), a, b, 1, tol, breakpoints
    )
    return float(values[0]), float(errors[0])


def adaptive_integrate_vector(
    f: Callable,
    a: float,
    b: float,
    n_out: int,
    tol: ToleranceConfig | None = None,
    breakpoints: "list[float] | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a vector-valued integrand over a shared domain [a, b].

    f maps a flat array of K nodes to an (n_out, K) array; all components
    are integrated on one adaptively refined grid, driven by the component
    furthest from its tolerance. Useful when the integrands differ only by
    a cheap parameter. Returns (values, error estimates), both of length n_out.
    """
    tol = tol or DEFAULT_TOL
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a > b:
        raise DomainError(f"requires a <= b, got a={a}, b={b}")
    if a == b:
        return np.zeros(n_out), np.zeros(n_out)

    lo, hi = _initial_mesh(a, b, breakpoints)
    vals, errs = _eval_panels(f, lo, hi, n_out)  # (P, n_out) each
    budget = tol.max_subdivisions
    while True:
        totals = vals.sum(axis=0)
        total_errs = errs.sum(axis=0)
        bounds = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(totals))
        if np.all(total_errs <= bounds):
            return totals, total_errs
        if budget <= 0:
            raise IntegrationError(
                f"tolerance not met after {tol.max_subdivisions} subdivisions "
                f"for {int(np.sum(total_errs > bounds))} of {n_out} components"
            )
        # refine every interval whose error exceeds its fair share of the
        # budget; wide fronts cost little because evaluations are batched
        score = (errs / bounds[None, :]).max(axis=1)
        pick = np.flatnonzero(score >= 1.0 / (2.0 * score.size))
        pick = pick[np.argsort(score[pick])[::-1][:budget]]
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        mid = 0.5 * (lo[pick] + hi[pick])
        # intervals already at floating point resolution cannot improve
        splittable = (mid > lo[pick]) & (mid < hi[pick])
        stuck = pick[~splittable]
        errs[stuck, :] = 0.0
        keep[stuck] = True
        pick = pick[splittable]
        if pick.size == 0:
            total_errs = errs.sum(axis=0)
            if np.all(total_errs <= bounds):
                return vals.sum(axis=0), total_errs
            raise IntegrationError(
                "interval refinement reached floating point resolution"
            )
        mid = mid[splittable]
        new_lo = np.concatenate([lo[pick], mid])
        new_hi = np.concatenate([mid, hi[pick]])
        budget -= pick.size
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi, n_out)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def _eval_panels(f: Callable, lo, hi, n_out):
    """Kronrod rule for a vector-valued integrand on a batch of intervals.

    Returns per-interval (integral, error estimate). The error heuristic
    trusts the Gauss/Kronrod difference only when the integrand is smooth
    relative to its own variation on the interval.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = center[:, None] + half[:, None] * _GK_NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape != (n_out, x.size):
        raise IntegrationError(
            f"vector integrand returned shape {y.shape}, expected {(n_out, x.size)}"
        )
    if not np.all(np.isfinite(y)):
        raise IntegrationError("integrand returned a non-finite value")
    y = y.reshape(n_out, lo.size, 15)
    resk = half[None, :] * (y @ _GK_WEIGHTS_K)
    resg = half[None, :] * (y @ _GK_WEIGHTS_G)
    mean = resk / (hi - lo)[None, :]
    resasc = half[None, :] * (np.abs(y - mean[:, :, None]) @ _GK_WEIGHTS_K)
    diff = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (diff > 0.0), scaled, diff)
    return resk.T, err.T  # (P, n_out)
