"""The negligible gamma shape test and the downtime integral's adaptive
Gauss-Kronrod quadrature.

Everything here is deterministic given its inputs. The gamma distribution
is parameterized by (shape, rate) throughout: the mean of a gamma(shape,
rate) variate is shape/rate. The gamma and normal CDFs themselves are
scipy's special.gammainc and special.ndtr, called where they are needed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IntegrationError

__all__ = ["negligible_shape", "kronrod_nodes", "adaptive_integrate"]


def negligible_shape(shape):
    """True where a gamma shape (a float or an array) is zero or subnormal.

    The gamma law is then the point mass at zero to double precision, but
    scipy's gammainc returns 0 at subnormal shapes for arguments below
    about 1, so callers take the CDF as 1 there.
    """
    return shape < np.finfo(float).tiny


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

# the downtime expectation is consumed at Monte Carlo noise scales, so the
# integral stops at a relative error of 1e-8 (or an absolute one of 1e-12);
# one call splits at most _MAX_SPLITS panels in all
_REL_TOL = 1e-8
_ABS_TOL = 1e-12
_MAX_SPLITS = 60


def kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Gauss-Kronrod nodes of each panel [lo, hi], shape (P, 15)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return center[:, None] + half[:, None] * _GK_NODES[None, :]


def _kronrod(y, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and error estimate of each panel, from the integrand
    at its nodes. The error heuristic trusts the Gauss/Kronrod difference
    only when the integrand is smooth relative to its own variation on the
    panel."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise IntegrationError("integrand returned a non-finite value")
    half = 0.5 * (hi - lo)
    y = y.reshape(lo.size, 15)
    resk = half * (y @ _GK_WEIGHTS_K)
    resg = half * (y @ _GK_WEIGHTS_G)
    mean = resk / (hi - lo)
    resasc = half * (np.abs(y - mean[:, None]) @ _GK_WEIGHTS_K)
    diff = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (diff > 0.0), scaled, diff)
    return resk, err


def adaptive_integrate(f: Callable, lo: np.ndarray, hi: np.ndarray, y) -> float:
    """Integrate f over the panels [lo, hi] by adaptive Gauss-Kronrod
    bisection.

    y holds f at kronrod_nodes(lo, hi), shape (P, 15), so a caller that has
    those values from other work passes them in; f, which maps a flat
    array of nodes to an array of the same shape, is called only on the
    panels that refinement splits. Endpoints are never evaluated, so
    integrable endpoint singularities are allowed. Raises IntegrationError
    on a non-finite integrand value, when the split budget runs out before
    the tolerance is met, or when the panels to split reach floating point
    resolution.
    """
    vals, errs = _kronrod(y, lo, hi)
    budget = _MAX_SPLITS
    while True:
        total = vals.sum()
        total_err = errs.sum()
        bound = max(_ABS_TOL, _REL_TOL * abs(total))
        if total_err <= bound:
            return float(total)
        if budget <= 0:
            raise IntegrationError(f"tolerance not met after {_MAX_SPLITS} subdivisions")
        # split every panel whose error exceeds its fair share of the
        # budget; wide fronts cost little because evaluations are batched
        score = errs / bound
        pick = np.flatnonzero(score >= 1.0 / (2.0 * score.size))
        pick = pick[np.argsort(score[pick])[::-1][:budget]]
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        mid = 0.5 * (lo[pick] + hi[pick])
        # panels already at floating point resolution cannot improve
        splittable = (mid > lo[pick]) & (mid < hi[pick])
        stuck = pick[~splittable]
        errs[stuck] = 0.0
        keep[stuck] = True
        pick = pick[splittable]
        if pick.size == 0:
            if errs.sum() <= bound:
                return float(vals.sum())
            raise IntegrationError("interval refinement reached floating point resolution")
        mid = mid[splittable]
        new_lo = np.concatenate([lo[pick], mid])
        new_hi = np.concatenate([mid, hi[pick]])
        budget -= pick.size
        new_vals, new_errs = _kronrod(f(kronrod_nodes(new_lo, new_hi).ravel()), new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
