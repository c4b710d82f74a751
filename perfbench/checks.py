"""Correctness checks computed apart from cbmopt.

Each check takes plain numbers (component parameters are read by
attribute) and returns a list of failure messages, empty when the check
holds. The references use scipy and numpy only: wear-only survival from
``scipy.special.gammainc``, convolutions from ``scipy.integrate.quad``,
and the Dvoretzky-Kiefer-Wolfowitz bound for empirical CDFs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# slack for values the library computes by quadrature with rel_tol 1e-9
# and abs_tol 1e-12 per convolution, summed over a few components
SURVIVAL_TOL = 1e-8
# confidence for the DKW band of one empirical CDF
DKW_DELTA = 1e-6


def wear_survival(components, thresholds, times) -> np.ndarray:
    """Product over components of P(wear alone stays below its threshold)."""
    t = np.asarray(times, dtype=float)
    out = np.ones_like(t)
    positive = t > 0.0
    for c, x in zip(components, thresholds):
        out[positive] *= special.gammainc(c.alpha * t[positive], c.beta * x)
    return out


def survival_bracket(components, lam, thresholds, times, survival, label) -> list[str]:
    """exp(-lam t) * prod G_i(t) <= S(t) <= prod G_i(t), and S nonincreasing."""
    t = np.asarray(times, dtype=float)
    s = np.asarray(survival, dtype=float)
    upper = wear_survival(components, thresholds, t)
    lower = np.exp(-lam * t) * upper
    errors = []
    below = np.flatnonzero(s < lower - SURVIVAL_TOL)
    above = np.flatnonzero(s > upper + SURVIVAL_TOL)
    for name, bad, bound in (("below", below, lower), ("above", above, upper)):
        if bad.size:
            i = bad[0]
            errors.append(
                f"{label}: survival {s[i]!r} {name} its bracket {bound[i]!r} at t={t[i]!r} "
                f"({bad.size} points)"
            )
    rises = np.flatnonzero(np.diff(s) > SURVIVAL_TOL)
    if rises.size:
        i = rises[0]
        errors.append(f"{label}: survival rises from {s[i]!r} to {s[i + 1]!r} after t={t[i]!r}")
    return errors


def detection_dominates(failure_cdf, detection_cdf, label) -> list[str]:
    """The detection time comes no later than the failure time."""
    gap = np.asarray(failure_cdf, dtype=float) - np.asarray(detection_cdf, dtype=float)
    bad = np.flatnonzero(gap > SURVIVAL_TOL)
    if bad.size:
        return [f"{label}: detection CDF below failure CDF by {gap[bad[0]]!r} at index {bad[0]}"]
    return []


def convolution_reference(c, x, t, m) -> tuple[float, float]:
    """P(wear(t) + m jumps <= x) by quad of the wear CDF against the m-jump
    gamma density; the density's u^(a-1) factor is the quadrature weight."""
    a = m * c.y_alpha
    log_scale = a * math.log(c.y_beta) - math.lgamma(a)

    def smooth(u):
        wear = special.gammainc(c.alpha * t, c.beta * (x - u)) if t > 0.0 else 1.0
        return wear * math.exp(log_scale - c.y_beta * u)

    value, error = integrate.quad(
        smooth, 0.0, x, weight="alg", wvar=(a - 1.0, 0.0), epsabs=1e-13, epsrel=1e-11, limit=200
    )
    return value, error


def convolution_oracle(c, x, t, m, value, label) -> list[str]:
    reference, error = convolution_reference(c, x, t, m)
    if abs(value - reference) > 1e-8 + error:
        return [f"{label}: block {value!r} vs quad {reference!r} at x={x!r}, t={t!r}, m={m}"]
    return []


def inspections_without_shocks(components, tau, h2, tail=1e-15) -> float:
    """1 + sum_k prod_i G_i(k tau; h2_i): the mean inspection count when
    only wear acts."""
    total = 1.0
    k = 1
    while True:
        term = float(wear_survival(components, h2, [k * tau])[0])
        total += term
        if term < tail:
            return total
        k += 1


def lambda_zero_twin(components, tau, h2, e_ni, label) -> list[str]:
    reference = inspections_without_shocks(components, tau, h2)
    if abs(e_ni - reference) > 1e-8 * reference:
        return [f"{label}: e_ni {e_ni!r} vs wear-only series {reference!r}"]
    return []


def downtime_bounds(components, lam, tau) -> tuple[float, float, float]:
    """(low, high, slack) for e_rho when all failure mass lies in [0, tau]:
    then e_rho = int_0^tau F(t) dt, and the survival bracket brackets F."""
    h1 = [c.h1 for c in components]

    def upper_survival(t):
        return float(wear_survival(components, h1, [t])[0])

    low, low_err = integrate.quad(lambda t: 1.0 - upper_survival(t), 0.0, tau, limit=400)
    high, high_err = integrate.quad(
        lambda t: 1.0 - math.exp(-lam * t) * upper_survival(t), 0.0, tau, limit=400
    )
    # the library's time integral runs at rel_tol 1e-8 and its CDF at 1e-7
    return low, high, 1e-7 * tau + low_err + high_err


def downtime_bracket(components, lam, tau, e_rho, label) -> list[str]:
    low, high, slack = downtime_bounds(components, lam, tau)
    if not (low - slack <= e_rho <= high + slack):
        return [f"{label}: e_rho {e_rho!r} outside [{low!r}, {high!r}] (slack {slack:.3g})"]
    return []


def no_worse(value, reference, label, what) -> list[str]:
    if not value <= reference * (1.0 + 1e-12):
        return [f"{label}: optimum {value!r} worse than {what} {reference!r}"]
    return []


def inspections_agree(mean, sample_var, n, e_ni, label) -> list[str]:
    """Simulated mean inspection count within 4 standard errors of e_ni.

    The variance is at least f(1 - f), f the fractional part of e_ni: no
    integer count with that mean varies less. This keeps a run whose
    cycles all ended at the same inspection from claiming zero spread.
    """
    f = e_ni - math.floor(e_ni)
    stderr = math.sqrt(max(sample_var, f * (1.0 - f)) / n)
    # the analytic series stops once the tail is below k_tail_eps = 1e-9
    if abs(mean - e_ni) > 4.0 * stderr + 1e-9 * max(1.0, e_ni):
        return [f"{label}: simulated inspections {mean!r} +- {stderr!r} vs e_ni {e_ni!r}"]
    return []


def cost_rate_agrees(mean_cr, stderr_cr, cr, c_rho, sub_step, e_k, label) -> list[str]:
    """Late detection by up to one sub-step shortens each simulated downtime,
    so the simulated rate may sit below the exact one by c_rho*sub_step/E[K]."""
    allowed = 4.0 * stderr_cr + c_rho * sub_step / e_k
    if abs(mean_cr - cr) > allowed:
        return [f"{label}: simulated cr {mean_cr!r} vs analytic {cr!r} (allowed {allowed:.6g})"]
    return []


def dkw_epsilon(paths) -> float:
    return math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * paths))


def first_passage_band(empirical, cdf_at_t, cdf_before, paths, label) -> list[str]:
    """F(t - sub_step) - eps <= F_hat(t) <= F(t) + eps: crossings are found
    late by at most one sub-step, never early."""
    eps = dkw_epsilon(paths) + SURVIVAL_TOL
    e = np.asarray(empirical, dtype=float)
    low = np.asarray(cdf_before, dtype=float) - eps
    high = np.asarray(cdf_at_t, dtype=float) + eps
    bad = np.flatnonzero((e < low) | (e > high))
    if bad.size:
        i = bad[0]
        return [f"{label}: empirical CDF {e[i]!r} outside [{low[i]!r}, {high[i]!r}] at index {i}"]
    return []


def cycle_properties(outcomes, tau, label) -> list[str]:
    errors = []
    for j, o in enumerate(outcomes):
        problem = None
        if not (0.0 <= o.downtime <= tau):
            problem = f"downtime {o.downtime!r} outside [0, tau={tau!r}]"
        elif o.ended_preventively and o.downtime != 0.0:
            problem = f"preventive cycle with downtime {o.downtime!r}"
        elif not math.isclose(o.cycle_length, tau * o.inspections, rel_tol=1e-12):
            problem = f"cycle length {o.cycle_length!r} != tau * {o.inspections}"
        if problem:
            errors.append(f"{label}: cycle {j}: {problem}")
            break
    return errors
