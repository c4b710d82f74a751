"""Tests for the gamma and normal laws on the library's own path, and for
the quadrature.

The library reads the regularized lower incomplete gamma P(s, x) as the
m = 0 row of threshold_cdf_block: for the unit component below, wear at
time t is gamma(t, 1), so the row at level x and time s is P(s, x) with
both arguments exact. It reads the standard normal CDF as
shock_survival_prob, which for the unit component with w_mu = 1 - z is
Phi(z). Frozen reference values were computed with mpmath at 50 decimal
digits (loggamma, gammainc, ncdf) and with mpmath.quad over the gamma
density; they are independent of the scipy-backed implementation under
test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from cbmopt.errors import DomainError, IntegrationError
from cbmopt.failure_model import (
    ComponentParams,
    event_probabilities,
    shock_survival_prob,
    threshold_cdf_block,
)
from cbmopt.numerics import adaptive_integrate, kronrod_nodes

from conftest import COMP_12

# mpmath.loggamma, dps=50
LOG_GAMMA_31_295 = 75.6679008666886637651824
# mpmath.quad of u^{s-1} e^{-u} / Gamma(s) over [0, 0.75], s = 2.5, tol 1e-13;
# agrees with mpmath.gammainc(2.5, 0, 0.75, regularized=True)
P_2_5_AT_0_75 = 0.086930185455604539326
# mpmath.gammainc(0.7 * 44.7129, 0, 0.3 * 0.00125, regularized=True)
P_DEEP_TAIL = 2.5507189155530305133e-142
# mpmath.ncdf, dps=50
PHI_1_5 = 0.933192798731141934

# wear shape alpha * t = t at rate 1; shock survival Phi(1 - w_mu)
UNIT = ComponentParams("unit", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, w_mu=0.0, w_sigma=1.0)


class TestLogGamma:
    """scipy's gammaln normalizes the jump-sum densities of the failure model."""

    def test_at_one(self):
        assert special.gammaln(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_half(self):
        assert special.gammaln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_against_high_precision_oracle(self):
        assert special.gammaln(31.295) == pytest.approx(LOG_GAMMA_31_295, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, bad):
        # gammaln answers inf or nan here; a component refuses such a wear
        # shape per hour, so no gamma shape of the library reaches it
        with pytest.raises(DomainError):
            replace(UNIT, alpha=bad)

    def test_wide_range_against_oracle_grid(self):
        # mpmath.loggamma at dps=50 for x in [1e-6, 1e6]
        oracle = {
            1e-6: 13.815509980749432,
            1e-3: 6.9071788853838537,
            0.1: 2.2527126517342059,
            2.5: 0.28468287047291916,
            10.0: 12.80182748008147,
            1e3: 5905.2204232091812,
            1e6: 12815504.569147612,
        }
        for x, expected in oracle.items():
            assert special.gammaln(x) == pytest.approx(expected, rel=1e-12)


class TestRegularizedLowerGamma:
    def test_exponential_special_case(self):
        assert threshold_cdf_block(UNIT, 1.0, [1.0], 0)[0, 0] == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )

    def test_integer_shape_closed_form(self):
        assert threshold_cdf_block(UNIT, 2.0, [2.0], 0)[0, 0] == pytest.approx(
            1.0 - 3.0 * math.exp(-2.0), rel=1e-12
        )

    def test_against_quadrature_oracle(self):
        assert threshold_cdf_block(UNIT, 0.75, [2.5], 0)[0, 0] == pytest.approx(
            P_2_5_AT_0_75, rel=1e-10
        )

    def test_oracle_grid(self):
        # mpmath.gammainc(s, 0, x, regularized=True), dps=50
        shapes, xs, expected = np.array([
            (0.4, 0.001, 0.071092397895333076),
            (0.7, 1.5, 0.86628274334615259),
            (3.0, 0.5, 0.014387677966970687),
            (30.0, 20.0, 0.021818217525557392),
            (30.0, 45.0, 0.9926628007022035),
        ]).T
        assert threshold_cdf_block(UNIT, xs, shapes, 0)[0] == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 40.0, 100)
        vals = threshold_cdf_block(UNIT, xs[:, None], [2.5], 0)[0, :, 0]
        assert np.all(np.diff(vals) >= 0.0)

    def test_limits(self):
        low, high = threshold_cdf_block(UNIT, [0.0, 50 * 2.5], [2.5, 2.5], 0)[0]
        assert low == 0.0
        assert high == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1)])
    def test_domain(self, s, x):
        # the component refuses the shape, the status law the level
        with pytest.raises(DomainError):
            event_probabilities(replace(UNIT, alpha=s), 0.0, 1.0, x)


class TestGammaCdf:
    def test_zero_at_origin(self):
        assert threshold_cdf_block(COMP_12, 0.0, [1.0], 0)[0, 0] == 0.0

    def test_degenerate_shape_is_point_mass(self):
        row = threshold_cdf_block(replace(UNIT, beta=0.3), [0.0, 3.7], [0.0, 0.0], 0)[0]
        assert np.all(row == 1.0)
        assert threshold_cdf_block(replace(UNIT, beta=0.4), 0.5, [5e-324], 0)[0, 0] == 1.0

    def test_deep_tail_log_space_value(self):
        # wear shape 0.7 * 44.7129 at rate 0.3
        value = threshold_cdf_block(COMP_12, 0.00125, [44.7129], 0)[0, 0]
        assert value == pytest.approx(P_DEEP_TAIL, rel=1e-10)

    def test_matches_regularized_lower_gamma(self):
        for x, s, r in [(0.5, 0.7, 0.3), (2.0, 3.0, 1.5), (10.0, 0.4, 2.0)]:
            value = threshold_cdf_block(replace(UNIT, beta=r), x, [s], 0)[0, 0]
            assert value == special.gammainc(s, r * x)

    @pytest.mark.parametrize("x,s,r", [(-1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, -2.0)])
    def test_domain(self, x, s, r):
        # the component refuses the rate, the status law the level
        with pytest.raises(DomainError):
            event_probabilities(replace(UNIT, alpha=s, beta=r), 0.0, 1.0, x)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert shock_survival_prob(replace(UNIT, w_mu=1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_against_erf_oracle(self):
        assert shock_survival_prob(replace(UNIT, w_mu=1.0 - 1.5)) == pytest.approx(
            PHI_1_5, abs=1e-12
        )

    def test_negative_by_symmetry(self):
        assert shock_survival_prob(replace(UNIT, w_mu=1.0 + 1.5)) == pytest.approx(
            1.0 - PHI_1_5, abs=1e-12
        )

    def test_symmetry_identity_on_grid(self):
        for z in np.linspace(-8.0, 8.0, 65):
            pair = [shock_survival_prob(replace(UNIT, w_mu=1.0 - v)) for v in (z, -z)]
            assert sum(pair) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_domain(self, bad):
        # a component refuses a shock law that would give Phi a non-finite z
        with pytest.raises(DomainError):
            shock_survival_prob(replace(UNIT, w_mu=1.0 - bad))


def integrate(f, edges):
    """adaptive_integrate of f over the panels between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    nodes = kronrod_nodes(lo, hi)
    return adaptive_integrate(f, lo, hi, f(nodes.ravel()).reshape(nodes.shape))


class TestAdaptiveIntegrate:
    def test_linear(self):
        assert integrate(lambda x: x, [0.0, 1.0]) == pytest.approx(0.5, rel=1e-12)

    def test_sine(self):
        assert integrate(np.sin, [0.0, math.pi]) == pytest.approx(2.0, rel=1e-11)

    def test_integrable_endpoint_singularity(self):
        # the downtime integral meets a thin layer at t = 0 on a mesh graded
        # toward it; endpoints are never evaluated
        edges = [0.0] + [0.5**j for j in range(27, -1, -1)]
        assert integrate(lambda x: x**-0.6, edges) == pytest.approx(2.5, rel=1e-8)

    def test_error_estimate_brackets_refined_value(self):
        # the refined value lies within the routine's tolerance of a
        # tight QUADPACK reference
        def cdf_difference(t):
            return special.gammainc(1.7, 0.8 * t) - special.gammainc(1.7, 0.5 * t)

        reference, _ = quad(cdf_difference, 0.0, 12.0, epsabs=0.0, epsrel=1e-13, limit=200)
        assert integrate(cdf_difference, [0.0, 12.0]) == pytest.approx(reference, rel=1e-8)

    def test_exhausted_budget_raises(self):
        with pytest.raises(IntegrationError, match="subdivisions"):
            integrate(lambda x: np.sin(50.0 * x) * x**-0.5, [0.0, 20.0])

    def test_non_finite_integrand_raises(self):
        # the first round's values are checked as well as refinement's
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(lambda x: np.where(x > 0.5, np.nan, x), [0.0, 1.0])
        lo, hi = np.array([0.0]), np.array([1.0])
        rough = np.sin(50.0 * kronrod_nodes(lo, hi))
        with pytest.raises(IntegrationError, match="non-finite"):
            adaptive_integrate(lambda x: np.full_like(x, np.nan), lo, hi, rough)


class TestSampling:
    def test_gamma_ks_against_own_cdf(self):
        rng = np.random.default_rng(99)
        draws = np.sort(rng.gamma(0.4, 1.0, size=100_000))
        grid = np.arange(1, draws.size + 1) / draws.size
        levels = draws[:: draws.size // 500]
        theory = threshold_cdf_block(UNIT, levels[:, None], [0.4], 0)[0, :, 0]
        empirical = grid[:: draws.size // 500]
        assert np.max(np.abs(theory - empirical)) < 0.01

    def test_normal_tail_fraction_matches_cdf(self):
        # shock magnitudes of component 1 against its hard threshold 1.5
        rng = np.random.default_rng(11)
        draws = rng.normal(1.2, 0.2, size=100_000)
        frac = float(np.mean(draws < 1.5))
        p = shock_survival_prob(COMP_12)
        stderr = math.sqrt(p * (1.0 - p) / draws.size)
        assert abs(frac - p) < 3.0 * stderr


@given(st.floats(min_value=0.05, max_value=50.0), st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_regularized_gamma_in_unit_interval(shape, x):
    p = threshold_cdf_block(UNIT, x, [shape], 0)[0, 0]
    assert 0.0 <= p <= 1.0


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_normal_cdf_complement(z):
    pair = [shock_survival_prob(replace(UNIT, w_mu=1.0 - v)) for v in (z, -z)]
    assert sum(pair) == pytest.approx(1.0, abs=1e-12)
