"""Tests for special functions and quadrature.

Frozen reference values were computed with mpmath at 50 decimal digits
(loggamma, gammainc, ncdf) and with mpmath.quad over the gamma density;
they are independent of the scipy-backed implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cbmopt.errors import DomainError, IntegrationError
from cbmopt.numerics import (
    ToleranceConfig,
    adaptive_integrate,
    gamma_cdf,
    regularized_lower_gamma,
    std_normal_cdf,
)

# mpmath.loggamma, dps=50
LOG_GAMMA_31_295 = 75.6679008666886637651824
# mpmath.quad of u^{s-1} e^{-u} / Gamma(s) over [0, 0.75], s = 2.5, tol 1e-13;
# agrees with mpmath.gammainc(2.5, 0, 0.75, regularized=True)
P_2_5_AT_0_75 = 0.086930185455604539326
# mpmath.gammainc(0.7 * 44.7129, 0, 0.3 * 0.00125, regularized=True)
P_DEEP_TAIL = 2.5507189155530305133e-142
# mpmath.ncdf, dps=50
PHI_1_5 = 0.933192798731141934


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
        # gammaln answers inf or nan here; the library's gamma functions raise
        with pytest.raises(DomainError):
            regularized_lower_gamma(bad, 1.0)

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
        assert regularized_lower_gamma(1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )

    def test_integer_shape_closed_form(self):
        assert regularized_lower_gamma(2.0, 2.0) == pytest.approx(
            1.0 - 3.0 * math.exp(-2.0), rel=1e-12
        )

    def test_against_quadrature_oracle(self):
        assert regularized_lower_gamma(2.5, 0.75) == pytest.approx(
            P_2_5_AT_0_75, rel=1e-10
        )

    def test_oracle_grid(self):
        # mpmath.gammainc(s, 0, x, regularized=True), dps=50
        oracle = [
            (0.4, 0.001, 0.071092397895333076),
            (0.7, 1.5, 0.86628274334615259),
            (3.0, 0.5, 0.014387677966970687),
            (30.0, 20.0, 0.021818217525557392),
            (30.0, 45.0, 0.9926628007022035),
        ]
        for s, x, expected in oracle:
            assert regularized_lower_gamma(s, x) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 40.0, 100)
        vals = [regularized_lower_gamma(2.5, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_limits(self):
        assert regularized_lower_gamma(2.5, 0.0) == 0.0
        assert regularized_lower_gamma(2.5, 50 * 2.5) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1)])
    def test_domain(self, s, x):
        with pytest.raises(DomainError):
            regularized_lower_gamma(s, x)


class TestGammaCdf:
    def test_zero_at_origin(self):
        assert gamma_cdf(0.0, 0.7, 0.3) == 0.0

    def test_degenerate_shape_is_point_mass(self):
        assert gamma_cdf(0.0, 0.0, 0.3) == 1.0
        assert gamma_cdf(3.7, 0.0, 0.3) == 1.0
        assert gamma_cdf(0.5, 5e-324, 0.4) == 1.0

    def test_deep_tail_log_space_value(self):
        shape = 0.7 * 44.7129
        assert gamma_cdf(0.00125, shape, 0.3) == pytest.approx(P_DEEP_TAIL, rel=1e-10)

    def test_matches_regularized_lower_gamma(self):
        for x, s, r in [(0.5, 0.7, 0.3), (2.0, 3.0, 1.5), (10.0, 0.4, 2.0)]:
            assert gamma_cdf(x, s, r) == regularized_lower_gamma(s, r * x)

    @pytest.mark.parametrize("x,s,r", [(-1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, -2.0)])
    def test_domain(self, x, s, r):
        with pytest.raises(DomainError):
            gamma_cdf(x, s, r)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_erf_oracle(self):
        assert std_normal_cdf(1.5) == pytest.approx(PHI_1_5, abs=1e-12)

    def test_negative_by_symmetry(self):
        assert std_normal_cdf(-1.5) == pytest.approx(1.0 - PHI_1_5, abs=1e-12)

    def test_symmetry_identity_on_grid(self):
        for z in np.linspace(-8.0, 8.0, 65):
            assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


class TestAdaptiveIntegrate:
    def test_linear(self):
        value, err = adaptive_integrate(lambda x: x, 0.0, 1.0)
        assert value == pytest.approx(0.5, rel=1e-12)
        assert err >= 0.0

    def test_sine(self):
        value, _ = adaptive_integrate(np.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, rel=1e-11)

    def test_integrable_endpoint_singularity(self):
        value, _ = adaptive_integrate(lambda x: x**-0.6, 0.0, 1.0)
        assert value == pytest.approx(2.5, rel=1e-8)

    def test_empty_interval(self):
        assert adaptive_integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)

    def test_error_estimate_brackets_refined_value(self):
        # reported error must cover the distance to a 10x tighter rerun
        def cdf_difference(t):
            return np.vectorize(
                lambda ti: regularized_lower_gamma(1.7, 0.8 * ti)
                - regularized_lower_gamma(1.7, 0.5 * ti)
            )(t)

        loose = ToleranceConfig(rel_tol=1e-6, abs_tol=1e-9)
        tight = ToleranceConfig(rel_tol=1e-7, abs_tol=1e-10)
        v1, e1 = adaptive_integrate(cdf_difference, 0.0, 12.0, loose)
        v2, _ = adaptive_integrate(cdf_difference, 0.0, 12.0, tight)
        assert abs(v1 - v2) <= max(e1, 1e-12)

    def test_exhausted_budget_raises(self):
        tol = ToleranceConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=3)
        with pytest.raises(IntegrationError):
            adaptive_integrate(lambda x: np.sin(50.0 * x) * x**-0.5, 0.0, 20.0, tol)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            adaptive_integrate(lambda x: x, 1.0, 0.0)

    def test_invalid_tolerances(self):
        with pytest.raises(DomainError):
            ToleranceConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            ToleranceConfig(max_subdivisions=0)


class TestSampling:
    def test_gamma_ks_against_own_cdf(self):
        rng = np.random.default_rng(99)
        draws = np.sort(rng.gamma(0.4, 1.0, size=100_000))
        grid = np.arange(1, draws.size + 1) / draws.size
        theory = np.array([gamma_cdf(x, 0.4, 1.0) for x in draws[:: draws.size // 500]])
        empirical = grid[:: draws.size // 500]
        assert np.max(np.abs(theory - empirical)) < 0.01

    def test_normal_tail_fraction_matches_cdf(self):
        rng = np.random.default_rng(11)
        draws = rng.normal(1.2, 0.2, size=100_000)
        frac = float(np.mean(draws < 1.5))
        p = std_normal_cdf(1.5)
        stderr = math.sqrt(p * (1.0 - p) / draws.size)
        assert abs(frac - p) < 3.0 * stderr


@given(st.floats(min_value=0.05, max_value=50.0), st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_regularized_gamma_in_unit_interval(shape, x):
    p = regularized_lower_gamma(shape, x)
    assert 0.0 <= p <= 1.0


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_normal_cdf_complement(z):
    assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-12)
