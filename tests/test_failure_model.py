"""Tests for the per-component failure law.

Monte Carlo oracles draw directly from the underlying distributions with
numpy and never touch the mixture path they validate. The frozen
convolution value was computed with mpmath.quad at 50 digits; the other
convolution oracle is scipy's QUADPACK with an algebraic weight.
"""

import math

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cbmopt.errors import DomainError, TruncationCapError
from cbmopt.failure_model import (
    MIXTURE_TERM_CAP,
    ComponentParams,
    SystemModel,
    TruncationConfig,
    damage_sum_density,
    event_probabilities,
    poisson_weights,
    pure_degradation_cdf,
    shock_survival_prob,
    threshold_cdf_block,
    threshold_cdf_given_m,
    total_degradation_cdf,
)
from cbmopt.numerics import gamma_cdf, regularized_lower_gamma, std_normal_cdf

from conftest import (
    BENCH_LAMBDA,
    COMP_12,
    COMP_34,
    random_component,
    random_system,
    table2_system,
    table3_system,
)

# mpmath.quad of gammainc(0.7, 0, 0.3*(5-u), regularized=True) * pdf_gamma(0.8, 1)(u)
# over [0, 5], dps=50: P(wear(1) + two-jump damage <= 5) for the component-1
# parameters with x far above h1
CONV_M2_X5_T1 = 0.811321628348859295

SANE = ComponentParams(
    name="sane",
    h1=8.0,
    d=2.0,
    alpha=0.5,
    beta=0.4,
    y_alpha=0.8,
    y_beta=0.9,
    w_mu=1.0,
    w_sigma=0.5,
)


class TestComponentParams:
    def test_rejects_nonpositive_fields(self):
        for field in ["h1", "d", "alpha", "beta", "y_alpha", "y_beta", "w_sigma"]:
            kwargs = dict(
                name="x", h1=1.0, d=1.0, alpha=1.0, beta=1.0,
                y_alpha=1.0, y_beta=1.0, w_mu=0.0, w_sigma=1.0,
            )
            kwargs[field] = 0.0
            with pytest.raises(DomainError, match=field):
                ComponentParams(**kwargs)

    def test_system_invariants(self):
        with pytest.raises(DomainError):
            SystemModel(components=(), lam=0.1)
        with pytest.raises(DomainError):
            SystemModel(components=(SANE,), lam=-1.0)


class TestPoissonWeights:
    def test_zero_mean(self):
        assert poisson_weights(0.0) == [1.0]

    def test_weights_sum_to_one_within_eps(self):
        trunc = TruncationConfig(poisson_tail_eps=1e-10)
        w = poisson_weights(0.8, trunc)
        assert 1.0 - sum(w) < 1e-10
        assert w[0] == pytest.approx(math.exp(-0.8), rel=1e-14)

    def test_cap_raises(self):
        with pytest.raises(TruncationCapError):
            poisson_weights(50.0, TruncationConfig(poisson_tail_eps=1e-12, m_max_cap=10))


class TestShockSurvival:
    def test_bench_component_1(self):
        # (1.5 - 1.2) / 0.2 = 1.5
        assert shock_survival_prob(COMP_12) == pytest.approx(0.9331927987, abs=1e-9)

    def test_bench_component_3(self):
        # (1.4 - 1.22) / 0.18 = 1.0
        assert shock_survival_prob(COMP_34) == pytest.approx(0.8413447461, abs=1e-9)

    def test_threshold_at_mean(self):
        c = ComponentParams("c", 1.0, 1.2, 1.0, 1.0, 1.0, 1.0, w_mu=1.2, w_sigma=0.2)
        assert shock_survival_prob(c) == pytest.approx(0.5, abs=1e-14)


class TestPureDegradation:
    def test_no_time_no_wear(self):
        assert pure_degradation_cdf(SANE, 0.5, 0.0) == 1.0
        # alpha * t = 5e-324 is subnormal, where scipy's gammainc gives 0 for x < ~1
        c = ComponentParams("c", 1.0, 1.0, 1.0, 0.4, 1.0, 1.0, 0.0, 1.0)
        for x in (0.0, 0.5, 5.0):
            assert pure_degradation_cdf(c, x, 5e-324) == 1.0
            assert threshold_cdf_given_m(c, x, 5e-324, 0) == 1.0

    def test_zero_level_with_positive_shape(self):
        c = ComponentParams("c", 1.0, 1.0, 0.7, 0.3, 1.0, 1.0, 1.0, 1.0)
        assert pure_degradation_cdf(c, 0.0, 10.0) == 0.0

    def test_matches_incomplete_gamma(self):
        c = ComponentParams("c", 1.0, 1.0, 0.7, 0.3, 1.0, 1.0, 1.0, 1.0)
        assert pure_degradation_cdf(c, 5.0, 1.0) == pytest.approx(
            regularized_lower_gamma(0.7, 1.5), rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            pure_degradation_cdf(SANE, -1.0, 1.0)
        with pytest.raises(DomainError):
            pure_degradation_cdf(SANE, 1.0, -1.0)


class TestDamageSumDensity:
    def test_single_jump_closed_form(self):
        c = ComponentParams("c", 1.0, 1.0, 1.0, 1.0, 0.4, 1.0, 1.0, 1.0)
        expected = 1.0**-0.6 * math.exp(-1.0) / math.gamma(0.4)
        assert damage_sum_density(c, 1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_two_jumps_additivity(self):
        c = ComponentParams("c", 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
        for u in [0.1, 0.7, 2.3]:
            assert damage_sum_density(c, 2, u) == pytest.approx(math.exp(-u), rel=1e-12)

    def test_three_jumps_against_simulation(self):
        c = ComponentParams("c", 1.0, 1.0, 1.0, 1.0, 0.4, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(2024)
        sums = rng.gamma(0.4, 1.0, size=(1_000_000, 3)).sum(axis=1)
        width = 0.02
        kde = np.mean(np.abs(sums - 0.5) < width) / (2.0 * width)
        assert damage_sum_density(c, 3, 0.5) == pytest.approx(kde, rel=0.02)

    def test_zero_jump_rejected(self):
        with pytest.raises(DomainError):
            damage_sum_density(SANE, 0, 1.0)


class TestThresholdCdfGivenM:
    def test_no_shock_delegates_to_pure_wear(self):
        for x, t in [(0.5, 2.0), (3.0, 0.0), (0.0, 1.0)]:
            assert threshold_cdf_given_m(SANE, x, t, 0) == pure_degradation_cdf(
                SANE, x, t
            )

    def test_zero_level_with_jumps(self):
        assert threshold_cdf_given_m(SANE, 0.0, 5.0, 1) == 0.0
        assert threshold_cdf_given_m(SANE, 0.0, 5.0, 3) == 0.0

    def test_frozen_convolution_oracle(self):
        assert threshold_cdf_given_m(COMP_12, 5.0, 1.0, 2) == pytest.approx(
            CONV_M2_X5_T1, rel=1e-9
        )

    def test_monte_carlo_convolution_singular_density(self):
        # single jump with damage shape 0.4 < 1, a density singular at zero
        rng = np.random.default_rng(77)
        n = 1_000_000
        wear = rng.gamma(0.7 * 1.0, 1.0 / 0.3, size=n)
        jump = rng.gamma(0.4, 1.0, size=n)
        p_hat = float(np.mean(wear + jump <= 5.0))
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
        analytic = threshold_cdf_given_m(COMP_12, 5.0, 1.0, 1)
        assert abs(analytic - p_hat) < 3.0 * stderr

    def test_bench_scale_deep_tail_agrees_with_simulation(self):
        # at the benchmark wear rates the level is far above h1 after a day,
        # so both routes must put the probability at numerical zero
        rng = np.random.default_rng(3)
        n = 1_000_000
        wear = rng.gamma(0.7 * 24.0, 1.0 / 0.3, size=n)
        jump = rng.gamma(0.4, 1.0, size=n)
        p_hat = float(np.mean(wear + jump <= 0.00125))
        analytic = threshold_cdf_given_m(COMP_12, 0.00125, 24.0, 1)
        assert p_hat == 0.0
        assert analytic < 3.0 / n

    def test_no_wear_at_time_zero(self):
        expected = regularized_lower_gamma(2 * SANE.y_alpha, SANE.y_beta * 2.0)
        # the smallest subnormal time leaves a wear shape of exactly zero
        for t in (0.0, 5e-324):
            val = threshold_cdf_given_m(SANE, 2.0, t, 2)
            assert val == pytest.approx(expected, rel=1e-12)
            assert threshold_cdf_given_m(SANE, 0.0, t, 0) == 1.0

    def test_nonincreasing_in_jump_count(self):
        vals = [threshold_cdf_given_m(SANE, 6.0, 4.0, m) for m in range(6)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            threshold_cdf_given_m(SANE, 1.0, 1.0, -1)


def quadpack_convolution(c: ComponentParams, x: float, t: float, m: int) -> float:
    """P(wear(t) + m jumps <= x) by QUADPACK: the wear CDF integrated against
    the m-jump gamma density, whose u^(a-1) factor is the algebraic weight."""
    if m == 0:
        return gamma_cdf(x, c.alpha * t, c.beta)
    if x == 0.0:
        return 0.0
    a = m * c.y_alpha
    log_scale = a * math.log(c.y_beta) - math.lgamma(a)

    def smooth(u):
        return gamma_cdf(x - u, c.alpha * t, c.beta) * math.exp(log_scale - c.y_beta * u)

    value, _ = integrate.quad(
        smooth, 0.0, x, weight="alg", wvar=(a - 1.0, 0.0), epsabs=1e-13, epsrel=1e-11, limit=200
    )
    return value


def assert_block_matches_quadpack(c, x, times, max_m):
    block = threshold_cdf_block(c, x, np.array(times), max_m)
    for j, t in enumerate(times):
        for m in range(max_m + 1):
            expected = quadpack_convolution(c, x, t, m)
            assert abs(block[m, j] - expected) <= 1e-10, (c, x, t, m)


class TestThresholdCdfBlock:
    def test_matches_quadpack_on_random_components(self):
        rng = np.random.default_rng(2019)
        comps = [c for _ in range(10) for c in random_system(rng, 4).components]
        assert len(comps) == 40
        for c in comps:
            timescale = c.h1 * c.beta / c.alpha
            times = [0.0, 5e-324, 0.3 * timescale, timescale, 3.0 * timescale]
            for x in (0.3 * c.h1, c.h1):
                assert_block_matches_quadpack(c, x, times, 6)

    def test_matches_quadpack_on_benchmark_components(self):
        for c in table2_system().components[::2] + table3_system().components:
            for x in (0.3 * c.h1, c.h1):
                assert_block_matches_quadpack(c, x, [0.0, 5e-324, 0.004, 0.0082, 0.4], 3)

    def test_slow_wear_weight_below_double_range(self):
        # wear rate 0.1 against jump rate 1 at wear shape 400: the first
        # mixture weight 0.1^400 underflows, and the weights that matter sit
        # thousands of terms out
        c = ComponentParams("slow", 5000.0, 1.0, 1.0, 0.1, 1.0, 1.0, 0.0, 1.0)
        assert_block_matches_quadpack(c, 4000.0, [400.0], 1)

    def test_rate_ratio_of_a_hundredth(self):
        # wear rate 0.01 against jump rate 1, x at the mean: about 3,700
        # terms at wear shape 20, and more than the cap at wear shape 100
        c = ComponentParams("skewed", 1e4, 1.0, 1.0, 0.01, 1.0, 1.0, 0.0, 1.0)
        assert_block_matches_quadpack(c, 2001.0, [20.0], 1)
        with pytest.raises(TruncationCapError):
            threshold_cdf_block(c, 10001.0, np.array([100.0]), 1)

    @pytest.mark.parametrize("wear_is_slow", [True, False])
    def test_level_axis_matches_scalar_calls(self, wear_is_slow):
        rates = (0.4, 0.9) if wear_is_slow else (0.9, 0.4)
        c = ComponentParams("levels", 8.0, 2.0, 0.5, rates[0], 0.8, rates[1], 1.0, 0.5)
        levels = np.array([0.0, 0.3 * c.h1, c.h1])
        times = np.array([0.0, 5e-324, 2.0, 6.4, 20.0])
        block = threshold_cdf_block(c, levels, times, 8)
        assert block.shape == (3, 9, 5)
        for row, x in zip(block, levels):
            assert np.max(np.abs(row - threshold_cdf_block(c, x, times, 8))) <= 1e-15
        assert np.all(block[0, 1:] == 0.0)

    def test_beyond_the_term_cap_raises_quickly(self):
        # rate ratio 1e-3 at wear shape 1e3: the mixture weights spread over
        # about 3e4 terms per standard deviation
        c = ComponentParams("wide", 1e7, 1.0, 1.0, 1e-3, 1.0, 1.0, 0.0, 1.0)
        start = time.perf_counter()
        with pytest.raises(TruncationCapError, match=str(MIXTURE_TERM_CAP)):
            threshold_cdf_block(c, 1e6, np.array([1e3]), 2)
        assert time.perf_counter() - start < 5.0


@given(
    p=st.floats(min_value=1e-3, max_value=1.0),
    fast_rate=st.floats(min_value=0.1, max_value=10.0),
    wear_is_slow=st.booleans(),
    wear_shape=st.floats(min_value=1e-3, max_value=1e3),
    jump_shape=st.floats(min_value=1e-3, max_value=1e3),
    level=st.floats(min_value=1e-3, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_extreme_parameters_give_a_cdf_or_a_typed_error(
    p, fast_rate, wear_is_slow, wear_shape, jump_shape, level
):
    beta, y_beta = (p * fast_rate, fast_rate) if wear_is_slow else (fast_rate, p * fast_rate)
    max_m = 3
    c = ComponentParams("x", 1.0, 1.0, wear_shape, beta, jump_shape / max_m, y_beta, 0.0, 1.0)
    # levels around the mean of wear plus max_m jumps at t = 1
    mean = wear_shape / beta + jump_shape / y_beta
    times = np.array([0.0, 0.5, 1.0])
    try:
        low, high = (threshold_cdf_block(c, f * level * mean, times, max_m) for f in (1.0, 1.5))
    except TruncationCapError:
        return
    # rounding in the mixture grows like 1e-16 times shape times log(rate * x),
    # about 1e-12 at shapes near 1e3
    for block in (low, high):
        assert np.all(np.isfinite(block))
        assert np.all((block >= 0.0) & (block <= 1.0))
        assert np.all(np.diff(block, axis=0) <= 1e-10)
    assert np.all(high >= low - 1e-10)


class TestTotalDegradationCdf:
    def test_no_shocks_reduces_to_pure_wear(self):
        for x, t in [(2.0, 3.0), (10.0, 1.0)]:
            assert total_degradation_cdf(SANE, 0.0, x, t) == pytest.approx(
                pure_degradation_cdf(SANE, x, t), abs=1e-12
            )

    def test_certain_at_time_zero(self):
        assert total_degradation_cdf(SANE, 0.1, 3.0, 0.0) == 1.0

    def test_bench_rate_keeps_only_the_no_shock_term(self):
        # lam * t about 6e-4, so every m >= 1 term is negligible
        full = total_degradation_cdf(COMP_12, BENCH_LAMBDA, 5.0, 24.0)
        m0 = threshold_cdf_given_m(COMP_12, 5.0, 24.0, 0) * math.exp(
            -BENCH_LAMBDA * 24.0
        )
        assert full == pytest.approx(m0, rel=1e-3)

    def test_monotone_on_grid(self):
        xs = np.linspace(0.5, 14.0, 10)
        ts = np.linspace(0.5, 12.0, 10)
        table = [
            [total_degradation_cdf(SANE, 0.05, x, t) for x in xs] for t in ts
        ]
        for row in table:  # nondecreasing in x
            for a, b in zip(row, row[1:]):
                assert b >= a - 1e-10
        for col in zip(*table):  # nonincreasing in t
            for a, b in zip(col, col[1:]):
                assert b <= a + 1e-10

    def test_truncation_refinement_is_bounded_by_eps(self):
        loose = TruncationConfig(poisson_tail_eps=1e-6)
        tight = TruncationConfig(poisson_tail_eps=1e-14)
        a = total_degradation_cdf(SANE, 0.3, 6.0, 5.0, trunc=loose)
        b = total_degradation_cdf(SANE, 0.3, 6.0, 5.0, trunc=tight)
        assert abs(a - b) <= 1e-6


class TestEventProbabilities:
    def test_new_component_is_safe(self):
        assert event_probabilities(SANE, 0.1, 0.0, 3.0) == (1.0, 0.0, 0.0)

    def test_coincident_thresholds_kill_the_warning_region(self):
        p_safe, p_warn, p_fail = event_probabilities(SANE, 0.05, 6.0, SANE.h1)
        assert p_warn == 0.0
        assert p_safe + p_fail == pytest.approx(1.0, abs=1e-15)

    def test_sum_to_one_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = random_component(rng)
            t = float(rng.uniform(0.1, 30.0))
            h2 = float(rng.uniform(0.0, c.h1))
            lam = float(rng.uniform(0.0, 0.1))
            p = event_probabilities(c, lam, t, h2)
            assert sum(p) == pytest.approx(1.0, abs=1e-12)
            assert all(-1e-15 <= v <= 1.0 for v in p)

    def test_against_monte_carlo_status_oracle(self):
        lam, t, h2 = 0.08, 4.0, 5.0
        rng = np.random.default_rng(42)
        n = 400_000
        shocks = rng.poisson(lam * t, size=n)
        wear = rng.gamma(SANE.alpha * t, 1.0 / SANE.beta, size=n)
        total = wear.copy()
        survived = np.ones(n, dtype=bool)
        for m in range(1, shocks.max() + 1):
            hit = shocks >= m
            w = rng.normal(SANE.w_mu, SANE.w_sigma, size=n)
            survived &= ~hit | (w < SANE.d)
            total += np.where(hit, rng.gamma(SANE.y_alpha, 1.0 / SANE.y_beta, size=n), 0.0)
        mc_safe = float(np.mean(survived & (total < h2)))
        mc_warn = float(np.mean(survived & (total >= h2) & (total < SANE.h1)))
        p_safe, p_warn, p_fail = event_probabilities(SANE, lam, t, h2)
        for analytic, estimate in [(p_safe, mc_safe), (p_warn, mc_warn)]:
            stderr = math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / n)
            assert abs(analytic - estimate) < 3.0 * stderr

    def test_bench_component_sums_to_one_in_the_failed_regime(self):
        p = event_probabilities(COMP_12, BENCH_LAMBDA, 44.7129, 0.0003055)
        assert sum(p) == pytest.approx(1.0, abs=1e-12)
        assert p[2] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_h2_above_h1(self):
        with pytest.raises(DomainError):
            event_probabilities(SANE, 0.1, 1.0, SANE.h1 * 1.01)

    @pytest.mark.parametrize(
        "component, lam, t, h2, expected",
        [
            (SANE, 0.08, 4.0, 5.0,
             (0.55578683305291898, 0.24733418640850374, 0.19687898053857728)),
            (SANE, 0.2, 12.0, 2.0,
             (3.3722766859563081e-05, 0.047502472604550094, 0.95246380462859037)),
            (COMP_12, BENCH_LAMBDA, 0.002, 0.0003055,
             (0.98786401031655857, 0.00195012266389543, 0.010185867019545998)),
        ],
    )
    def test_frozen_values(self, component, lam, t, h2, expected):
        # frozen at 17 digits from a version that made one block call per level
        p = event_probabilities(component, lam, t, h2)
        assert p == pytest.approx(expected, rel=1e-12, abs=1e-15)


@given(
    t=st.floats(min_value=0.0, max_value=20.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=0.2),
)
@settings(max_examples=40, deadline=None)
def test_status_probabilities_always_sum_to_one(t, frac, lam):
    p = event_probabilities(SANE, lam, t, frac * SANE.h1)
    assert sum(p) == pytest.approx(1.0, abs=1e-12)
    assert all(-1e-15 <= v <= 1.0 + 1e-15 for v in p)
