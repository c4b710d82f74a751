"""Tests for series-system survival and the two first-passage CDFs."""

import numpy as np
import pytest

from cbmopt.errors import DomainError
from cbmopt.failure_model import (
    SystemModel,
    poisson_weights,
    pure_degradation_cdf,
    shock_survival_prob,
    threshold_cdf_given_m,
)
from cbmopt.system_reliability import (
    as_thresholds,
    detection_time_cdf,
    failure_time_cdf,
    series_survival,
    series_survival_over_times,
)

from conftest import random_component, random_system


@pytest.fixture
def sane_system():
    rng = np.random.default_rng(314)
    return random_system(rng, 3)


class TestThresholdValidation:
    def test_length_mismatch(self, sane_system):
        with pytest.raises(DomainError, match="length"):
            as_thresholds(sane_system, [1.0])

    def test_out_of_range(self, sane_system):
        bad = [c.h1 for c in sane_system.components]
        bad[1] = sane_system.components[1].h1 * 1.5
        with pytest.raises(DomainError, match=r"thresholds\[1\]"):
            as_thresholds(sane_system, bad)

    def test_vector_type_round_trip(self, sane_system):
        values = tuple(c.h1 for c in sane_system.components)
        assert as_thresholds(sane_system, np.array(values)) == values


class TestSeriesSurvival:
    def test_certain_at_time_zero(self, sane_system):
        assert series_survival(sane_system, 0.0, sane_system.h1_vector) == 1.0

    def test_single_component_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        c = random_component(rng)
        model = SystemModel(components=(c,), lam=0.04)
        t, x = 6.0, 0.6 * c.h1
        weights = poisson_weights(model.lam * t)
        survive = shock_survival_prob(c)
        expected = sum(
            w * survive**m * threshold_cdf_given_m(c, x, t, m)
            for m, w in enumerate(weights)
        )
        assert series_survival(model, t, [x]) == pytest.approx(expected, rel=1e-12)

    def test_without_shocks_survival_is_a_product_of_wear_cdfs(self, sane_system):
        quiet = SystemModel(components=sane_system.components, lam=0.0)
        thresholds = [0.7 * c.h1 for c in quiet.components]
        t = 4.0
        expected = 1.0
        for c, v in zip(quiet.components, thresholds):
            expected *= pure_degradation_cdf(c, v, t)
        assert series_survival(quiet, t, thresholds) == pytest.approx(
            expected, abs=1e-12
        )

    def test_monotone_in_time_and_thresholds(self, sane_system):
        thresholds = [0.6 * c.h1 for c in sane_system.components]
        ts = np.linspace(0.0, 25.0, 12)
        vals = [series_survival(sane_system, t, thresholds) for t in ts]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10
        t = 8.0
        for frac_lo, frac_hi in [(0.3, 0.5), (0.5, 0.8), (0.8, 1.0)]:
            lo = series_survival(
                sane_system, t, [frac_lo * c.h1 for c in sane_system.components]
            )
            hi = series_survival(
                sane_system, t, [frac_hi * c.h1 for c in sane_system.components]
            )
            assert hi >= lo - 1e-10

    def test_series_never_beats_its_weakest_component(self, sane_system):
        thresholds = [0.7 * c.h1 for c in sane_system.components]
        for t in np.linspace(0.5, 30.0, 20):
            r_series = series_survival(sane_system, t, thresholds)
            singles = [
                series_survival(
                    SystemModel(components=(c,), lam=sane_system.lam), t, [v]
                )
                for c, v in zip(sane_system.components, thresholds)
            ]
            assert r_series <= min(singles) + 1e-10


    def test_stacked_rows_match_single_rows(self, sane_system):
        times = np.array([0.0, 5e-324, 1.5, 6.0, 30.0])
        h1 = sane_system.h1_vector
        h2 = tuple(0.4 * v for v in h1)
        stacked = series_survival_over_times(sane_system, times, [h2, h1])
        assert stacked.shape == (2, times.size)
        for row, thresholds in zip(stacked, (h2, h1)):
            single = series_survival_over_times(sane_system, times, thresholds)
            assert np.max(np.abs(row - single)) <= 1e-15
        assert series_survival_over_times(sane_system, [], [h2, h1]).shape == (2, 0)
        assert series_survival_over_times(sane_system, times, np.zeros((0, 3))).shape == (0, 5)

    def test_rows_with_their_own_times_match_single_rows(self, sane_system):
        h1 = sane_system.h1_vector
        rows = np.array([[f * v for v in h1] for f in (0.4, 1.0, 0.7)])
        own = np.array([[0.0, 1.5, 6.0], [5e-324, 30.0, 2.0], [6.0, 0.5, 12.0]])
        paired = series_survival_over_times(sane_system, own, rows)
        assert paired.shape == (3, 3)
        # the shock-count cutoff follows the largest time of the call, which
        # moves a value by at most the Poisson tail eps, 1e-12
        for row, times, thresholds in zip(paired, own, rows):
            single = series_survival_over_times(sane_system, times, thresholds)
            assert np.max(np.abs(row - single)) <= 1e-12
        # one threshold vector per time point
        per_point = series_survival_over_times(sane_system, own[:, :1], rows)
        assert per_point.shape == (3, 1)
        assert np.max(np.abs(per_point[:, 0] - paired[:, 0])) <= 1e-12
        with pytest.raises(DomainError, match="one row per threshold row"):
            series_survival_over_times(sane_system, own[:2], rows)
        with pytest.raises(DomainError, match="one row per threshold row"):
            series_survival_over_times(sane_system, own, h1)

    def test_every_stacked_row_is_validated(self, sane_system):
        bad = [1.5 * c.h1 for c in sane_system.components]
        with pytest.raises(DomainError, match=r"thresholds\[0\]"):
            series_survival_over_times(sane_system, [1.0], [sane_system.h1_vector, bad])


class TestFirstPassageCdfs:
    def test_zero_at_time_zero(self, sane_system):
        assert failure_time_cdf(sane_system, 0.0) == 0.0

    def test_failure_cdf_is_survival_complement(self, sane_system):
        t = 7.5
        assert failure_time_cdf(sane_system, t) == pytest.approx(
            1.0 - series_survival(sane_system, t, sane_system.h1_vector), abs=1e-15
        )

    def test_detection_equals_failure_when_thresholds_coincide(self, sane_system):
        for t in [0.0, 3.0, 11.0]:
            assert detection_time_cdf(
                sane_system, t, sane_system.h1_vector
            ) == pytest.approx(failure_time_cdf(sane_system, t), abs=1e-15)

    def test_zero_thresholds_detect_immediately(self, sane_system):
        zeros = [0.0] * sane_system.n
        assert detection_time_cdf(sane_system, 0.5, zeros) == 1.0
        assert detection_time_cdf(sane_system, 20.0, zeros) == 1.0

    def test_detection_dominates_failure(self, sane_system):
        h2 = [0.55 * c.h1 for c in sane_system.components]
        for t in np.linspace(0.5, 30.0, 15):
            assert detection_time_cdf(sane_system, t, h2) >= failure_time_cdf(
                sane_system, t
            ) - 1e-10

    def test_widening_one_threshold_weakly_lowers_detection(self, sane_system):
        base = [0.5 * c.h1 for c in sane_system.components]
        wider = list(base)
        wider[0] = 0.9 * sane_system.components[0].h1
        for t in np.linspace(1.0, 20.0, 8):
            assert detection_time_cdf(sane_system, t, wider) <= detection_time_cdf(
                sane_system, t, base
            ) + 1e-10

    def test_nonincreasing_curve(self, sane_system):
        grid = np.linspace(0.0, 40.0, 21)
        curve = series_survival_over_times(
            sane_system, grid, [0.8 * c.h1 for c in sane_system.components]
        )
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) <= 1e-10)

    def test_monte_carlo_failure_cdf(self):
        # simple system, moderate shock rate: empirical first-passage CDF
        # from direct path sampling vs the analytic law
        rng = np.random.default_rng(1001)
        model = random_system(rng, 2)
        model = SystemModel(components=model.components, lam=0.05)
        t = 9.0
        n = 200_000
        paths_fail = np.zeros(n, dtype=bool)
        shocks = rng.poisson(model.lam * t, size=n)
        for c in model.components:
            wear = rng.gamma(c.alpha * t, 1.0 / c.beta, size=n)
            total = wear.copy()
            hard = np.zeros(n, dtype=bool)
            for m in range(1, shocks.max() + 1):
                hit = shocks >= m
                w = rng.normal(c.w_mu, c.w_sigma, size=n)
                hard |= hit & (w >= c.d)
                total += np.where(
                    hit, rng.gamma(c.y_alpha, 1.0 / c.y_beta, size=n), 0.0
                )
            paths_fail |= hard | (total >= c.h1)
        p_hat = float(np.mean(paths_fail))
        analytic = failure_time_cdf(model, t)
        stderr = np.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(analytic - p_hat) < 3.0 * stderr
