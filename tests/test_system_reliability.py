"""Tests for series-system survival and the two first-passage CDFs, which
are its complements at the critical and on-condition thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from cbmopt import failure_model, system_reliability
from cbmopt.errors import DomainError, TruncationCapError
from cbmopt.failure_model import (
    DEFAULT_TRUNCATION,
    ComponentParams,
    SystemModel,
    TruncationConfig,
    event_probabilities,
    poisson_weights,
    shock_survival_prob,
    threshold_cdf_block,
)
from cbmopt.maintenance_policy import CostParams, Policy, cost_rate
from cbmopt.system_reliability import (
    FailureLaw,
    as_thresholds,
    failure_law,
    series_survival_over_times,
)

from conftest import count_passes, random_component, random_system, table2_system, table3_system


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
        assert series_survival_over_times(sane_system, [0.0], sane_system.h1_vector)[0] == 1.0

    def test_single_component_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        c = random_component(rng)
        model = SystemModel(components=(c,), lam=0.04)
        t, x = 6.0, 0.6 * c.h1
        weights = poisson_weights(model.lam * t)
        survive = shock_survival_prob(c)
        below = threshold_cdf_block(c, x, [t], len(weights) - 1)[:, 0]
        expected = sum(w * survive**m * below[m] for m, w in enumerate(weights))
        assert series_survival_over_times(model, [t], [x])[0] == pytest.approx(
            expected, rel=1e-12
        )

    def test_without_shocks_survival_is_a_product_of_wear_cdfs(self, sane_system):
        quiet = SystemModel(components=sane_system.components, lam=0.0)
        thresholds = [0.7 * c.h1 for c in quiet.components]
        t = 4.0
        expected = 1.0
        for c, v in zip(quiet.components, thresholds):
            expected *= threshold_cdf_block(c, v, [t], 0)[0, 0]
        assert series_survival_over_times(quiet, [t], thresholds)[0] == pytest.approx(
            expected, abs=1e-12
        )

    def test_monotone_in_time_and_thresholds(self, sane_system):
        thresholds = [0.6 * c.h1 for c in sane_system.components]
        ts = np.linspace(0.0, 25.0, 12)
        vals = series_survival_over_times(sane_system, ts, thresholds)
        assert np.all(np.diff(vals) <= 1e-10)
        # one row per threshold fraction 0.3, 0.5, 0.8 and 1.0, at t = 8
        rows = [[f * c.h1 for c in sane_system.components] for f in (0.3, 0.5, 0.8, 1.0)]
        by_fraction = series_survival_over_times(sane_system, [8.0], rows)[:, 0]
        assert np.all(np.diff(by_fraction) >= -1e-10)

    def test_series_never_beats_its_weakest_component(self, sane_system):
        thresholds = [0.7 * c.h1 for c in sane_system.components]
        ts = np.linspace(0.5, 30.0, 20)
        r_series = series_survival_over_times(sane_system, ts, thresholds)
        singles = [
            series_survival_over_times(SystemModel(components=(c,), lam=sane_system.lam), ts, [v])
            for c, v in zip(sane_system.components, thresholds)
        ]
        assert np.all(r_series <= np.min(singles, axis=0) + 1e-10)

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_segments_are_bit_for_bit_one_call_each(self, seed):
        # runs with their own shock-count cutoffs and mixture stops; one run
        # holds only t = 0, where there is no mixture at all
        system = random_system(np.random.default_rng(seed), 3)
        rng = np.random.default_rng(seed)
        runs = [np.array([0.0]), np.array([0.0, 5e-324, 0.3])] + [
            np.sort(rng.uniform(0.0, scale, size))
            for scale, size in [(1.0, 5), (80.0, 9), (8.0, 3)]
        ]
        levels = [[float(rng.uniform()) * v for v in system.h1_vector] for _ in runs]
        rows = np.repeat(levels, [r.size for r in runs], axis=0)
        times = np.concatenate(runs)
        sizes = [r.size for r in runs]
        stacked = series_survival_over_times(system, times[:, None], rows, segments=sizes)[:, 0]
        singles = [
            series_survival_over_times(system, r[:, None], np.repeat([v], r.size, axis=0))[:, 0]
            for r, v in zip(runs, levels)
        ]
        assert np.array_equal(stacked, np.concatenate(singles))
        # shared times: every row at each run's times
        shared = series_survival_over_times(system, times, levels[:2], segments=sizes)
        apart = [series_survival_over_times(system, r, levels[:2]) for r in runs]
        assert np.array_equal(shared, np.concatenate(apart, axis=1))
        for bad in ([times.size - 1], [0, times.size]):
            with pytest.raises(DomainError, match="segments"):
                series_survival_over_times(system, times, levels[0], segments=bad)

    def test_every_stacked_row_is_validated(self, sane_system):
        bad = [1.5 * c.h1 for c in sane_system.components]
        with pytest.raises(DomainError, match=r"thresholds\[0\]"):
            series_survival_over_times(sane_system, [1.0], [sane_system.h1_vector, bad])


class TestFirstPassageCdfs:
    def test_zero_at_time_zero(self, sane_system):
        assert 1.0 - series_survival_over_times(sane_system, [0.0], sane_system.h1_vector)[0] == 0.0

    def test_failure_cdf_is_survival_complement(self, sane_system):
        # for one component, the failure CDF is the status law's failed mass
        t = 7.5
        for c in sane_system.components:
            alone = SystemModel(components=(c,), lam=sane_system.lam)
            failure = 1.0 - series_survival_over_times(alone, [t], [c.h1])[0]
            failed = event_probabilities(c, sane_system.lam, t, c.h1)[2]
            assert failure == pytest.approx(failed, abs=1e-15)

    def test_detection_equals_failure_when_thresholds_coincide(self, sane_system):
        h1 = sane_system.h1_vector
        detection, failure = series_survival_over_times(sane_system, [0.0, 3.0, 11.0], [h1, h1])
        assert detection == pytest.approx(failure, abs=1e-15)

    def test_zero_thresholds_detect_immediately(self, sane_system):
        zeros = [0.0] * sane_system.n
        survival = series_survival_over_times(sane_system, [0.5, 20.0], zeros)
        assert np.all(1.0 - survival == 1.0)

    def test_detection_dominates_failure(self, sane_system):
        h2 = [0.55 * c.h1 for c in sane_system.components]
        ts = np.linspace(0.5, 30.0, 15)
        detection, failure = 1.0 - series_survival_over_times(
            sane_system, ts, [h2, sane_system.h1_vector]
        )
        assert np.all(detection >= failure - 1e-10)

    def test_widening_one_threshold_weakly_lowers_detection(self, sane_system):
        base = [0.5 * c.h1 for c in sane_system.components]
        wider = list(base)
        wider[0] = 0.9 * sane_system.components[0].h1
        ts = np.linspace(1.0, 20.0, 8)
        widened, detection = 1.0 - series_survival_over_times(sane_system, ts, [wider, base])
        assert np.all(widened <= detection + 1e-10)

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
        analytic = 1.0 - series_survival_over_times(model, [t], model.h1_vector)[0]
        stderr = np.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(analytic - p_hat) < 3.0 * stderr


def law_error(law: FailureLaw, model: SystemModel, trunc=None) -> float:
    """Largest |law - direct pass| at uniform times over the law's reach
    (1.2 horizons where F_f = 1 beyond the horizon, else up to the law's
    end) and at times log-spread down to 1e-12 of it."""
    reach = 1.2 * law.horizon if law.complete else law.horizon * (1.0 - 2.0**-20)
    grids = [np.linspace(0.0, reach, 241), reach * np.logspace(-12.0, 0.0, 241)]
    return max(
        float(np.abs(law(t) - (1.0 - series_survival_over_times(model, t, model.h1_vector, trunc))).max())
        for t in grids
    )


class TestFailureLaw:
    @pytest.mark.parametrize("case", ["table2", "table3", 1, 2, 3, 4])
    def test_matches_direct_passes(self, case):
        if case == "table2":
            model = table2_system()
        elif case == "table3":
            model = table3_system()
        else:
            model = random_system(np.random.default_rng(case), 3)
        law = FailureLaw(model, DEFAULT_TRUNCATION)
        assert law.complete
        assert series_survival_over_times(model, [law.horizon], model.h1_vector)[0] < 1e-17
        assert law_error(law, model) <= 1e-13

    @pytest.mark.parametrize("case", ["table2", "table3", 1, 2, 3, 4])
    def test_panel_areas_match_direct_passes(self, case):
        # every panel cut at an inner point into two pieces, and one piece
        # past the horizon. 20-point Gauss-Legendre is exact for the law's
        # degree-23 pieces, so on their values it checks the antiderivative
        # relative to each area, and on direct passes it differs by the
        # law's error alone, about 1e-14 times the width
        if case == "table2":
            model = table2_system()
        elif case == "table3":
            model = table3_system()
        else:
            model = random_system(np.random.default_rng(case), 3)
        law = failure_law(model)
        edges = law.edges
        inner = edges[:-1] + 0.3 * np.diff(edges)
        mesh = np.append(np.sort(np.concatenate([edges, inner])), 1.5 * law.horizon)
        lo, hi = mesh[:-1], mesh[1:]
        cdf, areas = law.cdf_and_areas(hi, lo, hi)
        assert areas[-1] == hi[-1] - lo[-1]
        assert np.array_equal(cdf, law(hi))
        x, w = np.polynomial.legendre.leggauss(20)
        half = 0.5 * (hi - lo)[:-1]
        nodes = 0.5 * (hi + lo)[:-1, None] + half[:, None] * x
        panel = np.searchsorted(edges, lo[:-1], side="right") - 1
        start, end = edges[panel, None], edges[panel + 1, None]
        pieces = chebyshev.chebval(((2.0 * nodes - start - end) / (end - start)).T, law.coeffs[:, panel], tensor=False)
        own = (half[:, None] * pieces.T * w).sum(axis=1)
        assert np.all(np.abs(areas[:-1] - own) <= 1e-13 * own)
        survival = series_survival_over_times(model, nodes.ravel(), model.h1_vector)
        direct = (half[:, None] * (1.0 - survival.reshape(nodes.shape)) * w).sum(axis=1)
        assert np.all(np.abs(areas[:-1] - direct) <= 1e-13 * 2.0 * half)

    def test_cached_by_value(self):
        model = random_system(np.random.default_rng(1), 3)
        twin = SystemModel(components=tuple(model.components), lam=model.lam)
        assert failure_law(model) is failure_law(twin) is failure_law(model, DEFAULT_TRUNCATION)
        assert failure_law(model, TruncationConfig(m_max_cap=50)) is not failure_law(model)

    def test_ends_where_the_shock_series_reaches_its_cap(self):
        # three shock terms cannot reach the horizon: the law ends at the
        # latest time they reach, and a call with a later time reads all its
        # times from a direct pass, which raises where that pass raises
        model = random_system(np.random.default_rng(1), 3)
        trunc = TruncationConfig(m_max_cap=3)
        law = FailureLaw(model, trunc)
        assert not law.complete
        assert law_error(law, model, trunc) <= 1e-13
        ending = np.array([0.5, 1.0]) * law.horizon
        direct = 1.0 - series_survival_over_times(model, ending, model.h1_vector, trunc)
        assert np.array_equal(law(ending), direct)
        later = np.array([0.5, 2.0]) * law.horizon
        with pytest.raises(TruncationCapError) as direct:
            series_survival_over_times(model, later, model.h1_vector, trunc)
        with pytest.raises(TruncationCapError, match="shock-count series") as from_law:
            law(later)
        assert str(from_law.value) == str(direct.value)

    def test_ends_where_the_mixture_series_reaches_its_cap(self):
        # at a rate ratio of 0.01 the gamma-sum mixture cannot reach the
        # wear-only bound's time, 80 h, within its term cap, so the law ends
        # before it; policies whose integral ends before or after that end
        # both evaluate, the latter from direct passes
        c = ComponentParams("x", 1.0, 3.0, 1.0, 10.0, 10.0, 1000.0, 1.0, 0.3)
        model = SystemModel(components=(c,), lam=0.01)
        with pytest.raises(TruncationCapError, match="gamma-sum mixture"):
            series_survival_over_times(model, 80.0 * 0.5 ** np.arange(9), model.h1_vector)
        law = FailureLaw(model, DEFAULT_TRUNCATION)
        assert not law.complete and law.horizon > 0.0
        # the mixture's rounding here moves a direct pass by up to 8e-13
        # with the other times in it, and the law stays within that
        assert law_error(law, model) <= 1e-12
        for tau in (0.5 * law.horizon, 1.2 * law.horizon):
            breakdown = cost_rate(model, Policy(tau=tau, h2=(0.0,)), CostParams(1.0, 1.0, 1.0))
            assert breakdown.e_rho == pytest.approx(failure_cdf_area(model, tau), rel=1e-8)

    def test_build_pass_the_mixture_cannot_finish_ends_the_law(self, monkeypatch):
        # capped at 1,000 terms, the mixture reaches the horizon pass's nine
        # times but not the first build pass's intermediate ones: the law
        # ends at 0, and every call is one direct pass
        monkeypatch.setattr(failure_model, "MIXTURE_TERM_CAP", 1000)
        c = ComponentParams("x", 1.0, 3.0, 1.0, 10.0, 0.1, 1000.0 / 3.0, 1.0, 0.3)
        model = SystemModel(components=(c,), lam=0.01)
        law = FailureLaw(model, DEFAULT_TRUNCATION)
        assert (law.horizon, law.complete) == (0.0, False)
        t = np.linspace(0.0, 5.0, 11)
        assert np.array_equal(law(t), 1.0 - series_survival_over_times(model, t, model.h1_vector))
        breakdown = cost_rate(model, Policy(tau=1.0, h2=(0.0,)), CostParams(1.0, 1.0, 1.0))
        assert breakdown.e_rho == pytest.approx(failure_cdf_area(model, 1.0), rel=1e-8)

    def test_panel_at_the_noise_floor_ends_the_law(self, monkeypatch):
        # the mixture's rounding keeps some panels' trailing coefficients
        # above 1e-14 however small the panel; a halving that does not
        # shrink them ends the law there, where halving them to the depth
        # cap would double the build pass at every level
        c = ComponentParams("x", 1.0, 3.0, 1.0, 30.0, 0.1, 600.0, 1.0, 0.3)
        model = SystemModel(components=(c,), lam=0.01)
        passes = count_passes(monkeypatch)
        law = FailureLaw(model, DEFAULT_TRUNCATION)
        assert len(passes) <= 6
        assert not law.complete and law.horizon > 0.0
        assert law_error(law, model) <= 1e-12

    def test_unresolved_panel_ends_the_law(self, monkeypatch):
        # with no halving allowed, the panels that need one end the law at
        # the first of them; later times are read from direct passes
        model = random_system(np.random.default_rng(1), 3)
        whole = FailureLaw(model, DEFAULT_TRUNCATION)
        monkeypatch.setattr(system_reliability, "_LAW_DEPTH", 0)
        law = FailureLaw(model, DEFAULT_TRUNCATION)
        assert not law.complete and 0.0 < law.horizon < whole.horizon
        assert law_error(law, model) <= 1e-13
        t = np.linspace(0.0, whole.horizon, 41)
        assert np.array_equal(law(t), 1.0 - series_survival_over_times(model, t, model.h1_vector))


def failure_cdf_area(model: SystemModel, tau: float) -> float:
    """The failure CDF's area over [0, tau] by 20-point Gauss-Legendre on
    panels graded by halves toward 0, from one direct pass."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.concatenate([[0.0], tau * 0.5 ** np.arange(40, -1, -1)])
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * x
    survival = series_survival_over_times(model, nodes.ravel(), model.h1_vector)
    return float((half[:, None] * (1.0 - survival.reshape(nodes.shape)) * w).sum())


@given(
    p=st.floats(min_value=1e-3, max_value=1.0),
    fast_rate=st.floats(min_value=0.1, max_value=10.0),
    wear_is_slow=st.booleans(),
    wear_shape=st.floats(min_value=1e-3, max_value=1e3),
    jump_shape=st.floats(min_value=1e-3, max_value=1e2),
    lam=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=15, deadline=None)
def test_failure_law_at_extreme_parameters(p, fast_rate, wear_is_slow, wear_shape, jump_shape, lam):
    # rate ratios down to 1e-3 and shapes over six decades: the law is
    # built, and it matches direct passes up to where it ends
    beta, y_beta = (p * fast_rate, fast_rate) if wear_is_slow else (fast_rate, p * fast_rate)
    c = ComponentParams("x", 1.0, 1.5, wear_shape, beta, jump_shape, y_beta, 1.0, 0.3)
    model = SystemModel(components=(c,), lam=lam)
    assert law_error(FailureLaw(model, DEFAULT_TRUNCATION), model) <= 1e-13
