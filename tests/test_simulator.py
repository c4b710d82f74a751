"""Tests for the path-wise Monte Carlo engine."""

import math

import numpy as np
import pytest

from cbmopt.errors import DomainError, HorizonCapError
from cbmopt.failure_model import ComponentParams, SystemModel
from cbmopt.maintenance_policy import CostParams, Policy, cost_rate
from cbmopt.simulator import (
    _BLOCK,
    _bisect,
    SimulationConfig,
    empirical_first_passage_cdf,
    estimate_cost_rate,
    estimate_from_outcomes,
    simulate_many,
)
from cbmopt.system_reliability import series_survival_over_times

from conftest import random_system


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(161)
    return random_system(rng, 3)


def make_policy(model, frac=0.6, tau=5.0):
    return Policy(tau=tau, h2=tuple(frac * c.h1 for c in model.components))


def dkw_epsilon(n, delta=1e-6):
    """Dvoretzky-Kiefer-Wolfowitz band: an empirical CDF of n draws lies
    within it of the true CDF everywhere with probability 1 - delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


class TestSimulateCycle:
    def test_zero_thresholds_end_at_first_inspection(self, model):
        policy = Policy(tau=3.0, h2=(0.0,) * model.n)
        outcomes = simulate_many(model, policy, SimulationConfig(replications=20, seed=0))
        for outcome in outcomes:
            assert outcome.inspections == 1
            assert outcome.cycle_length == 3.0

    def test_no_shocks_means_no_hard_failures(self, model):
        quiet = SystemModel(components=model.components, lam=0.0)
        policy = make_policy(quiet)
        outcomes = simulate_many(quiet, policy, SimulationConfig(replications=100, seed=0))
        for outcome in outcomes:
            assert outcome.failure_kind != "hard"

    def test_determinism(self, model):
        policy = make_policy(model)
        config = SimulationConfig(replications=200, seed=42)
        assert simulate_many(model, policy, config) == simulate_many(model, policy, config)

    def test_outcome_invariants(self, model):
        policy = make_policy(model)
        for o in simulate_many(model, policy, SimulationConfig(replications=300, seed=0)):
            assert o.cycle_length == o.inspections * policy.tau
            assert 0.0 <= o.downtime < policy.tau
            if o.downtime > 0.0:
                assert not o.ended_preventively
                assert o.failure_time is not None
                assert o.failure_time < o.cycle_length
            if o.ended_preventively:
                assert o.failure_time is None
                assert o.failure_kind == "none"

    def test_detection_at_failure_threshold_accounts_downtime_exactly(self, model):
        policy = Policy(tau=6.0, h2=model.h1_vector)
        seen_corrective = 0
        for o in simulate_many(model, policy, SimulationConfig(replications=150, seed=0)):
            if not o.ended_preventively:
                seen_corrective += 1
                assert o.downtime == pytest.approx(
                    o.inspections * policy.tau - o.failure_time, abs=1e-12
                )
        assert seen_corrective > 0

    def test_horizon_cap(self, model):
        # thresholds at the failure level with a tiny interval: no detection
        # within a handful of inspections
        policy = Policy(tau=1e-5, h2=model.h1_vector)
        config = SimulationConfig(replications=1, seed=3, horizon_cap=20)
        with pytest.raises(HorizonCapError):
            simulate_many(model, policy, config)

    def test_frozen_draws(self):
        # values of the pre-compaction engine at 17 digits, on a shock-heavy
        # system where cycles span several inspections and each soft failure
        # takes up to ten bisection rounds: any change in the order or number
        # of draws moves them
        base = random_system(np.random.default_rng(2024), 3)
        model = SystemModel(components=base.components, lam=0.5)
        policy = Policy(tau=2.0, h2=tuple(0.9 * c.h1 for c in model.components))
        outcomes = simulate_many(model, policy, SimulationConfig(replications=3000, seed=5))
        downtime = np.mean([o.downtime for o in outcomes])
        inspections = np.mean([o.inspections for o in outcomes])
        assert downtime == pytest.approx(0.53440936415455853, rel=1e-15)
        assert inspections == pytest.approx(3.6216666666666666, rel=1e-15)
        assert outcomes[:3] == [
            (3, 6.0, 0.91481820712784145, False, 5.0851817928721585, "soft"),
            (5, 10.0, 1.4286863887045023, False, 8.5713136112954977, "soft"),
            (2, 4.0, 0.65355926020798405, False, 3.346440739792016, "soft"),
        ]

    def test_partial_final_block(self, model):
        # block b draws from substream b, so the first block's cycles do not
        # depend on how many replications follow it
        policy = make_policy(model)
        full = simulate_many(model, policy, SimulationConfig(replications=_BLOCK, seed=4))
        longer = simulate_many(model, policy, SimulationConfig(replications=_BLOCK + 1, seed=4))
        assert len(longer) == _BLOCK + 1
        assert longer[:_BLOCK] == full
        last = longer[-1]
        assert last.cycle_length == last.inspections * policy.tau
        assert 0.0 <= last.downtime < policy.tau


def lethal_shock_model(lam):
    """Every shock destroys a component and wear is negligible: the first
    shock is the failure, so the failure time is exponential with rate lam."""
    component = ComponentParams(
        name="lethal", h1=1.0, d=1.0, alpha=1e-9, beta=1.0,
        y_alpha=1.0, y_beta=1.0, w_mu=100.0, w_sigma=1.0,
    )
    return SystemModel(components=(component, component), lam=lam)


class TestLethalShocks:
    def test_inspections_are_geometric(self):
        lam, tau, n = 0.5, 1.0, 20_000
        model = lethal_shock_model(lam)
        policy = Policy(tau=tau, h2=model.h1_vector)
        outcomes = simulate_many(model, policy, SimulationConfig(replications=n, seed=8))
        assert all(o.failure_kind == "hard" for o in outcomes)
        counts = np.array([o.inspections for o in outcomes], dtype=float)
        exact = 1.0 / (1.0 - math.exp(-lam * tau))
        stderr = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - exact) < 4.0 * stderr

    def test_first_passage_is_exponential(self):
        lam, n = 0.5, _BLOCK + 1
        model = lethal_shock_model(lam)
        grid = np.linspace(0.0, 8.0, 81)
        curve = empirical_first_passage_cdf(
            model, model.h1_vector, SimulationConfig(replications=n, seed=12), grid
        )
        empirical = np.array([v for _, v in curve])
        assert np.max(np.abs(empirical - (1.0 - np.exp(-lam * grid)))) < dkw_epsilon(n)


class TestEstimateCostRate:
    def test_replacement_only_matches_analytic(self, model):
        policy = make_policy(model)
        costs = CostParams(c_i=0.0, c_rho=0.0, c_r=100.0)
        est = estimate_cost_rate(
            model, policy, costs, SimulationConfig(replications=20_000, seed=7)
        )
        analytic = cost_rate(model, policy, costs).cr
        assert abs(est.mean_cr - analytic) < 3.0 * est.stderr_cr

    def test_unambiguous_regime_full_agreement(self, model):
        # detection at the failure threshold, failure mass almost surely in
        # the first interval: the closed form and the paths must agree
        from test_maintenance_policy import tau_at_quantile

        tau = tau_at_quantile(model, 1.0 - 1e-4)
        policy = Policy(tau=tau, h2=model.h1_vector)
        costs = CostParams(c_i=1.0, c_rho=200.0, c_r=50.0)
        est = estimate_cost_rate(
            model, policy, costs, SimulationConfig(replications=30_000, seed=23)
        )
        analytic = cost_rate(model, policy, costs).cr
        assert abs(est.mean_cr - analytic) < 3.0 * est.stderr_cr

    def test_stderr_shrinks_like_root_n(self, model):
        policy = make_policy(model)
        costs = CostParams(1.0, 200.0, 50.0)
        a = estimate_cost_rate(
            model, policy, costs, SimulationConfig(replications=4_000, seed=5)
        )
        b = estimate_cost_rate(
            model, policy, costs, SimulationConfig(replications=8_000, seed=5)
        )
        ratio = b.stderr_cr / a.stderr_cr
        assert 0.8 / math.sqrt(2.0) < ratio < 1.2 / math.sqrt(2.0)

    def test_single_replication_flags_stderr(self, model):
        est = estimate_cost_rate(
            model,
            make_policy(model),
            CostParams(1.0, 1.0, 1.0),
            SimulationConfig(replications=1, seed=9),
        )
        assert math.isnan(est.stderr_cr)

    def test_no_outcomes(self):
        with pytest.raises(DomainError):
            estimate_from_outcomes([], CostParams(1.0, 1.0, 1.0))

    def test_preventive_fraction_bounds(self, model):
        est = estimate_cost_rate(
            model,
            make_policy(model),
            CostParams(1.0, 1.0, 1.0),
            SimulationConfig(replications=2_000, seed=31),
        )
        assert 0.0 <= est.preventive_fraction <= 1.0


class TestFirstPassage:
    def test_zero_at_origin_and_nondecreasing(self, model):
        grid = np.linspace(0.0, 20.0, 41)
        curve = empirical_first_passage_cdf(
            model,
            model.h1_vector,
            SimulationConfig(replications=5_000, seed=3),
            grid,
        )
        assert curve[0] == (0.0, 0.0)
        values = [v for _, v in curve]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_ks_distance_to_analytic_cdf(self, model):
        n = 100_000
        grid = np.linspace(0.0, 25.0, 126)
        curve = empirical_first_passage_cdf(
            model,
            model.h1_vector,
            SimulationConfig(replications=n, seed=41),
            grid,
        )
        analytic = 1.0 - series_survival_over_times(model, grid, model.h1_vector)
        empirical = np.array([v for _, v in curve])
        ks = float(np.max(np.abs(empirical - analytic)))
        assert ks < 1.63 / math.sqrt(n) + 0.002  # sampling band plus a fixed margin

    def test_exact_at_grid_points_whatever_the_sub_step(self, model):
        # crossings are bisected at grid points only, so even a sub-step of
        # an eighth of the horizon leaves the curve inside the DKW band of
        # F(t) itself, with no lateness slack, and changes no value
        n, horizon = 200_000, 25.0
        grid = np.linspace(0.0, horizon, 51)
        curves = [
            np.array([v for _, v in empirical_first_passage_cdf(
                model, model.h1_vector,
                SimulationConfig(replications=n, seed=43, sub_step=sub_step), grid,
            )])
            for sub_step in (horizon / 8.0, None)
        ]
        np.testing.assert_array_equal(curves[0], curves[1])
        cdf = 1.0 - series_survival_over_times(model, grid, model.h1_vector)
        assert np.max(np.abs(curves[0] - cdf)) < dkw_epsilon(n)

    def test_repeated_grid_points(self, model):
        config = SimulationConfig(replications=2_000, seed=6)
        grid = [0.0, 5.0, 5.0, 10.0, 20.0, 20.0]
        curve = empirical_first_passage_cdf(model, model.h1_vector, config, grid)
        distinct = empirical_first_passage_cdf(
            model, model.h1_vector, config, sorted(set(grid))
        )
        assert [t for t, _ in curve] == grid
        assert dict(curve) == dict(distinct)

    def test_grid_validation(self, model):
        config = SimulationConfig(replications=10, seed=0)
        for grid in ([2.0, 1.0], [], [-1.0, 1.0], [math.nan, 1.0], [0.0, math.inf]):
            with pytest.raises(DomainError):
                empirical_first_passage_cdf(model, model.h1_vector, config, grid)


class TestCrossingResolution:
    """sub_step sets how finely simulate_many locates a failure."""

    def test_failures_never_early_and_at_most_one_sub_step_late(self, model):
        # with h2 = h1 every cycle ends at the inspection after its failure,
        # so the failure times are draws of the first-passage time: their
        # empirical CDF must sit between F(t - sub_step) and F(t), up to the
        # DKW band, with a sub-step as coarse as half the interval
        n, tau = 20_000, 5.0
        sub_step = tau / 2.0
        policy = Policy(tau=tau, h2=model.h1_vector)
        config = SimulationConfig(replications=n, seed=43, sub_step=sub_step)
        failures = np.sort([o.failure_time for o in simulate_many(model, policy, config)])
        grid = np.linspace(0.0, 25.0, 51)
        empirical = np.searchsorted(failures, grid, side="right") / n
        eps = dkw_epsilon(n)
        cdf = 1.0 - series_survival_over_times(model, grid, model.h1_vector)
        earlier = np.maximum(grid - sub_step, 0.0)
        cdf_before = 1.0 - series_survival_over_times(model, earlier, model.h1_vector)
        assert np.all(empirical <= cdf + eps)
        assert np.all(empirical >= cdf_before - eps)

    def test_sub_step_below_float_spacing(self, model):
        # brackets stop halving at one ulp of t and count as resolved there
        policy = make_policy(model)
        config = SimulationConfig(replications=200, seed=0, sub_step=1e-300)
        outcomes = simulate_many(model, policy, config)
        assert any(not o.ended_preventively for o in outcomes)
        for o in outcomes:
            assert o.cycle_length == o.inspections * policy.tau
            assert 0.0 <= o.downtime < policy.tau


class TestBridgeRefinement:
    class MeanBridge:
        """Stands in for the generator in _bisect: each beta draw is its mean
        a / (a + b), so every bridge is the straight line between its end
        levels and the crossing time has a closed form."""

        def beta(self, a, b):
            return a / (a + b)

    @staticmethod
    def brackets(seed, count=300):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 10.0, count)
        hi = lo + rng.uniform(0.05, 5.0, count)
        limit = 4.0
        x_lo = limit - rng.uniform(0.01, 3.0, count)
        x_hi = limit + rng.uniform(0.0, 3.0, count)
        crossing = lo + (limit - x_lo) / (x_hi - x_lo) * (hi - lo)
        return limit, lo, hi, x_lo, x_hi, crossing

    def test_halving_lands_at_most_one_sub_step_after_the_crossing(self):
        limit, lo, hi, x_lo, x_hi, crossing = self.brackets(11)
        for sub_step in (1.0, 0.05, 1e-6):
            found = _bisect(0.9, limit, self.MeanBridge(), lo, hi, x_lo, x_hi, sub_step, None)
            slack = 1e-12 * hi
            assert np.all(found >= crossing - slack)
            assert np.all(found <= crossing + sub_step + slack)
            assert np.all((found > lo) & (found <= hi))

    def test_grid_lands_on_the_first_grid_point_at_or_after_the_crossing(self):
        limit, lo, hi, x_lo, x_hi, crossing = self.brackets(12)
        for grid in (np.linspace(0.0, 16.0, 41), np.linspace(0.0, 16.0, 257), np.array([3.0, 7.5])):
            found = _bisect(0.9, limit, self.MeanBridge(), lo, hi, x_lo, x_hi, None, grid)
            for f, a, b, t in zip(found, lo, hi, crossing):
                inside = grid[(grid > a) & (grid < b) & (grid >= t)]
                assert f == (inside[0] if inside.size else b)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(replications=0)
        with pytest.raises(DomainError):
            SimulationConfig(sub_step=0.0)
