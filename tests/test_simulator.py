"""Tests for the path-wise Monte Carlo engine."""

import hashlib
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from cbmopt import simulator
from cbmopt.cli import parse_config
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

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
        # values at full precision on a shock-heavy system where cycles span
        # several inspections and each soft failure takes up to ten
        # bisection rounds: any change in the order or number of draws
        # moves them
        model, policy = shock_heavy_system()
        outcomes = simulate_many(model, policy, SimulationConfig(replications=3000, seed=5))
        downtime = np.mean([o.downtime for o in outcomes])
        inspections = np.mean([o.inspections for o in outcomes])
        assert downtime == pytest.approx(0.5389613542329715, rel=1e-15)
        assert inspections == pytest.approx(3.609, rel=1e-15)
        assert outcomes[:3] == [
            (3, 6.0, 1.70703125, False, 4.29296875, "soft"),
            (5, 10.0, 0.1517583808790306, False, 9.84824161912097, "soft"),
            (6, 12.0, 0.25825767078410955, False, 11.74174232921589, "soft"),
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


def shock_heavy_system():
    """Three components under lam = 0.5 with h2 = 0.9 h1 and tau = 2: cycles
    span several inspections and many shock stretches."""
    base = random_system(np.random.default_rng(2024), 3)
    model = SystemModel(components=base.components, lam=0.5)
    return model, Policy(tau=2.0, h2=tuple(0.9 * c.h1 for c in model.components))


class TestBlockResolution:
    """A block's paths advance first; its crossings are resolved after."""

    class MeanBridge:
        """A substream whose beta draws are their means a / (a + b): the
        path draws then come in the same order whenever the bridge draws
        are made."""

        def __init__(self, rng):
            self.rng = rng

        def beta(self, a, b):
            return a / (a + b)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    def test_mean_bridges_give_frozen_cycles_and_curves(self, monkeypatch):
        # the digest was taken from the engine that bisected each stretch
        # as soon as it was drawn: deferring the bisection to the end of
        # the block moves only the bridge draws
        substream = simulator._substream
        monkeypatch.setattr(simulator, "_substream",
                            lambda *key: self.MeanBridge(substream(*key)))
        model, policy = shock_heavy_system()
        table2 = parse_config(str(CONFIG_DIR / "table2_tau24.json"))
        digest = hashlib.sha256()
        for system, pol, seed, grid in (
            (model, policy, 5, np.linspace(0.0, 20.0, 101)),
            (table2.system, table2.policy, 1, np.linspace(0.0, 0.04, 101)),
        ):
            config = SimulationConfig(replications=20_000, seed=seed)
            digest.update(repr(simulate_many(system, pol, config)).encode())
            config = SimulationConfig(replications=20_000, seed=7)
            curve = empirical_first_passage_cdf(system, system.h1_vector, config, grid)
            digest.update(repr(curve).encode())
        assert digest.hexdigest() == (
            "1b51ecd0c283c3e8e87d9e1e13735eee3362ccea15632dbae84f0d7438c60fe4"
        )

    def test_one_bisection_per_component_and_block(self, monkeypatch):
        # per block: _bisect calls, and the most stretches whose brackets
        # one component's list gathered
        blocks = []
        substream, bisect, resolve = simulator._substream, simulator._bisect, simulator._resolve

        def new_block(*key):
            blocks.append([0, 0])
            return substream(*key)

        def counted(*args):
            blocks[-1][0] += 1
            return bisect(*args)

        def batched(model, limits, rng, fail, brackets, *rest):
            blocks[-1][1] = max(map(len, brackets))
            return resolve(model, limits, rng, fail, brackets, *rest)

        monkeypatch.setattr(simulator, "_substream", new_block)
        monkeypatch.setattr(simulator, "_bisect", counted)
        monkeypatch.setattr(simulator, "_resolve", batched)
        model, policy = shock_heavy_system()
        config = SimulationConfig(replications=_BLOCK + 2000, seed=3)
        grid = np.linspace(0.0, 20.0, 41)
        for run in (lambda: simulate_many(model, policy, config),
                    lambda: empirical_first_passage_cdf(model, model.h1_vector, config, grid)):
            blocks.clear()
            run()
            assert len(blocks) == 2
            for bisections, stretches in blocks:
                assert 0 < bisections <= model.n
                # the engine that bisected each stretch as it went made one
                # call per component and stretch
                assert stretches > 10


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
        assert math.isnan(est.stderr_downtime)

    def test_columns_equal_records(self, model):
        # estimate_cost_rate skips the records; across two blocks it must
        # still give what the records give, field for field, bit for bit
        policy = make_policy(model)
        costs = CostParams(1.0, 200.0, 50.0)
        config = SimulationConfig(replications=_BLOCK + 500, seed=17)
        direct = estimate_cost_rate(model, policy, costs, config)
        outcomes = simulate_many(model, policy, config)
        assert direct == estimate_from_outcomes(outcomes, costs)
        downtimes = [o.downtime for o in outcomes]
        assert 0.0 < direct.preventive_fraction < 1.0
        assert direct.stderr_downtime == pytest.approx(
            statistics.stdev(downtimes) / math.sqrt(len(downtimes)), rel=1e-12
        )

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
        # DKW band, with a sub-step as coarse as half the interval. On table
        # 2 at tau = 24 h all four components cross inside the first quiet
        # stretch, so nearly every cycle bisects its later components below
        # a cap
        n = 20_000
        table2 = parse_config(str(CONFIG_DIR / "table2.json")).system
        cases = [(model, 5.0, 2.5, 25.0)] + [
            (table2, 24.0, 24.0 / parts, 0.5) for parts in (1024, 64)
        ]
        for system, tau, sub_step, horizon in cases:
            policy = Policy(tau=tau, h2=system.h1_vector)
            config = SimulationConfig(replications=n, seed=43, sub_step=sub_step)
            failures = np.sort([o.failure_time for o in simulate_many(system, policy, config)])
            grid = np.linspace(0.0, horizon, 51)
            empirical = np.searchsorted(failures, grid, side="right") / n
            eps = dkw_epsilon(n)
            cdf = 1.0 - series_survival_over_times(system, grid, system.h1_vector)
            earlier = np.maximum(grid - sub_step, 0.0)
            cdf_before = 1.0 - series_survival_over_times(system, earlier, system.h1_vector)
            assert np.all(empirical <= cdf + eps), (tau, sub_step)
            assert np.all(empirical >= cdf_before - eps), (tau, sub_step)

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
    def crossing(limit, lo, hi, x_lo, x_hi):
        """Where the straight line from (lo, x_lo) to (hi, x_hi) meets limit."""
        return lo + (limit - x_lo) / (x_hi - x_lo) * (hi - lo)

    @classmethod
    def brackets(cls, seed, count=300):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 10.0, count)
        hi = lo + rng.uniform(0.05, 5.0, count)
        limit = 4.0
        x_lo = limit - rng.uniform(0.01, 3.0, count)
        x_hi = limit + rng.uniform(0.0, 3.0, count)
        return limit, lo, hi, x_lo, x_hi, cls.crossing(limit, lo, hi, x_lo, x_hi)

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

    @staticmethod
    def caps(seed, lo, hi, points):
        """One cap per bracket: a point strictly inside it (from points when
        given), its right end, past it, at or before its left end, or inf."""
        rng = np.random.default_rng(seed)
        inside = rng.uniform(lo, hi)
        if points is not None:
            # the grid point nearest the drawn one, where one lies inside
            near = points[np.abs(points[:, None] - inside).argmin(axis=0)]
            inside = np.where((near > lo) & (near < hi), near, hi)
        kind = rng.integers(0, 9, lo.size)
        return np.select(
            [kind < 4, kind == 4, kind == 5, kind == 6, kind == 7],
            [inside, hi, hi + 1.0, lo, lo - rng.uniform(0.0, 1.0, lo.size)],
            np.inf,
        )

    def test_cap_keeps_the_earliest_crossing(self):
        # a path fails at its earliest crossing, so a bracket need only be
        # refined below the cap. With the cap another component's crossing
        # on the same stretch, as in _advance, min(found, cap) is exactly
        # the uncapped answer on a grid, and when halving it is never
        # before the earlier of the two crossings and at most one sub-step
        # after it. With any cap it is the cap where the crossing lies past
        # it, and otherwise the uncapped answer on a grid (caps at grid
        # points) and within one sub-step of the crossing when halving.
        limit, lo, hi, x_lo, x_hi, crossing = self.brackets(13)
        _, _, _, y_lo, y_hi, _ = self.brackets(17)
        bridge = self.MeanBridge()
        # the other component crosses anywhere, or just after this one,
        # mostly in the same last cell
        other_levels = ((y_lo, y_hi), (x_lo, x_hi - 1e-9))
        for sub_step, grid in ((0.05, None), (1e-6, None), (None, np.linspace(0.0, 16.0, 41)),
                               (None, np.linspace(0.0, 16.0, 257))):
            free = _bisect(0.9, limit, bridge, lo, hi, x_lo, x_hi, sub_step, grid)
            others = [_bisect(0.9, limit, bridge, lo, hi, y0, y1, sub_step, grid)
                      for y0, y1 in other_levels]
            assert 50 < (free < others[0]).sum() < 250
            assert (free == others[1]).sum() > 250
            for (y0, y1), other in zip(other_levels, others):
                found = _bisect(0.9, limit, bridge, lo, hi, x_lo, x_hi, sub_step, grid, other)
                first = np.minimum(found, other)
                if grid is not None:
                    np.testing.assert_array_equal(first, np.minimum(free, other))
                else:
                    earliest = np.minimum(crossing, self.crossing(limit, lo, hi, y0, y1))
                    slack = 1e-12 * hi
                    assert np.all(first >= earliest - slack)
                    assert np.all(first <= earliest + sub_step + slack)

            cap = self.caps(14, lo, hi, grid)
            first = np.minimum(
                _bisect(0.9, limit, bridge, lo, hi, x_lo, x_hi, sub_step, grid, cap), cap
            )
            before = crossing < cap
            assert 50 < before.sum() < lo.size
            assert np.all(first[~before] == cap[~before])
            if grid is not None:
                np.testing.assert_array_equal(first, np.minimum(free, cap))
            else:
                slack = 1e-12 * hi[before]
                assert np.all(first[before] >= crossing[before] - slack)
                assert np.all(first[before] <= crossing[before] + sub_step + slack)

    def test_cap_costs_one_draw_past_the_crossing_and_none_behind_the_bracket(self):
        class CountingBridge(self.MeanBridge):
            draws = 0

            def beta(self, a, b):
                self.draws += a.size
                return super().beta(a, b)

        limit, lo, hi, x_lo, x_hi, crossing = self.brackets(15)
        cap = self.caps(16, lo, hi, None)
        cases = {"past": 0, "behind": 0}
        for j in range(lo.size):
            rng = CountingBridge()
            one = slice(j, j + 1)
            _bisect(0.9, limit, rng, lo[one], hi[one], x_lo[one], x_hi[one], 1e-3, None, cap[one])
            if lo[j] >= cap[j]:
                cases["behind"] += 1
                assert rng.draws == 0
            elif crossing[j] > cap[j] and cap[j] < hi[j]:
                cases["past"] += 1
                assert rng.draws == 1
        assert min(cases.values()) > 10

    def test_table2_cycle_takes_few_bridge_draws(self, monkeypatch):
        # at tau = 24 h every component crosses inside the first interval;
        # bisecting each to the sub-step costs 40 draws a cycle, the capped
        # bisection of the later components about 16
        class Counting:
            draws = 0

            def __init__(self, rng):
                self.rng = rng

            def beta(self, a, b):
                Counting.draws += a.size
                return self.rng.beta(a, b)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        substream = simulator._substream
        monkeypatch.setattr(simulator, "_substream", lambda *key: Counting(substream(*key)))
        config = parse_config(str(CONFIG_DIR / "table2_tau24.json"))
        n = 2000
        simulate_many(config.system, config.policy, SimulationConfig(replications=n, seed=1))
        assert Counting.draws < 20 * n

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(replications=0)
        with pytest.raises(DomainError):
            SimulationConfig(sub_step=0.0)
