"""Tests for the multistart projected simplex search.

The solver plumbing is validated on a synthetic quadratic with a known
minimizer before it ever touches the cost-rate objective.
"""

import math

import numpy as np
import pytest

from cbmopt import maintenance_policy, system_reliability
from cbmopt.errors import AllStartsFailedError, DomainError
from cbmopt.failure_model import SystemModel
from cbmopt.maintenance_policy import CostParams, Policy, cost_rate
from cbmopt.optimizer import (
    OptimizerConfig,
    _lhs_starts,
    _lockstep,
    optimize_fixed_tau,
    optimize_policy,
)
from cbmopt.system_reliability import failure_law

from conftest import count_passes, random_system, table2_system


def quadratic(center):
    center = np.asarray(center)

    def f(z):
        return float(np.sum((np.asarray(z) - center) ** 2))

    return f


def multistart(objective, dim, config, starts=None):
    """_lockstep on a scalar objective, from the configured Latin-hypercube
    starts unless others are given: (best x, best f, trace, iterations of
    the best start, its stop reason, converged-start count)."""
    if starts is None:
        starts = _lhs_starts(config.seed, config.multistart_count, dim)
    return _lockstep(lambda points: [objective(z) for z in points], starts, config)


class TestMinimizeMultistart:
    def test_recovers_known_minimum(self):
        config = OptimizerConfig(multistart_count=8, max_iterations=400, seed=3)
        x, fx, trace, iterations, _, converged = multistart(quadratic([0.62, 0.31]), 2, config)
        assert np.allclose(x, [0.62, 0.31], atol=1e-4)
        assert fx < 1e-7
        assert converged >= 1
        assert iterations <= 400

    def test_boundary_minimum_is_reachable(self):
        config = OptimizerConfig(multistart_count=8, max_iterations=400, seed=1)
        x, fx, *_ = multistart(quadratic([1.2, 0.5]), 2, config)
        assert x[0] == pytest.approx(1.0, abs=1e-5)

    def test_trace_is_monotone_and_dominates_result(self):
        config = OptimizerConfig(multistart_count=4, max_iterations=300, seed=9)
        x, fx, trace, *_ = multistart(quadratic([0.4, 0.7, 0.2]), 3, config)
        values = [v for _, v in trace]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert fx <= values[0]

    def test_determinism(self):
        config = OptimizerConfig(multistart_count=6, max_iterations=200, seed=11)
        runs = [multistart(quadratic([0.3, 0.9]), 2, config) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_more_starts_never_worse(self):
        # rough objective with several local minima
        def bumpy(z):
            z = np.asarray(z)
            return float(
                np.sum((z - 0.73) ** 2) + 0.05 * np.sum(np.cos(40.0 * z))
            )

        for seed in range(5):
            base = OptimizerConfig(multistart_count=4, max_iterations=300, seed=seed)
            more = OptimizerConfig(multistart_count=16, max_iterations=300, seed=seed)
            _, f_base, *_ = multistart(bumpy, 2, base)
            _, f_more, *_ = multistart(bumpy, 2, more)
            assert f_more <= f_base + 1e-12

    def test_all_starts_failed(self):
        config = OptimizerConfig(multistart_count=4, max_iterations=50, seed=0)
        with pytest.raises(AllStartsFailedError):
            multistart(lambda z: math.inf, 2, config)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            OptimizerConfig(multistart_count=0)
        with pytest.raises(DomainError):
            OptimizerConfig(tau_bounds=(1.0, 0.5))
        for tolerances in [{"x_tol": math.inf}, {"f_tol": math.inf}, {"f_tol": float("1e309")}]:
            with pytest.raises(DomainError, match="finite"):
                OptimizerConfig(**tolerances)

    def test_lockstep_matches_one_start_at_a_time(self):
        # each start makes the decisions it would make alone, and the best
        # is the first start with the lowest value
        def bumpy(z):
            return float(np.sum((np.asarray(z) - 0.73) ** 2) + 0.05 * np.sum(np.cos(40.0 * z)))

        config = OptimizerConfig(multistart_count=6, max_iterations=200, seed=2)
        starts = _lhs_starts(config.seed, config.multistart_count, 2)
        together = multistart(bumpy, 2, config, starts=starts)
        alone = [multistart(bumpy, 2, config, starts=[x0]) for x0 in starts]
        first_best = min(range(len(alone)), key=lambda i: alone[i][1])
        x, fx, trace, iterations, reason, _ = alone[first_best]
        assert np.array_equal(together[0], x) and together[1] == fx
        assert together[3] == iterations and together[4] == reason
        assert [(list(z), f) for z, f in together[2]] == [(list(z), f) for z, f in trace]
        assert together[5] == sum(run[5] for run in alone)


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(88)
    return random_system(rng, 2)


@pytest.fixture(scope="module")
def costs():
    return CostParams(c_i=1.0, c_rho=400.0, c_r=60.0)


class TestPolicyOptimization:

    def test_joint_optimization_beats_random_policies(self, model, costs):
        config = OptimizerConfig(
            multistart_count=2, max_iterations=60, x_tol=1e-3, f_tol=1e-6,
            seed=2, tau_bounds=(0.5, 200.0),
        )
        result = optimize_policy(model, costs, config)
        assert result.best_breakdown.cr == pytest.approx(
            cost_rate(model, result.best_policy, costs).cr, rel=1e-12
        )
        rng = np.random.default_rng(5)
        for _ in range(5):
            policy = Policy(
                tau=float(rng.uniform(1.0, 50.0)),
                h2=tuple(float(rng.uniform(0.1, 0.95)) * c.h1 for c in model.components),
            )
            assert result.best_breakdown.cr <= cost_rate(model, policy, costs).cr + 1e-9

    def test_trace_policies_are_feasible(self, model, costs):
        config = OptimizerConfig(
            multistart_count=1, max_iterations=40, x_tol=1e-3, f_tol=1e-6,
            seed=4, tau_bounds=(0.5, 200.0),
        )
        result = optimize_policy(model, costs, config)
        lo, hi = config.tau_bounds
        for policy, value in result.trace:
            assert lo <= policy.tau <= hi
            for v, c in zip(policy.h2, model.components):
                assert 0.0 <= v <= c.h1
            assert math.isfinite(value)

    def test_fixed_tau_keeps_tau(self, model, costs):
        config = OptimizerConfig(
            multistart_count=2, max_iterations=40, x_tol=1e-3, f_tol=1e-6, seed=6
        )
        result = optimize_fixed_tau(model, costs, 7.5, config)
        assert result.best_policy.tau == 7.5
        for policy, _ in result.trace:
            assert policy.tau == 7.5

    def test_fixed_tau_validation(self, model, costs):
        with pytest.raises(DomainError):
            optimize_fixed_tau(model, costs, -1.0)

    def test_determinism_of_policy_search(self, model, costs):
        config = OptimizerConfig(
            multistart_count=2, max_iterations=25, x_tol=1e-3, f_tol=1e-6,
            seed=123, tau_bounds=(0.5, 200.0),
        )
        a = optimize_policy(model, costs, config)
        b = optimize_policy(model, costs, config)
        assert a.best_policy == b.best_policy
        assert a.best_breakdown.cr == b.best_breakdown.cr

    def test_each_point_is_evaluated_once(self, model, costs, monkeypatch):
        import cbmopt.optimizer as optimizer_module

        seen = []

        def counting_cost_rate(model, policies, costs, trunc=None, tail=None, **kwargs):
            seen.extend((policy.tau, policy.h2) for policy in policies)
            return cost_rate(model, policies, costs, trunc, tail, **kwargs)

        monkeypatch.setattr(optimizer_module, "cost_rate", counting_cost_rate)
        config = OptimizerConfig(
            multistart_count=2, max_iterations=30, x_tol=1e-3, f_tol=1e-6,
            seed=7, tau_bounds=(0.5, 200.0),
        )
        result = optimize_policy(model, costs, config)
        assert len(seen) == len(set(seen)) == result.evaluations
        assert (result.best_policy.tau, result.best_policy.h2) in set(seen)
        assert result.best_breakdown == cost_rate(model, result.best_policy, costs)

    def test_lockstep_search_matches_one_start_at_a_time(self, costs, monkeypatch):
        # the stacked calls give every start the values that single calls
        # give, so each start makes the decisions it would make alone
        import cbmopt.optimizer as optimizer_module

        system = random_system(np.random.default_rng(1), 3)
        config = OptimizerConfig(
            multistart_count=3, max_iterations=25, seed=4, tau_bounds=(0.5, 100.0),
        )
        together = optimize_policy(system, costs, config)
        points = _lhs_starts(config.seed, config.multistart_count, system.n + 1)
        alone = []
        for start in range(config.multistart_count):
            # the search of one point of the same start stream
            one = points[start : start + 1].copy()
            monkeypatch.setattr(optimizer_module, "_lhs_starts", lambda *_: one)
            alone.append(optimize_policy(system, costs, config))
        values = [run.best_breakdown.cr for run in alone]
        best = alone[values.index(min(values))]
        assert together.best_policy == best.best_policy
        assert together.best_breakdown == best.best_breakdown
        assert together.trace == best.trace
        assert together.iterations_used == best.iterations_used
        assert together.starts_converged == sum(run.starts_converged for run in alone)

    def test_stacked_calls_share_survival_passes(self, monkeypatch):
        # two starts in lockstep: every round's candidates share one ladder
        # pass, so there are fewer passes than evaluations
        system = random_system(np.random.default_rng(1), 3)
        survival = maintenance_policy.series_survival_over_times
        passes = []

        def counted_survival(*args, **kwargs):
            passes.append(1)
            return survival(*args, **kwargs)

        monkeypatch.setattr(maintenance_policy, "series_survival_over_times", counted_survival)
        config = OptimizerConfig(
            multistart_count=2, max_iterations=20, seed=0, tau_bounds=(1.0, 10.0),
        )
        result = optimize_policy(system, CostParams(c_i=50.0, c_rho=400.0, c_r=60.0), config)
        assert 0 < len(passes) < result.evaluations


@pytest.mark.usefixtures("cold_law")
class TestFailureLawInSearch:
    TABLE2_COSTS = CostParams(c_i=1.0, c_rho=20000.0, c_r=100.0)

    @pytest.mark.parametrize("case, tau", [
        ("table2", 24.0), ("table2", 0.01), (1, 1.0), (1, 20.0),
    ])
    def test_fixed_tau_best_matches_a_fresh_evaluation(self, case, tau):
        # the search's breakdown came out of a stacked call, the fresh one
        # out of a single call on the same law
        if case == "table2":
            system, costs = table2_system(), self.TABLE2_COSTS
        else:
            system = random_system(np.random.default_rng(case), 3)
            costs = CostParams(c_i=1.0, c_rho=300.0, c_r=80.0)
        config = OptimizerConfig(multistart_count=2, max_iterations=40, seed=1)
        result = optimize_fixed_tau(system, costs, tau, config)
        assert result.best_breakdown == cost_rate(system, result.best_policy, costs)

    def test_later_evaluations_make_one_survival_pass(self, monkeypatch):
        # table 2 at 0.5 h: the first stacked call also builds the failure
        # law; every later one makes only its one ladder pass for all its
        # policies, and the search builds the law once
        import cbmopt.optimizer as optimizer_module

        passes = count_passes(monkeypatch)
        per_call = []

        def counted_cost_rate(*args, **kwargs):
            before = len(passes)
            breakdowns = cost_rate(*args, **kwargs)
            per_call.append(len(passes) - before)
            return breakdowns

        monkeypatch.setattr(optimizer_module, "cost_rate", counted_cost_rate)
        # the search that configs/table2.json ships
        config = OptimizerConfig(multistart_count=8, max_iterations=300, seed=1)
        result = optimize_fixed_tau(table2_system(), self.TABLE2_COSTS, 0.5, config)
        assert per_call[0] > 1
        assert len(per_call) >= 20
        assert per_call[1:] == [1] * (len(per_call) - 1)
        assert result.evaluations > len(per_call)
        assert system_reliability._cached_law.cache_info().misses == 1

    @pytest.mark.parametrize("case, tau", [("table2", 24.0), (3, 5.0)])
    def test_fixed_tau_search_builds_the_law_at_most_once(self, case, tau):
        if case == "table2":
            system, costs = table2_system(), self.TABLE2_COSTS
        else:
            system = random_system(np.random.default_rng(case), 3)
            costs = CostParams(c_i=1.0, c_rho=300.0, c_r=80.0)
        config = OptimizerConfig(multistart_count=4, max_iterations=40, seed=0)
        optimize_fixed_tau(system, costs, tau, config)
        assert system_reliability._cached_law.cache_info().misses == 1
        # an equal model built anew finds the same law
        again = SystemModel(components=tuple(system.components), lam=system.lam)
        assert again is not system and failure_law(again) is failure_law(system)
        assert system_reliability._cached_law.cache_info().misses == 1
