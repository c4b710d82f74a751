"""Tests for the multistart projected simplex search.

The solver plumbing is validated on a synthetic quadratic with a known
minimizer before it ever touches the cost-rate objective.
"""

import math

import numpy as np
import pytest

from cbmopt import maintenance_policy
from cbmopt.errors import AllStartsFailedError, DomainError
from cbmopt.failure_model import SystemModel
from cbmopt.maintenance_policy import CostParams, Policy, cost_rate
from cbmopt.optimizer import (
    OptimizerConfig,
    _FailureCdfMemo,
    minimize_multistart,
    optimize_fixed_tau,
    optimize_policy,
)
from cbmopt.system_reliability import series_survival_over_times

from conftest import random_system, table2_system


def quadratic(center):
    center = np.asarray(center)

    def f(z):
        return float(np.sum((np.asarray(z) - center) ** 2))

    return f


class TestMinimizeMultistart:
    def test_recovers_known_minimum(self):
        config = OptimizerConfig(multistart_count=8, max_iterations=400, seed=3)
        x, fx, trace, iterations, converged = minimize_multistart(
            quadratic([0.62, 0.31]), 2, config
        )
        assert np.allclose(x, [0.62, 0.31], atol=1e-4)
        assert fx < 1e-7
        assert converged >= 1
        assert iterations <= 400

    def test_boundary_minimum_is_reachable(self):
        config = OptimizerConfig(multistart_count=8, max_iterations=400, seed=1)
        x, fx, *_ = minimize_multistart(quadratic([1.2, 0.5]), 2, config)
        assert x[0] == pytest.approx(1.0, abs=1e-5)

    def test_trace_is_monotone_and_dominates_result(self):
        config = OptimizerConfig(multistart_count=4, max_iterations=300, seed=9)
        x, fx, trace, *_ = minimize_multistart(quadratic([0.4, 0.7, 0.2]), 3, config)
        values = [v for _, v in trace]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert fx <= values[0]

    def test_determinism(self):
        config = OptimizerConfig(multistart_count=6, max_iterations=200, seed=11)
        runs = [minimize_multistart(quadratic([0.3, 0.9]), 2, config) for _ in range(2)]
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
            _, f_base, *_ = minimize_multistart(bumpy, 2, base)
            _, f_more, *_ = minimize_multistart(bumpy, 2, more)
            assert f_more <= f_base + 1e-12

    def test_all_starts_failed(self):
        config = OptimizerConfig(multistart_count=4, max_iterations=50, seed=0)
        with pytest.raises(AllStartsFailedError):
            minimize_multistart(lambda z: math.inf, 2, config)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            OptimizerConfig(multistart_count=0)
        with pytest.raises(DomainError):
            OptimizerConfig(tau_bounds=(1.0, 0.5))


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

        def counting_cost_rate(model, policy, costs, trunc=None, tail=None, **kwargs):
            seen.append((policy.tau, policy.h2))
            return cost_rate(model, policy, costs, trunc, tail, **kwargs)

        monkeypatch.setattr(optimizer_module, "cost_rate", counting_cost_rate)
        config = OptimizerConfig(
            multistart_count=2, max_iterations=30, x_tol=1e-3, f_tol=1e-6,
            seed=7, tau_bounds=(0.5, 200.0),
        )
        result = optimize_policy(model, costs, config)
        assert len(seen) == len(set(seen))
        assert (result.best_policy.tau, result.best_policy.h2) in set(seen)
        assert result.best_breakdown == cost_rate(model, result.best_policy, costs)


class TestFailureCdfMemo:
    TABLE2_COSTS = CostParams(c_i=1.0, c_rho=20000.0, c_r=100.0)

    @pytest.mark.parametrize("case, tau", [
        ("table2", 24.0), ("table2", 0.01), (1, 1.0), (1, 20.0),
    ])
    def test_fixed_tau_best_matches_a_fresh_evaluation(self, case, tau):
        # the search's breakdown came through the memo, the fresh one from
        # direct survival passes; a hit must be the very pass it stands for
        if case == "table2":
            system, costs = table2_system(), self.TABLE2_COSTS
        else:
            system = random_system(np.random.default_rng(case), 3)
            costs = CostParams(c_i=1.0, c_rho=300.0, c_r=80.0)
        config = OptimizerConfig(multistart_count=2, max_iterations=40, seed=1)
        result = optimize_fixed_tau(system, costs, tau, config)
        assert result.best_breakdown == cost_rate(system, result.best_policy, costs)

    def test_later_evaluations_make_one_survival_pass(self, monkeypatch):
        # table 2 at 24 h: the first evaluation refines the failure CDF's
        # area in several passes; every later one makes only its ladder pass
        import cbmopt.optimizer as optimizer_module

        passes = []
        per_evaluation = []
        survival = maintenance_policy.series_survival_over_times

        def counted_survival(*args, **kwargs):
            passes.append(1)
            return survival(*args, **kwargs)

        def counted_cost_rate(*args, **kwargs):
            before = len(passes)
            breakdown = cost_rate(*args, **kwargs)
            per_evaluation.append(len(passes) - before)
            return breakdown

        monkeypatch.setattr(maintenance_policy, "series_survival_over_times", counted_survival)
        monkeypatch.setattr(optimizer_module, "cost_rate", counted_cost_rate)
        # the search that configs/table2.json ships
        config = OptimizerConfig(multistart_count=8, max_iterations=300, seed=1)
        optimize_fixed_tau(table2_system(), self.TABLE2_COSTS, 24.0, config)
        assert per_evaluation[0] > 1
        assert len(per_evaluation) >= 20
        assert per_evaluation[1:] == [1] * (len(per_evaluation) - 1)

    def test_holds_one_tau_only(self):
        system = table2_system()
        memo = _FailureCdfMemo(system, None)
        a, b = np.array([0.5, 1.0]), np.array([2.0])
        memo.at(1.0)(a)
        memo.at(1.0)(b)
        assert len(memo.held) == 2
        memo.at(1.0)
        assert len(memo.held) == 2
        memo.at(2.0)(a)
        assert memo.tau == 2.0 and list(memo.held) == [a.tobytes()]

    def test_hits_are_the_stored_read_only_pass(self):
        system = random_system(np.random.default_rng(1), 3)
        memo = _FailureCdfMemo(system, None)
        ts = np.linspace(0.1, 9.0, 15)
        first = memo.at(5.0)(ts)
        assert memo.at(5.0)(ts.copy()) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        direct = 1.0 - series_survival_over_times(system, ts, system.h1_vector)
        assert np.array_equal(first, direct)
