"""Tests for renewal-cycle cost analytics.

The downtime integral's independent oracle is a direct Stieltjes sum over
a fine grid; Monte Carlo cross-checks use the path simulator only in the
regime where the closed-form expression is unambiguous (detection and
failure thresholds equal, failure mass concentrated in one interval).
"""

import math

import numpy as np
import pytest

from cbmopt.errors import DomainError, TailCapError
from cbmopt.failure_model import SystemModel
from cbmopt.maintenance_policy import (
    CostBreakdown,
    CostParams,
    Policy,
    SeriesTailConfig,
    cost_rate,
    expected_downtime,
    expected_inspections,
)
from cbmopt.simulator import SimulationConfig, simulate_many
from cbmopt.system_reliability import failure_time_cdf

from conftest import random_system, table2_system


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(2718)
    return random_system(rng, 3)


def tau_at_quantile(model, q):
    lo, hi = 1e-3, 1.0
    while failure_time_cdf(model, hi) < q:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if failure_time_cdf(model, mid) < q:
            lo = mid
        else:
            hi = mid
    return hi


class TestValidation:
    def test_cost_params(self):
        with pytest.raises(DomainError):
            CostParams(c_i=-1.0, c_rho=0.0, c_r=0.0)

    def test_policy_tau(self):
        with pytest.raises(DomainError):
            Policy(tau=0.0, h2=(1.0,))

    def test_policy_threshold_against_model(self, model):
        too_high = tuple(1.1 * c.h1 for c in model.components)
        with pytest.raises(DomainError):
            expected_inspections(model, Policy(tau=5.0, h2=too_high))

    def test_tail_config(self):
        with pytest.raises(DomainError):
            SeriesTailConfig(k_tail_eps=0.0)


class TestExpectedInspections:
    def test_zero_thresholds_detect_at_first_inspection(self, model):
        policy = Policy(tau=7.0, h2=(0.0,) * model.n)
        assert expected_inspections(model, policy) == pytest.approx(1.0, abs=1e-12)

    def test_at_least_one_inspection(self, model):
        rng = np.random.default_rng(4)
        for _ in range(5):
            policy = Policy(
                tau=float(rng.uniform(2.0, 20.0)),
                h2=tuple(float(rng.uniform(0.2, 1.0)) * c.h1 for c in model.components),
            )
            assert expected_inspections(model, policy) >= 1.0

    def test_self_consistent_under_tail_refinement(self, model):
        policy = Policy(tau=4.0, h2=tuple(0.7 * c.h1 for c in model.components))
        loose = expected_inspections(model, policy, tail=SeriesTailConfig(k_tail_eps=1e-6))
        tight = expected_inspections(model, policy, tail=SeriesTailConfig(k_tail_eps=1e-7))
        assert loose == pytest.approx(tight, abs=1e-4)

    def test_monte_carlo_agreement(self, model):
        policy = Policy(tau=4.0, h2=tuple(0.6 * c.h1 for c in model.components))
        analytic = expected_inspections(model, policy)
        outcomes = simulate_many(
            model, policy, SimulationConfig(replications=20_000, seed=17)
        )
        counts = np.array([o.inspections for o in outcomes], dtype=float)
        stderr = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(analytic - counts.mean()) < 3.0 * stderr

    def test_cap_error_when_detection_cannot_trigger(self, model):
        # thresholds at h1 on a short-tailed config: cap reached first
        policy = Policy(tau=1e-4, h2=model.h1_vector)
        with pytest.raises(TailCapError):
            expected_inspections(model, policy, tail=SeriesTailConfig(k_max_cap=25))


class TestCycleLength:
    # the expected cycle length is cost_rate's e_k
    def test_zero_thresholds(self, model):
        policy = Policy(tau=9.0, h2=(0.0,) * model.n)
        e_k = cost_rate(model, policy, CostParams(1.0, 1.0, 1.0)).e_k
        assert e_k == pytest.approx(9.0, abs=1e-11)

    def test_identity_with_inspections(self, model):
        rng = np.random.default_rng(12)
        for _ in range(4):
            policy = Policy(
                tau=float(rng.uniform(2.0, 15.0)),
                h2=tuple(float(rng.uniform(0.3, 0.95)) * c.h1 for c in model.components),
            )
            e_ni = expected_inspections(model, policy)
            e_k = cost_rate(model, policy, CostParams(1.0, 1.0, 1.0)).e_k
            assert e_k == pytest.approx(policy.tau * e_ni, rel=1e-9)


class TestExpectedDowntime:
    def test_single_interval_by_parts_identity(self, model):
        # detection at the failure threshold with all mass in one interval:
        # the expectation reduces to the area between 1 and the failure CDF
        from cbmopt.system_reliability import series_survival_over_times

        tau = tau_at_quantile(model, 1.0 - 1e-10)
        policy = Policy(tau=tau, h2=model.h1_vector)
        rho = expected_downtime(model, policy)
        grid = np.linspace(0.0, tau, 4001)
        cdf = 1.0 - series_survival_over_times(model, grid, model.h1_vector)
        mids = tau - 0.5 * (grid[:-1] + grid[1:])
        stieltjes = float(np.sum(mids * np.diff(cdf)))
        assert rho == pytest.approx(stieltjes, rel=2e-4)

    def test_no_failures_no_downtime(self):
        # concentrated wear, no shocks, detection threshold at a twentieth
        # of the failure level: every cycle ends within a couple of
        # inspections while the failure CDF is still identically zero
        from cbmopt.failure_model import ComponentParams

        c = ComponentParams("steady", h1=100.0, d=5.0, alpha=50.0, beta=5.0,
                            y_alpha=1.0, y_beta=1.0, w_mu=1.0, w_sigma=0.2)
        quiet = SystemModel(components=(c,), lam=0.0)
        policy = Policy(tau=1.0, h2=(5.0,))
        assert expected_downtime(quiet, policy) < 1e-9

    def test_bounded_by_one_interval(self, model):
        rng = np.random.default_rng(5)
        for _ in range(4):
            policy = Policy(
                tau=float(rng.uniform(2.0, 15.0)),
                h2=tuple(float(rng.uniform(0.3, 0.95)) * c.h1 for c in model.components),
            )
            rho = expected_downtime(model, policy)
            assert 0.0 <= rho <= policy.tau

    def test_monte_carlo_agreement_in_unambiguous_regime(self, model):
        tau = tau_at_quantile(model, 1.0 - 1e-4)
        policy = Policy(tau=tau, h2=model.h1_vector)
        rho = expected_downtime(model, policy)
        outcomes = simulate_many(
            model, policy, SimulationConfig(replications=20_000, seed=99)
        )
        mc = float(np.mean([o.downtime for o in outcomes]))
        # binomial-ish bound on the downtime mean spread
        assert rho == pytest.approx(mc, rel=0.02)


class TestCostRate:
    def test_replacement_only_costs(self, model):
        policy = Policy(tau=6.0, h2=tuple(0.6 * c.h1 for c in model.components))
        costs = CostParams(c_i=0.0, c_rho=0.0, c_r=250.0)
        breakdown = cost_rate(model, policy, costs)
        assert breakdown.cr == pytest.approx(250.0 / breakdown.e_k, rel=1e-12)

    def test_breakdown_identities(self, model):
        policy = Policy(tau=6.0, h2=tuple(0.5 * c.h1 for c in model.components))
        costs = CostParams(c_i=2.0, c_rho=300.0, c_r=80.0)
        b = cost_rate(model, policy, costs)
        assert isinstance(b, CostBreakdown)
        assert b.e_k == pytest.approx(policy.tau * b.e_ni, rel=1e-9)
        assert b.cr == pytest.approx(b.e_tc / b.e_k, rel=1e-12)
        assert b.e_tc == pytest.approx(
            costs.c_i * b.e_ni + costs.c_rho * b.e_rho + costs.c_r, rel=1e-12
        )

    def test_homogeneous_in_costs(self, model):
        policy = Policy(tau=5.0, h2=tuple(0.7 * c.h1 for c in model.components))
        base = cost_rate(model, policy, CostParams(1.5, 120.0, 40.0))
        scaled = cost_rate(model, policy, CostParams(3.0, 240.0, 80.0))
        assert scaled.cr == pytest.approx(2.0 * base.cr, rel=1e-12)

    def test_zero_costs_zero_rate(self, model):
        policy = Policy(tau=5.0, h2=tuple(0.7 * c.h1 for c in model.components))
        assert cost_rate(model, policy, CostParams(0.0, 0.0, 0.0)).cr == 0.0

    @pytest.mark.parametrize(
        "case, tau, expected",
        [
            # table 2, h2 at half of h1: ladders of 206 and 101 inspection epochs
            ("table2", 0.004, (10.866207890558453, 9.3197335948154436e-05, 2593.5946501509447)),
            ("table2", 0.0082, (5.5691687076236551, 0.00039667134477322768, 2485.4301742822158)),
            # random systems, h2 at 0.6 of h1: 12 and 15 epochs, past the first batch of 8
            ((3, 3), 1.0, (2.8183070474332097, 0.070742627481667264, 36.916167593126325)),
            ((4, 2), 1.0, (4.0951643431689799, 0.04919593814888587, 24.139188932119421)),
        ],
    )
    def test_frozen_values(self, case, tau, expected):
        # e_ni, e_rho and cr frozen at 17 digits from a version that took
        # the detection and the failure CDF from separate survival passes
        if case == "table2":
            system, costs, frac = table2_system(), CostParams(1.0, 20000.0, 100.0), 0.5
        else:
            seed, n = case
            system = random_system(np.random.default_rng(seed), n)
            costs, frac = CostParams(1.0, 300.0, 80.0), 0.6
        policy = Policy(tau=tau, h2=tuple(frac * c.h1 for c in system.components))
        b = cost_rate(system, policy, costs)
        assert (b.e_ni, b.e_rho, b.cr) == pytest.approx(expected, rel=1e-10)

    def test_shared_ladder_matches_public_views(self):
        # cost_rate builds the detection ladder once for both expectations;
        # the standalone functions must give the same floats
        rng = np.random.default_rng(77)
        bench = table2_system()
        cases = [
            (bench, Policy(tau=0.0082, h2=tuple(0.5 * c.h1 for c in bench.components))),
        ]
        for n in (2, 3):
            system = random_system(rng, n)
            cases.append((system, Policy(tau=4.0, h2=tuple(0.6 * c.h1 for c in system.components))))
        for system, policy in cases:
            b = cost_rate(system, policy, CostParams(1.0, 300.0, 80.0))
            assert b.e_ni == expected_inspections(system, policy)
            assert b.e_rho == expected_downtime(system, policy)
