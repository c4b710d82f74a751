"""Tests for renewal-cycle cost analytics.

The downtime integral's independent oracle is a direct Stieltjes sum over
a fine grid; Monte Carlo cross-checks use the path simulator only in the
regime where the closed-form expression is unambiguous (detection and
failure thresholds equal, failure mass concentrated in one interval).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev
from scipy import integrate, special

from cbmopt import maintenance_policy, system_reliability
from cbmopt.errors import CbmError, DomainError, IntegrationError, TailCapError, TruncationCapError
from cbmopt.failure_model import ComponentParams, SystemModel, TruncationConfig, poisson_weights
from cbmopt.maintenance_policy import (
    CostBreakdown,
    CostParams,
    Policy,
    DEFAULT_TAIL,
    SeriesTailConfig,
    _BATCH,
    _PASS_CELLS,
    _cdf_ladder,
    _ladder_passes,
    _next_batch,
    cost_rate,
    expected_downtime,
    expected_inspections,
)
from cbmopt.simulator import SimulationConfig, simulate_many
from cbmopt.system_reliability import failure_law, series_survival_over_times

from conftest import count_passes, random_system, table2_system, table3_system


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(2718)
    return random_system(rng, 3)


def case_system(case):
    """Tables 2 and 3, seed s's random three-component system, or that
    system at a shock rate of its own, written "s@rate"."""
    if case == "table2":
        return table2_system()
    if case == "table3":
        return table3_system()
    if isinstance(case, str):
        seed, lam = case.split("@")
        return dataclasses.replace(random_system(np.random.default_rng(int(seed)), 3), lam=float(lam))
    return random_system(np.random.default_rng(case), 3)


def tau_at_quantile(model, q):
    """The failure-time quantile q by bisection on 1 - survival at h1."""
    h1 = model.h1_vector
    lo, hi = 1e-3, 1.0
    while 1.0 - series_survival_over_times(model, [hi], h1)[0] < q:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 1.0 - series_survival_over_times(model, [mid], h1)[0] < q:
            lo = mid
        else:
            hi = mid
    return hi


def wear_bound_end(system, h2, tau):
    """The first epoch k at which the wear-only bound
    prod_i P(wear_i(k*tau) <= h2_i) is below the tail cutoff."""
    n = 64
    while True:
        t = tau * np.arange(1, n + 1)
        bound = np.prod([special.gammainc(c.alpha * t, c.beta * h)
                         for c, h in zip(system.components, h2)], axis=0)
        below = np.flatnonzero(bound < DEFAULT_TAIL.k_tail_eps)
        if below.size:
            return int(below[0]) + 1
        n *= 2


def lone_ladder(system, policy):
    """The epochs that each survival pass of a policy's ladder asks for, and
    the ladder, each pass made alone as cost_rate makes it for one policy."""
    passes, asked = _ladder_passes(system, policy, None, DEFAULT_TAIL), []
    try:
        epochs, h2 = next(passes)
        while True:
            asked.append(epochs)
            epochs, h2 = passes.send(1.0 - series_survival_over_times(system, epochs, h2))
    except StopIteration as done:
        return asked, done.value


def law_downtime(system, policy):
    """E[rho] from the failure law's own Chebyshev pieces, each integrated
    exactly by chebint, over the intervals that the significance clip
    keeps."""
    law, tau = failure_law(system), policy.tau
    ladder = _cdf_ladder(system, policy, None, None)
    weights = np.diff(ladder)
    weights[-1] += 1.0 - ladder[-1]
    weights = np.maximum(weights, 0.0)
    f_at = np.concatenate([[0.0], law(tau * np.arange(1, len(ladder)))])
    kept = np.flatnonzero(weights * tau * np.diff(f_at) >= 1e-13 * tau)
    edges, total = law.edges, 0.0
    for k in range(kept[0] + 1, kept[-1] + 2):
        a, b = (k - 1) * tau, k * tau
        area = max(b - max(a, law.horizon), 0.0)  # F_f is 1 past the horizon
        for p in range(max(np.searchsorted(edges, a, side="right") - 1, 0), edges.size - 1):
            lo, hi = edges[p], edges[p + 1]
            if lo >= b:
                break
            x = (2.0 * np.clip([a, b], lo, hi) - lo - hi) / (hi - lo)
            antiderivative = chebyshev.chebint(law.coeffs[:, p])
            area += 0.5 * (hi - lo) * np.diff(chebyshev.chebval(x, antiderivative))[0]
        total += weights[k - 1] * (area - tau * f_at[k - 1])
    return total


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
            # random systems, h2 at 0.6 of h1: ladders of 12 and 15 epochs
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

    @pytest.mark.parametrize("case, tau", [
        (3, 5.0), (4, 20.0), (3, 100.0), (4, 100.0),
        ("table2", 0.0082), ("table2", 1.938), ("table2", 24.0), ("table2", 30.33),
        ("table3", 24.0),
    ])
    def test_zero_thresholds_end_every_cycle_at_the_first_inspection(self, case, tau):
        # h2 = 0: detection is certain at tau, so e_ni = 1, e_k = tau and e_rho
        # is the failure CDF's area over [0, tau]; the QUADPACK reference
        # breaks at tau 2^-j to meet the graded layer near 0
        if case == "table2":
            system = table2_system()
        elif case == "table3":
            system = table3_system()
        else:
            system = random_system(np.random.default_rng(case), 3)
        b = cost_rate(system, Policy(tau=tau, h2=(0.0,) * system.n), CostParams(1.0, 1.0, 1.0))
        assert (b.e_ni, b.e_k) == (1.0, tau)
        area, _ = integrate.quad(
            lambda t: 1.0 - series_survival_over_times(system, [t], system.h1_vector)[0],
            0.0, tau, points=[tau * 2.0**-j for j in range(1, 28)],
            limit=200, epsabs=0.0, epsrel=1e-10,
        )
        assert b.e_rho == pytest.approx(area, rel=1e-8)

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

    def test_downtime_integral_runs_through_the_module_name(self, monkeypatch):
        # past an incomplete law's end F_f is read from direct passes, and
        # the quadrature that integrates it there is called through
        # maintenance_policy's attribute, so a wrapper put there (as the
        # benchmark's tracer does) sees it; the model is the rate-ratio-0.01
        # one whose gamma-sum mixture ends its law early
        c = ComponentParams("x", 1.0, 3.0, 1.0, 10.0, 10.0, 1000.0, 1.0, 0.3)
        system = SystemModel(components=(c,), lam=0.01)
        law = failure_law(system)
        assert not law.complete
        policy = Policy(tau=1.2 * law.horizon, h2=(0.0,))
        costs = CostParams(1.0, 300.0, 80.0)
        plain = cost_rate(system, policy, costs)
        calls = []
        original = maintenance_policy.adaptive_integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(maintenance_policy, "adaptive_integrate", counted)
        assert cost_rate(system, policy, costs) == plain
        assert len(calls) == 1


@pytest.mark.usefixtures("cold_law")
class TestLadderPasses:
    @pytest.mark.parametrize(
        "case, tau, ladder_passes",
        [
            (3, 1.0, 1), (1, 5.0, 1), (3, 5.0, 1), ("table2", 0.0082, 1), ("table2", 0.001, 1),
            ("1@1", 0.01, 9),
        ],
    )
    def test_warm_call_makes_only_its_ladders_passes(self, monkeypatch, case, tau, ladder_passes):
        # the random systems' ladders (3 to 12 epochs) fit the first block;
        # table 2's 101 and 823 epochs (h2 at half of h1) are one pass each,
        # grown to the wear-only bound's end; at 1 shock an hour seed 1's
        # 1,308 epochs take 9 passes of 128 and 256 epochs, which the cell
        # budget keeps short; once the model's failure law is built the
        # downtime integral makes no pass
        system = case_system(case)
        if case == "table2":
            costs, frac = CostParams(1.0, 20000.0, 100.0), 0.5
        else:
            costs, frac = CostParams(1.0, 300.0, 80.0), 0.6
        policy = Policy(tau=tau, h2=tuple(frac * c.h1 for c in system.components))
        asked, ladder = lone_ladder(system, policy)
        assert len(asked) == ladder_passes <= math.ceil((len(ladder) - 1) / _BATCH)
        failure_law(system)
        passes = count_passes(monkeypatch)
        cost_rate(system, policy, costs)
        assert len(passes) == ladder_passes

    @pytest.mark.parametrize("case", ["table2", "table3", 1, 2, 3, 4, 5, 6, 7, 8, "1@1", "2@0.2"])
    def test_passes_end_by_the_wear_only_bound(self, case):
        # no pass asks for an epoch past the first where the wear-only bound
        # is below the cutoff, and a ladder of up to 64 epochs is one pass;
        # a longer pass is a doubling of the first block or ends at the
        # bound's end, within the cell budget, so no ladder takes more
        # passes than 64-epoch blocks would
        system = case_system(case)
        for tau in np.geomspace(1e-3, 1e2, 6):
            for frac in (0.05, 0.3, 0.6, 0.95):
                h2 = tuple(frac * c.h1 for c in system.components)
                asked, ladder = lone_ladder(system, Policy(tau=tau, h2=h2))
                end, epochs_in_ladder = wear_bound_end(system, h2, tau), len(ladder) - 1
                assert epochs_in_ladder <= end
                assert len(asked) <= math.ceil(epochs_in_ladder / _BATCH)
                k = 0
                for epochs in asked:
                    n = len(epochs)
                    assert epochs[-1] <= end * tau
                    if n > _BATCH:
                        terms = len(poisson_weights(system.lam * epochs[-1]))
                        assert n * terms <= _PASS_CELLS
                        assert k + n == end or n in [_BATCH << j for j in range(1, 16)]
                    k += n
                assert all(len(epochs) >= _BATCH for epochs in asked[:-1])
                if epochs_in_ladder <= _BATCH:
                    assert len(asked) == 1

    @pytest.mark.parametrize("case, tau, frac", [("table2", 0.001, 0.5), ("1@1", 0.01, 0.6)])
    def test_ladder_matches_single_epoch_passes(self, case, tau, frac):
        # a pass grown to 823 epochs, or split by the cell budget, gives each
        # epoch what a pass at that epoch alone gives, to rounding; the
        # reference passes take the shock-count tail at 1e-14, since at
        # the default 1e-12 a pass at one small time drops more mass than
        # a pass that reaches later times (1.4e-13 at seed 1's first epoch)
        system = case_system(case)
        h2 = tuple(frac * c.h1 for c in system.components)
        asked, ladder = lone_ladder(system, Policy(tau=tau, h2=h2))
        assert max(len(epochs) for epochs in asked) > _BATCH
        epochs = np.concatenate(asked)[: len(ladder) - 1]
        trunc = TruncationConfig(poisson_tail_eps=1e-14)
        direct = [1.0 - series_survival_over_times(system, [t], h2, trunc)[0] for t in epochs]
        assert np.abs(np.array(ladder[1:]) - direct).max() <= 1e-13

    def test_growth_stops_where_the_shock_count_series_ends(self):
        # a first block the bound has not ended grows to 256 epochs at the
        # default cap; with the cap just past the block's own terms, the
        # doubled pass's shock series cannot end, so the pass stays at 64
        system = case_system("1@1")
        tau, h2 = 0.01, tuple(0.6 * h for h in system.h1_vector)
        assert _next_batch(system, h2, tau, 0, None, DEFAULT_TAIL, True).size == 4 * _BATCH
        trunc = TruncationConfig(m_max_cap=len(poisson_weights(system.lam * _BATCH * tau)) - 1)
        epochs = _next_batch(system, h2, tau, 0, trunc, DEFAULT_TAIL, True)
        assert epochs.size == _BATCH and epochs[-1] == _BATCH * tau

    def test_pass_past_a_series_cap_falls_back_to_the_first_block(self, monkeypatch):
        # a pass longer than 64 epochs that raises a series cap is made
        # again as the first 64; the ladder then keeps to 64-epoch passes,
        # so it gives what passes that never grow give
        system = table2_system()
        policy = Policy(tau=0.001, h2=tuple(0.5 * h for h in system.h1_vector))
        costs = CostParams(1.0, 20000.0, 100.0)
        failure_law(system)
        monkeypatch.setattr(maintenance_policy, "_PASS_CELLS", 0)
        unextended = cost_rate(system, policy, costs)
        monkeypatch.setattr(maintenance_policy, "_PASS_CELLS", _PASS_CELLS)
        survival, sizes = maintenance_policy.series_survival_over_times, []

        def capped(model, times, *args, **kwargs):
            sizes.append(len(times))
            if len(times) > _BATCH:
                raise TruncationCapError("gamma-sum mixture needs more than 10000 terms")
            return survival(model, times, *args, **kwargs)

        monkeypatch.setattr(maintenance_policy, "series_survival_over_times", capped)
        assert cost_rate(system, policy, costs) == unextended
        assert sizes == [823] + [64] * 12 + [55]

    @pytest.mark.parametrize(
        "case, tau, most",
        [
            ("table2", 1.938, 2), ("table2", 7.667, 2), ("table2", 24.0, 2),
            ("table2", 30.33, 2), ("table3", 24.0, 2), (3, 100.0, 3),
        ],
    )
    def test_thin_failure_layer_costs_few_passes(self, monkeypatch, case, tau, most):
        # the failure CDF rises within the first percent of the first
        # interval; the graded panels and their refinement read the failure
        # law, so a warm call makes exactly its ladder's passes
        if case == "table2":
            system = table2_system()
        elif case == "table3":
            system = table3_system()
        else:
            system = random_system(np.random.default_rng(case), 3)
        policy = Policy(tau=tau, h2=tuple(0.6 * c.h1 for c in system.components))
        failure_law(system)
        passes = count_passes(monkeypatch)
        expected_inspections(system, policy)
        ladder = len(passes)
        cost_rate(system, policy, CostParams(1.0, 20000.0, 100.0))
        assert len(passes) - ladder == ladder <= most

    @pytest.mark.parametrize("case, tau", [("table2", 0.0082), ("table3", 24.0), (1, 5.0), (4, 0.3)])
    def test_cold_call_builds_the_law_once(self, monkeypatch, case, tau):
        # the first call on a model adds the law's passes to its ladder's;
        # the next call, on another policy, makes only its ladder's passes
        if case == "table2":
            system = table2_system()
        elif case == "table3":
            system = table3_system()
        else:
            system = random_system(np.random.default_rng(case), 3)
        policies = [
            Policy(tau=tau, h2=tuple(f * c.h1 for c in system.components)) for f in (0.5, 0.6)
        ]
        costs = CostParams(1.0, 300.0, 80.0)
        passes = count_passes(monkeypatch)
        ladders = []
        for policy in policies:
            before = len(passes)
            expected_inspections(system, policy)
            ladders.append(len(passes) - before)
        assert system_reliability._cached_law.cache_info().currsize == 0
        before = len(passes)
        cost_rate(system, policies[0], costs)
        cold = len(passes) - before
        before = len(passes)
        cost_rate(system, policies[1], costs)
        assert len(passes) - before == ladders[1]
        assert cold > ladders[0]
        info = system_reliability._cached_law.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize(
        "case, tau, expected",
        [
            # a 12-epoch ladder: one pass
            ((3, 3), 1.0,
             ("0x1.68be490b67ee5p+1", "0x1.21c30577784e8p-4", "0x1.27544facd10f7p+5")),
            # table 2, h2 at half of h1: a 206-epoch ladder in one pass
            # grown past the first block
            ("table2", 0.004,
             ("0x1.5bb7f99c2f8aep+3", "0x1.86e5e0a360200p-14", "0x1.4433075fc0dbdp+11")),
            # the failure CDF rises near 0, on the law's graded panels
            ("table2", 120.0,
             ("0x1.0000000000000p+0", "0x1.dfd199e35bdedp+6", "0x1.386528b88dadap+14")),
            # an 823-epoch ladder in one pass, and 823 intervals cut at the
            # law's panel edges
            ("table2", 0.001,
             ("0x1.4f7a92dc2c995p+5", "0x1.82f2531fb9980p-18", "0x1.a76cd7f766f9dp+11")),
        ],
    )
    def test_frozen_hex_values(self, case, tau, expected):
        # e_ni, e_rho and cr as exact floats from the version whose downtime
        # integral made its own survival pass for its first round
        if case == "table2":
            system, costs, frac = table2_system(), CostParams(1.0, 20000.0, 100.0), 0.5
        else:
            system = random_system(np.random.default_rng(case[0]), case[1])
            costs, frac = CostParams(1.0, 300.0, 80.0), 0.6
        policy = Policy(tau=tau, h2=tuple(frac * c.h1 for c in system.components))
        b = cost_rate(system, policy, costs)
        frozen = tuple(float.fromhex(v) for v in expected)
        assert (b.e_ni, b.e_rho, b.cr) == pytest.approx(frozen, rel=1e-10)


class TestDowntimeMesh:
    @pytest.mark.parametrize(
        "case, tau",
        [
            ("table2", 0.001), ("table2", 0.0082), ("table2", 24.0), ("table2", 120.0),
            ("table3", 24.0), (1, 0.3), (2, 5.0), (3, 20.0), (4, 100.0),
        ],
    )
    def test_complete_law_needs_no_quadrature(self, monkeypatch, case, tau):
        # on the inspection intervals cut at a complete law's panel edges
        # each area is a difference of the panel's antiderivative, so the
        # quadrature is never called, and E[rho] is the chebint reference
        if case == "table2":
            system, costs = table2_system(), CostParams(1.0, 20000.0, 100.0)
        elif case == "table3":
            system, costs = table3_system(), CostParams(1.0, 20000.0, 100.0)
        else:
            system = random_system(np.random.default_rng(case), 3)
            costs = CostParams(1.0, 300.0, 80.0)
        assert failure_law(system).complete
        policy = Policy(tau=tau, h2=tuple(0.6 * c.h1 for c in system.components))

        def refused(*args, **kwargs):
            raise AssertionError("quadrature called on a complete law")

        monkeypatch.setattr(maintenance_policy, "adaptive_integrate", refused)
        monkeypatch.setattr(maintenance_policy, "kronrod_nodes", refused)
        e_rho = cost_rate(system, policy, costs).e_rho
        assert expected_downtime(system, policy) == e_rho
        reference = law_downtime(system, policy)
        assert e_rho == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("case", ["table2", 3])
    def test_stacked_call_evaluates_the_law_once(self, monkeypatch, case):
        # every policy's epochs and areas come from one law evaluation,
        # however many policies a call stacks, a failed ladder among them
        if case == "table2":
            system, taus = table2_system(), (0.001, 0.0082, 0.5, 24.0, 120.0)
        else:
            system, taus = random_system(np.random.default_rng(case), 3), (0.3, 1.0, 5.0, 20.0, 100.0)
        costs = CostParams(1.0, 300.0, 80.0)
        policies = [Policy(tau=tau, h2=tuple(0.6 * h for h in system.h1_vector)) for tau in taus]
        policies.insert(2, Policy(tau=1.0, h2=(0.0,)))
        law = failure_law(system)
        evaluations = []
        for name in ("__call__", "cdf_and_areas"):
            original = getattr(system_reliability.FailureLaw, name)

            def counted(*args, original=original, **kwargs):
                evaluations.append(1)
                return original(*args, **kwargs)

            monkeypatch.setattr(system_reliability.FailureLaw, name, counted)
        counts = []
        for stack in (policies[:1], policies):
            before = len(evaluations)
            entries = cost_rate(system, stack, costs)
            counts.append(len(evaluations) - before)
        assert counts == [1, 1] and law.complete
        assert isinstance(entries[2], DomainError)
        assert all(isinstance(entry, CostBreakdown) for entry in entries[:2] + entries[3:])

    def test_a_policy_past_an_incomplete_laws_end_keeps_to_itself(self, monkeypatch):
        # the rate-ratio-0.01 model's law ends early; a policy whose epoch
        # reaches its end reads direct passes and integrates past it, while
        # the others in the stack, whose 19 and 8 epochs stay before it,
        # read the law as a call of their own does, and an error of that
        # integral is that policy's entry alone
        c = ComponentParams("x", 1.0, 3.0, 1.0, 10.0, 10.0, 1000.0, 1.0, 0.3)
        system = SystemModel(components=(c,), lam=0.01)
        law = failure_law(system)
        costs = CostParams(1.0, 300.0, 80.0)
        policies = [
            Policy(tau=q * law.horizon, h2=(f * c.h1,)) for q, f in ((0.05, 0.05), (1.2, 0.0), (0.1, 0.02))
        ]
        singles = [cost_rate(system, policy, costs) for policy in policies]
        assert cost_rate(system, policies, costs) == singles

        def failing(*args, **kwargs):
            raise IntegrationError("tolerance not met")

        monkeypatch.setattr(maintenance_policy, "adaptive_integrate", failing)
        stacked = cost_rate(system, policies, costs)
        assert isinstance(stacked[1], IntegrationError)
        assert [stacked[0], stacked[2]] == [singles[0], singles[2]]


class TestStackedCostRate:
    """cost_rate on a sequence of policies: one ladder pass per round for
    all of them, one entry per policy, each what a single call gives."""

    @staticmethod
    def single(system, policy, costs, trunc=None, tail=None):
        try:
            return cost_rate(system, policy, costs, trunc, tail)
        except CbmError as error:
            return error

    @staticmethod
    def assert_same(stacked, single):
        if isinstance(single, CbmError):
            assert type(stacked) is type(single) and str(stacked) == str(single)
            return
        for field in ("e_ni", "e_rho", "cr"):
            a, b = getattr(stacked, field), getattr(single, field)
            assert a == b, (field, a.hex(), b.hex())

    @pytest.mark.parametrize("case", ["table2", "table3", 1, 2, 3, 4, "table2-long", "1@1"])
    def test_entries_match_single_calls(self, case):
        # "table2-long" stacks ladders of 111 to 812 epochs, each one pass
        # grown past the first block; at 1 shock an hour seed 1's ladders
        # at short taus take passes that the cell budget splits
        rng = np.random.default_rng(17)
        if case in ("table2", "table3", "table2-long"):
            system = case_system(case.removesuffix("-long"))
            costs = CostParams(1.0, 20000.0, 100.0)
            if case == "table2-long":
                taus, tail = (1e-3, 1e-2), None
            else:
                # a 50-inspection cap fails the policies of the shortest taus
                taus, tail = (1e-3, 1e4), SeriesTailConfig(k_max_cap=50)
        else:
            system = case_system(case)
            costs, taus, tail = CostParams(1.0, 300.0, 80.0), (0.3, 100.0), None
            if case == "1@1":
                taus = (0.01, 1.0)
        failed = []
        for size in range(2, 7):
            policies = [
                Policy(
                    tau=float(np.exp(rng.uniform(*np.log(taus)))),
                    h2=tuple(float(rng.uniform()) * h for h in system.h1_vector),
                )
                for _ in range(size)
            ]
            if case not in ("table2", "table3", "table2-long"):
                # a threshold vector of the wrong length fails its own ladder
                policies.insert(size // 2, Policy(tau=1.0, h2=(0.0,)))
            stacked = cost_rate(system, policies, costs, tail=tail)
            assert len(stacked) == len(policies)
            for policy, entry in zip(policies, stacked):
                self.assert_same(entry, self.single(system, policy, costs, tail=tail))
            failed += [type(entry) for entry in stacked if isinstance(entry, CbmError)]
        if case in ("table2", "table3"):
            assert failed and set(failed) == {TailCapError}
        elif case == "table2-long":
            assert failed == []
        else:
            assert failed == [DomainError] * 5

    def test_stack_whose_pass_raises_gives_single_outcomes(self, monkeypatch):
        # at most 20 shock terms: the stack's largest time needs more, so its
        # pass raises; each policy then gets what a single call gives
        system = random_system(np.random.default_rng(1), 3)
        costs, trunc = CostParams(1.0, 300.0, 80.0), TruncationConfig(m_max_cap=20)
        policies = [
            Policy(tau=tau, h2=tuple(0.6 * h for h in system.h1_vector))
            for tau in (2.0, 100.0, 5.0)
        ]
        survival = maintenance_policy.series_survival_over_times
        raised = []

        def watched(*args, **kwargs):
            try:
                return survival(*args, **kwargs)
            except TruncationCapError:
                raised.append(kwargs.get("segments"))
                raise

        monkeypatch.setattr(maintenance_policy, "series_survival_over_times", watched)
        stacked = cost_rate(system, policies, costs, trunc)
        assert raised[0] is not None  # the stacked pass
        assert isinstance(stacked[1], TruncationCapError)
        for policy, entry in zip(policies, stacked):
            single = self.single(system, policy, costs, trunc)
            self.assert_same(entry, single)
            if not isinstance(single, CbmError):
                assert entry == single

    def test_single_policy_call_keeps_its_form(self):
        system = table2_system()
        costs = CostParams(1.0, 20000.0, 100.0)
        policy = Policy(tau=0.0082, h2=tuple(0.5 * h for h in system.h1_vector))
        assert cost_rate(system, [policy], costs) == [cost_rate(system, policy, costs)]
        with pytest.raises(TailCapError):
            cost_rate(system, policy, costs, tail=SeriesTailConfig(k_max_cap=50))
        [entry] = cost_rate(system, [policy], costs, tail=SeriesTailConfig(k_max_cap=50))
        assert isinstance(entry, TailCapError)


def test_batch_is_halved_to_what_the_shock_count_series_reaches():
    # at 5 shocks an hour the 12 epochs before the wear-only bound's end need
    # more shock terms than the cap allows, though the ladder ends at the
    # 4th: the pass is halved until its last epoch is within reach
    system = dataclasses.replace(random_system(np.random.default_rng(1), 3), lam=5.0)
    policy = Policy(tau=2.15, h2=tuple(0.95 * h for h in system.h1_vector))
    assert wear_bound_end(system, policy.h2, policy.tau) == 12
    with pytest.raises(TruncationCapError):
        series_survival_over_times(system, [12 * policy.tau], policy.h2)
    asked, ladder = lone_ladder(system, policy)
    assert [len(epochs) for epochs in asked] == [6] and len(ladder) == 5
    for epoch, f_k in zip(asked[0], ladder[1:]):
        direct = 1.0 - series_survival_over_times(system, [epoch], policy.h2)[0]
        assert f_k == pytest.approx(direct, abs=1e-13)
    breakdown = cost_rate(system, policy, CostParams(1.0, 300.0, 80.0))
    assert math.isfinite(breakdown.e_rho) and breakdown.e_ni == expected_inspections(system, policy)


@pytest.mark.parametrize("case", ["table2", 3])
def test_breakdowns_do_not_depend_on_call_order(cold_law, case):
    # every failure-CDF value comes from a law built whole on first use, so
    # a cold start with policy A then B gives B what a cold start with B gives
    if case == "table2":
        system, costs, taus = table2_system(), CostParams(1.0, 20000.0, 100.0), (0.0082, 24.0)
    else:
        system = random_system(np.random.default_rng(case), 3)
        costs, taus = CostParams(1.0, 300.0, 80.0), (0.3, 100.0)
    a, b = (Policy(tau=tau, h2=tuple(0.6 * h for h in system.h1_vector)) for tau in taus)
    forward = [cost_rate(system, policy, costs) for policy in (a, b)]
    system_reliability._cached_law.cache_clear()
    backward = [cost_rate(system, policy, costs) for policy in (b, a)]
    assert forward == backward[::-1]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    tau=st.floats(min_value=0.05, max_value=40.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_ladder_never_outlasts_the_wear_only_bound(seed, n, tau, frac):
    system = random_system(np.random.default_rng(seed), n)
    policy = Policy(tau=tau, h2=tuple(frac * c.h1 for c in system.components))
    end = wear_bound_end(system, policy.h2, tau)
    asked, ladder = lone_ladder(system, policy)
    assert len(ladder) - 1 <= end and asked[-1][-1] <= end * tau
