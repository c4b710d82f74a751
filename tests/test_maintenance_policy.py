"""Tests for renewal-cycle cost analytics.

The downtime integral's independent oracle is a direct Stieltjes sum over
a fine grid; Monte Carlo cross-checks use the path simulator only in the
regime where the closed-form expression is unambiguous (detection and
failure thresholds equal, failure mass concentrated in one interval).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cbmopt import maintenance_policy, system_reliability
from cbmopt.errors import CbmError, DomainError, TailCapError, TruncationCapError
from cbmopt.failure_model import SystemModel, TruncationConfig
from cbmopt.maintenance_policy import (
    CostBreakdown,
    CostParams,
    Policy,
    DEFAULT_TAIL,
    SeriesTailConfig,
    _cdf_ladder,
    _wear_bound_end,
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
        # the quadrature is called through maintenance_policy's attribute,
        # so a wrapper put there (as the benchmark's tracer does) sees it
        bench = table2_system()
        system = random_system(np.random.default_rng(1), 3)
        cases = [
            (bench, Policy(tau=0.0082, h2=tuple(0.5 * c.h1 for c in bench.components))),
            (system, Policy(tau=5.0, h2=tuple(0.5 * c.h1 for c in system.components))),
        ]
        costs = CostParams(1.0, 300.0, 80.0)
        plain = [cost_rate(s, p, costs) for s, p in cases]
        calls = []
        original = maintenance_policy.adaptive_integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(maintenance_policy, "adaptive_integrate", counted)
        for (s, p), expected in zip(cases, plain):
            before = len(calls)
            assert cost_rate(s, p, costs) == expected
            assert len(calls) > before


@pytest.mark.usefixtures("cold_law")
class TestFirstBatch:
    @pytest.mark.parametrize("seed, n, tau", [(3, 3, 1.0), (1, 3, 5.0), (3, 3, 5.0)])
    def test_short_ladder_costs_one_survival_pass(self, monkeypatch, seed, n, tau):
        # the ladder (3 to 12 epochs) fits the first batch, and once the
        # model's failure law is built the downtime integral makes no pass
        system = random_system(np.random.default_rng(seed), n)
        policy = Policy(tau=tau, h2=tuple(0.6 * c.h1 for c in system.components))
        end = _wear_bound_end(system, policy.h2, tau, DEFAULT_TAIL)
        assert end is not None and len(_cdf_ladder(system, policy, None, None)) - 1 <= end
        failure_law(system)
        passes = count_passes(monkeypatch)
        cost_rate(system, policy, CostParams(1.0, 300.0, 80.0))
        assert len(passes) == 1

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
            # a 12-epoch ladder inside the first batch
            ((3, 3), 1.0,
             ("0x1.68be490b67ee5p+1", "0x1.21c30577784e8p-4", "0x1.27544facd10f7p+5")),
            # table 2, h2 at half of h1: a 206-epoch ladder
            ("table2", 0.004,
             ("0x1.5bb7f99c2f8aep+3", "0x1.86e5e0a360200p-14", "0x1.4433075fc0dbdp+11")),
            # probe at 1.0: the graded mesh toward zero
            ("table2", 120.0,
             ("0x1.0000000000000p+0", "0x1.dfd199e35bdedp+6", "0x1.386528b88dadap+14")),
            # an 823-epoch ladder: downtime in several 256-interval chunks
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
            assert abs(a - b) <= 1e-15 * abs(b), (field, a.hex(), b.hex())

    @pytest.mark.parametrize("case", ["table2", "table3", 1, 2, 3, 4])
    def test_entries_match_single_calls(self, case):
        rng = np.random.default_rng(17)
        if case in ("table2", "table3"):
            system = table2_system() if case == "table2" else table3_system()
            costs, taus = CostParams(1.0, 20000.0, 100.0), (1e-3, 1e4)
            # a 50-inspection cap fails the policies of the shortest taus
            tail = SeriesTailConfig(k_max_cap=50)
        else:
            system = random_system(np.random.default_rng(case), 3)
            costs, taus, tail = CostParams(1.0, 300.0, 80.0), (0.3, 100.0), None
        failed = []
        for size in range(2, 7):
            policies = [
                Policy(
                    tau=float(np.exp(rng.uniform(*np.log(taus)))),
                    h2=tuple(float(rng.uniform()) * h for h in system.h1_vector),
                )
                for _ in range(size)
            ]
            if case not in ("table2", "table3"):
                # a threshold vector of the wrong length fails its own ladder
                policies.insert(size // 2, Policy(tau=1.0, h2=(0.0,)))
            stacked = cost_rate(system, policies, costs, tail=tail)
            assert len(stacked) == len(policies)
            for policy, entry in zip(policies, stacked):
                self.assert_same(entry, self.single(system, policy, costs, tail=tail))
            failed += [type(entry) for entry in stacked if isinstance(entry, CbmError)]
        if case in ("table2", "table3"):
            assert failed and set(failed) == {TailCapError}
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
    end = _wear_bound_end(system, policy.h2, tau, DEFAULT_TAIL)
    try:
        ladder = _cdf_ladder(system, policy, None, None)
    except TailCapError:
        assert end is None
        return
    if end is not None:
        assert len(ladder) - 1 <= end
