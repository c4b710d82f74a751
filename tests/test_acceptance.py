"""Acceptance suite. One test per criterion; each prints a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and the benchmark comparison table. Criteria 3 and 5 write JSON reports to
a temporary directory; add `--report-dir reports` to regenerate the
committed ones. Criteria:

1. property suite on randomized systems plus high-precision oracle grids
2. analytic/Monte Carlo equivalence where the cost formula is unambiguous
3. benchmark-number reproduction attempt with full discrepancy reporting
4. optimizer sanity on a synthetic quadratic objective
5. audit of the closed-form downtime expression against path-wise means

Criterion 3 compares against published benchmark optima whose parameter
units make near-immediate wear crossing unavoidable, so the published cost
rates are not expected to reproduce under a literal reading of the
parameters; the criterion itself requires the attempt, the comparison, and
a written discrepancy report rather than numeric agreement (see README).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cbmopt.failure_model import (
    ComponentParams,
    SystemModel,
    event_probabilities,
    shock_survival_prob,
    threshold_cdf_block,
)
from cbmopt.maintenance_policy import (
    CostParams,
    Policy,
    cost_rate,
    expected_downtime,
    expected_inspections,
)
from cbmopt.optimizer import (
    OptimizerConfig,
    _PolicyCodec,
    _lhs_starts,
    _lockstep,
    optimize_fixed_tau,
    optimize_policy,
)
from cbmopt.simulator import (
    SimulationConfig,
    empirical_first_passage_cdf,
    estimate_cost_rate,
    simulate_many,
)
from cbmopt.system_reliability import series_survival_over_times

from conftest import random_component, random_system, table2_system, table3_system

BENCH_COSTS = CostParams(c_i=1.0, c_rho=20000.0, c_r=100.0)


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


def _write_report(report_dir, name, payload):
    report_dir.mkdir(parents=True, exist_ok=True)
    path = report_dir / name
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=float)
    return path


def test_criterion_1_property_suite():
    started = time.time()

    # status probabilities sum to one on a randomized component/time grid
    rng = np.random.default_rng(11)
    for _ in range(5):
        component = random_component(rng)
        lam = float(rng.uniform(0.0, 0.08))
        h2 = float(rng.uniform(0.0, 1.0)) * component.h1
        for t in np.linspace(0.0, 25.0, 10):
            probs = event_probabilities(component, lam, float(t), h2)
            assert abs(sum(probs) - 1.0) < 1e-12
            assert all(-1e-15 <= p <= 1.0 + 1e-15 for p in probs)

    # survival monotonicity and first-passage dominance
    model = random_system(np.random.default_rng(12), 3)
    h2 = [0.6 * c.h1 for c in model.components]
    ts = np.linspace(0.0, 30.0, 11)
    survival = series_survival_over_times(model, ts, model.h1_vector)
    assert np.all(np.diff(survival) <= 1e-10)
    # rows at threshold fractions 0.3, 0.6 and 0.9, columns at t = 4, 12, 24
    rows = [[f * c.h1 for c in model.components] for f in (0.3, 0.6, 0.9)]
    by_fraction = series_survival_over_times(model, [4.0, 12.0, 24.0], rows)
    assert np.all(np.diff(by_fraction, axis=0) >= -1e-10)
    detection, failure = 1.0 - series_survival_over_times(model, ts, [h2, model.h1_vector])
    assert np.all(detection >= failure - 1e-10)

    # cycle identities and cost homogeneity
    rng = np.random.default_rng(13)
    for _ in range(3):
        policy = Policy(
            tau=float(rng.uniform(3.0, 15.0)),
            h2=tuple(float(rng.uniform(0.3, 0.9)) * c.h1 for c in model.components),
        )
        e_ni = expected_inspections(model, policy)
        base_breakdown = cost_rate(model, policy, CostParams(1.4, 230.0, 75.0))
        assert base_breakdown.e_k == pytest.approx(policy.tau * e_ni, rel=1e-9)
        base = base_breakdown.cr
        scaled = cost_rate(model, policy, CostParams(4.2, 690.0, 225.0)).cr
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    # no shocks reduces the system law to a product of wear CDFs, each the
    # m = 0 row of its component's block
    quiet = SystemModel(components=model.components, lam=0.0)
    times = np.array([2.0, 9.0, 21.0])
    product = np.prod(
        [threshold_cdf_block(c, v, times, 0)[0] for c, v in zip(quiet.components, h2)], axis=0
    )
    assert series_survival_over_times(quiet, times, h2) == pytest.approx(product, abs=1e-12)

    # the gamma and normal laws on the library's path against frozen mpmath
    # oracles (dps = 50): a unit component's wear at time t is gamma(t, 1),
    # so the block's m = 0 row at level x and time s is P(s, x); its shock
    # survival at w_mu = 1 - z is Phi(z)
    unit = ComponentParams("unit", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, w_mu=0.0, w_sigma=1.0)
    shapes, xs, expected = np.array([
        (0.4, 0.001, 0.071092397895333076),
        (0.7, 1.5, 0.86628274334615259),
        (2.5, 0.75, 0.086930185455604539),
        (3.0, 0.5, 0.014387677966970687),
        (30.0, 20.0, 0.021818217525557392),
        (30.0, 45.0, 0.9926628007022035),
    ]).T
    assert threshold_cdf_block(unit, xs, shapes, 0)[0] == pytest.approx(expected, rel=1e-10)
    normal_oracle = [
        (0.0, 0.5),
        (1.0, 0.84134474606854294859),
        (1.5, 0.933192798731141934),
        (-2.5, 1.0 - 0.99379033467422386483),
        (4.0, 0.99996832875816688008),
    ]
    for z, expected in normal_oracle:
        survival = shock_survival_prob(replace(unit, w_mu=1.0 - z))
        assert survival == pytest.approx(expected, abs=1e-12)

    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (property suite): PASS in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    started = time.time()
    rows = []
    for seed in [101, 102, 103, 104, 105]:
        rng = np.random.default_rng(seed)
        model = random_system(rng, int(rng.integers(2, 5)))
        # detection at the failure threshold, interval at the upper quantile
        # of the failure law: the regime where the closed-form downtime
        # weighting is unambiguous
        tau = tau_at_quantile(model, 1.0 - 1e-4)
        policy = Policy(tau=tau, h2=model.h1_vector)
        costs = CostParams(1.0, 500.0, 100.0)
        analytic = cost_rate(model, policy, costs).cr
        estimate = estimate_cost_rate(
            model, policy, costs, SimulationConfig(replications=100_000, seed=seed)
        )
        z = (analytic - estimate.mean_cr) / estimate.stderr_cr
        rows.append((seed, analytic, estimate.mean_cr, estimate.stderr_cr, z))
        assert abs(analytic - estimate.mean_cr) < 3.0 * estimate.stderr_cr, (
            f"seed {seed}: analytic {analytic} vs MC {estimate.mean_cr} "
            f"± {estimate.stderr_cr}"
        )

    # first-passage law at a million paths
    rng = np.random.default_rng(101)
    model = random_system(rng, int(rng.integers(2, 5)))
    horizon = tau_at_quantile(model, 0.999)
    grid = np.linspace(0.0, horizon, 120)
    curve = empirical_first_passage_cdf(
        model, model.h1_vector, SimulationConfig(replications=1_000_000, seed=7), grid
    )
    analytic_cdf = 1.0 - series_survival_over_times(model, grid, model.h1_vector)
    ks = float(np.max(np.abs(np.array([v for _, v in curve]) - analytic_cdf)))
    assert ks < 0.01

    elapsed = time.time() - started
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 2 (oracle equivalence): PASS in {elapsed:.0f}s")
    for seed, cr, mc, se, z in rows:
        print(f"  seed {seed}: analytic CR {cr:.3f} vs MC {mc:.3f} ± {se:.3f} (z = {z:+.2f})")
    print(f"  first-passage KS distance at 1e6 paths: {ks:.5f} (< 0.01)")


def test_criterion_3_benchmark_reproduction_attempt(report_dir):
    started = time.time()
    config = OptimizerConfig(
        multistart_count=4, max_iterations=120, x_tol=1e-4, f_tol=1e-9,
        tau_bounds=(1e-3, 1e4), seed=11,
    )
    m2 = table2_system()
    m3 = table3_system()
    single_12 = SystemModel(components=(m2.components[0],), lam=m2.lam)
    single_34 = SystemModel(components=(m2.components[2],), lam=m2.lam)

    experiments = [
        {
            "name": "four-component, fixed interval 120 h",
            "run": lambda: optimize_fixed_tau(m2, BENCH_COSTS, 120.0, config),
            "target_cr": 305.4,
            "target_tau": 120.0,
            "target_h2": [0.0001556, 0.0001556, 0.000137, 0.000137],
        },
        {
            "name": "four-component, fixed interval 24 h",
            "run": lambda: optimize_fixed_tau(m2, BENCH_COSTS, 24.0, config),
            "target_cr": 227.96,
            "target_tau": 24.0,
            "target_h2": [0.0004637, 0.0004637, 0.0004204, 0.0004204],
        },
        {
            "name": "four-component, joint optimization",
            "run": lambda: optimize_policy(m2, BENCH_COSTS, config),
            "target_cr": 190.23,
            "target_tau": 44.7129,
            "target_h2": [0.0003055, 0.0003055, 0.0002728, 0.0002728],
        },
        {
            "name": "single component (type 1/2), joint optimization",
            "run": lambda: optimize_policy(single_12, BENCH_COSTS, config),
            "target_cr": 136.7,
            "target_tau": 65.044,
            "target_h2": [0.0002465],
        },
        {
            "name": "single component (type 3/4), joint optimization",
            "run": lambda: optimize_policy(single_34, BENCH_COSTS, config),
            "target_cr": 176.2,
            "target_tau": 71.55,
            "target_h2": [0.0002169],
        },
        {
            "name": "four distinct components, joint optimization",
            "run": lambda: optimize_policy(m3, BENCH_COSTS, config),
            "target_cr": 183.56,
            "target_tau": 49.86,
            "target_h2": [0.0002904, 0.0002656, 0.0007362, 0.0012359],
        },
    ]

    results = []
    all_within = True
    for exp in experiments:
        outcome = exp["run"]()
        cr = outcome.best_breakdown.cr
        tau = outcome.best_policy.tau
        h2 = list(outcome.best_policy.h2)
        cr_dev = abs(cr - exp["target_cr"]) / exp["target_cr"]
        tau_dev = abs(tau - exp["target_tau"]) / exp["target_tau"]
        h2_dev = max(
            abs(a - b) / b for a, b in zip(h2, exp["target_h2"])
        )
        within = cr_dev <= 0.05 and tau_dev <= 0.10 and h2_dev <= 0.10
        all_within &= within
        assert math.isfinite(cr) and cr > 0.0
        results.append(
            {
                "experiment": exp["name"],
                "published_cr": exp["target_cr"],
                "published_tau": exp["target_tau"],
                "published_h2": exp["target_h2"],
                "computed_cr": cr,
                "computed_tau": tau,
                "computed_h2": h2,
                "cr_rel_deviation": cr_dev,
                "tau_rel_deviation": tau_dev,
                "h2_max_rel_deviation": h2_dev,
                "within_tolerance": within,
                "starts_converged": outcome.starts_converged,
                "stop_reason": outcome.stop_reason,
            }
        )

    # cost rate evaluated at the published optima, for the record
    published_eval = cost_rate(
        m2,
        Policy(tau=44.7129, h2=(0.0003055, 0.0003055, 0.0002728, 0.0002728)),
        BENCH_COSTS,
    )
    payload = {
        "tolerances": {"cr_rel": 0.05, "decision_rel": 0.10},
        "reproduced": all_within,
        "experiments": results,
        "cost_rate_at_published_joint_optimum": published_eval.cr,
        "note": (
            "Parameters are taken literally from the benchmark tables. At "
            "those units the mean wear rate alpha/beta crosses the failure "
            "threshold h1 within a fraction of an hour, so failures are "
            "near-immediate, the published optima are far from what the "
            "model implies, and the published cost rates do not reproduce. "
            "Internal consistency is established by the property and "
            "oracle-equivalence criteria instead."
        ),
    }
    path = _write_report(report_dir, "paper_reproduction.json", payload)

    elapsed = time.time() - started
    status = "REPRODUCED" if all_within else "NOT REPRODUCED (documented)"
    print(f"\nACCEPTANCE 3 (benchmark reproduction attempt): {status} in {elapsed:.0f}s")
    for row in results:
        print(
            f"  {row['experiment']}: computed CR {row['computed_cr']:.2f} "
            f"(published {row['published_cr']}), tau {row['computed_tau']:.4g} "
            f"(published {row['published_tau']}), within tolerance: {row['within_tolerance']}"
        )
    print(f"  CR at published joint optimum: {published_eval.cr:.2f}")
    print(f"  report: {path}")
    # the criterion requires the attempt and its documentation; numeric
    # agreement is flagged at-risk and its absence is itself a finding
    for row in results:
        assert math.isfinite(row["computed_cr"])
        assert row["computed_h2"] and all(math.isfinite(v) for v in row["computed_h2"])
    assert path.exists()


def test_criterion_4_optimizer_sanity():
    started = time.time()
    model = SystemModel(components=(table2_system().components[0],), lam=2.5e-5)
    config = OptimizerConfig(
        multistart_count=4, max_iterations=600, x_tol=1e-7, f_tol=1e-15,
        tau_bounds=(1e-3, 1e4), seed=0,
    )
    codec = _PolicyCodec(model, config, fixed_tau=None)
    h_target = 0.5 * model.components[0].h1

    def synthetic(z):
        policy = codec.decode(np.asarray(z))
        return (policy.tau - 50.0) ** 2 + (policy.h2[0] - h_target) ** 2

    def multistart(config):
        # every start of the configured stream, run in lockstep
        starts = _lhs_starts(config.seed, config.multistart_count, codec.dim)
        return _lockstep(lambda points: [synthetic(z) for z in points], starts, config)

    x, fx, trace, *_ = multistart(config)
    best = codec.decode(x)
    assert abs(best.tau - 50.0) / 50.0 < 1e-4
    assert abs(best.h2[0] - h_target) / h_target < 1e-4

    # determinism and multistart dominance across twenty seeds
    for seed in range(20):
        base = OptimizerConfig(
            multistart_count=2, max_iterations=300, x_tol=1e-7, f_tol=1e-15,
            tau_bounds=(1e-3, 1e4), seed=seed,
        )
        more = OptimizerConfig(
            multistart_count=8, max_iterations=300, x_tol=1e-7, f_tol=1e-15,
            tau_bounds=(1e-3, 1e4), seed=seed,
        )
        first = multistart(base)
        second = multistart(base)
        assert np.array_equal(first[0], second[0]) and first[1] == second[1]
        wider = multistart(more)
        assert wider[1] <= first[1] + 1e-12

    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 (optimizer sanity): PASS in {elapsed:.1f}s")
    print(f"  recovered tau = {best.tau:.6f} (target 50), h = {best.h2[0]:.8g} (target {h_target:.8g})")


def test_criterion_5_downtime_formula_audit(report_dir):
    started = time.time()
    rows = []
    for seed in [201, 202, 203]:
        rng = np.random.default_rng(seed)
        model = random_system(rng, int(rng.integers(2, 4)))
        # rounded, so that last-bit moves of the analytic quantile cannot
        # re-draw the Monte Carlo column
        tau = float(f"{tau_at_quantile(model, 0.6):.10g}")
        policy = Policy(tau=tau, h2=tuple(0.55 * c.h1 for c in model.components))
        closed_form = expected_downtime(model, policy)
        # at 120,000 cycles seed 201's gap (about -0.043 h) reads near -6
        # stderr, so that its flag does not turn on the draw order as it did
        # near the 3 stderr line at 30,000
        outcomes = simulate_many(
            model, policy, SimulationConfig(replications=120_000, seed=seed)
        )
        downtimes = np.array([o.downtime for o in outcomes])
        mc_mean = float(downtimes.mean())
        mc_stderr = float(downtimes.std(ddof=1) / math.sqrt(downtimes.size))
        gap = closed_form - mc_mean
        flagged = abs(gap) > 3.0 * mc_stderr
        assert math.isfinite(closed_form) and math.isfinite(gap) and mc_stderr > 0.0
        rows.append(
            {
                "seed": seed,
                "tau": tau,
                "closed_form_downtime": closed_form,
                "pathwise_mc_downtime": mc_mean,
                "mc_stderr": mc_stderr,
                "gap": gap,
                "gap_over_stderr": gap / mc_stderr,
                "flagged": flagged,
            }
        )

    path = _write_report(
        report_dir,
        "downtime_audit.json",
        {
            "systems": rows,
            "note": (
                "Below the failure threshold the closed-form downtime "
                "multiplies each interval's integral by the detection mass "
                "of that interval, although the integral already carries "
                "probability mass. The expression is evaluated literally; "
                "this audit quantifies its gap against the path-wise mean "
                "rather than hiding it."
            ),
        },
    )
    elapsed = time.time() - started
    print(f"\nACCEPTANCE 5 (downtime formula audit): PASS in {elapsed:.0f}s")
    for row in rows:
        print(
            f"  seed {row['seed']}: closed form {row['closed_form_downtime']:.4f} vs "
            f"path-wise {row['pathwise_mc_downtime']:.4f} ± {row['mc_stderr']:.4f} "
            f"(gap/stderr = {row['gap_over_stderr']:+.1f}, flagged: {row['flagged']})"
        )
    print(f"  report: {path}")
    assert path.exists()
