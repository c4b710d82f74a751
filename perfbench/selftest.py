"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Run from the root of a checkout. Each case feeds a check a value the
library computed, which must pass, and the same value deliberately
perturbed, which must be rejected. Exits nonzero if any check accepts a
perturbed value or rejects a computed one.
"""

import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from cbmopt import failure_model, maintenance_policy, simulator, system_reliability  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def cases():
    model = workloads.stratified_systems(7, (3,), (0.02, 0.05))[0]
    comps, lam, h1 = model.components, model.lam, model.h1_vector
    ts = workloads.timescale(model)
    h2 = tuple(0.6 * h for h in h1)
    grid = np.linspace(0.0, 3.0 * ts, 33)
    survival = system_reliability.series_survival_over_times
    s1 = survival(model, grid, h1)
    s2 = survival(model, grid, h2)

    def bump(values, index, delta):
        out = np.array(values, dtype=float)
        out[index] += delta
        return out

    above = s1.copy()
    above[5] = checks.wear_survival(comps, h1, grid[5:6])[0] + 1e-6
    yield ("survival bracket",
           lambda s: checks.survival_bracket(comps, lam, h1, grid, s, "t"), s1, above)
    k = int(np.argmax(-np.diff(s1)))
    swapped = s1.copy()
    swapped[[k, k + 1]] = s1[[k + 1, k]]
    yield ("survival nonincreasing",
           lambda s: [e for e in checks.survival_bracket(comps, lam, h1, grid, s, "t") if "rises" in e],
           s1, swapped)
    yield ("detection dominates failure",
           lambda s: checks.detection_dominates(1.0 - s1, 1.0 - s, "t"), s2, np.maximum(s1, s2) + 1e-4)

    c = comps[0]
    block = failure_model.threshold_cdf_block(c, c.h1, np.array([ts]), 2)
    value = float(block[2, 0])
    yield ("convolution oracle",
           lambda v: checks.convolution_oracle(c, c.h1, ts, 2, v, "t"), value, value + 1e-6)

    policy = maintenance_policy.Policy(tau=0.5 * ts, h2=h2)
    twin = failure_model.SystemModel(components=comps, lam=0.0)
    e_ni = maintenance_policy.expected_inspections(twin, policy)
    yield ("lambda = 0 twin",
           lambda v: checks.lambda_zero_twin(comps, policy.tau, h2, v, "t"), e_ni, e_ni * (1 + 1e-6))

    single_tau = workloads.single_interval_tau(model, ts)
    single = maintenance_policy.Policy(tau=single_tau, h2=h2)
    costs = workloads.MonteCarlo.COSTS
    exact = maintenance_policy.cost_rate(model, single, costs)
    low, _, slack = checks.downtime_bounds(comps, lam, single_tau)
    yield ("downtime bracket",
           lambda v: checks.downtime_bracket(comps, lam, single_tau, v, "t"), exact.e_rho,
           low - 2.0 * slack)

    yield ("no worse than a reference",
           lambda v: checks.no_worse(v, exact.cr, "t", "reference"), exact.cr, exact.cr * (1 + 1e-9))

    config = simulator.SimulationConfig(replications=2000, seed=3)
    outcomes = simulator.simulate_many(model, policy, config)
    counts = np.array([o.inspections for o in outcomes], dtype=float)
    analytic = maintenance_policy.cost_rate(model, policy, costs)
    stderr = counts.std(ddof=1) / np.sqrt(counts.size)
    yield ("simulated inspections",
           lambda v: checks.inspections_agree(v, counts.var(ddof=1), counts.size, analytic.e_ni, "t"),
           counts.mean(), analytic.e_ni + 5 * stderr)

    estimate = simulator.estimate_from_outcomes(
        simulator.simulate_many(model, single, config), costs
    )
    allowed = 4 * estimate.stderr_cr + costs.c_rho * single_tau / 1024.0 / exact.e_k
    yield ("simulated cost rate",
           lambda v: checks.cost_rate_agrees(v, estimate.stderr_cr, exact.cr, costs.c_rho,
                                             single_tau / 1024.0, exact.e_k, "t"),
           estimate.mean_cr, exact.cr + 1.01 * allowed)

    paths = 4000
    fpt_config = simulator.SimulationConfig(replications=paths, seed=5)
    curve = simulator.empirical_first_passage_cdf(model, h1, fpt_config, grid)
    sub_step = grid[-1] / 4096.0
    cdf_before = np.where(grid > sub_step, 1.0 - survival(model, np.maximum(grid - sub_step, 0.0), h1), 0.0)
    empirical = np.array([v for _, v in curve])
    eps = checks.dkw_epsilon(paths)
    yield ("empirical first-passage band",
           lambda e: checks.first_passage_band(e, 1.0 - s1, cdf_before, paths, "t"),
           empirical, bump(empirical, 16, -(eps + 0.05)))

    broken = list(outcomes)
    j = next(i for i, o in enumerate(outcomes) if o.ended_preventively)
    o = broken[j]
    broken[j] = simulator.CycleOutcome(o.inspections, o.cycle_length, 1e-3, True, None, "none")
    yield ("cycle properties",
           lambda os_: checks.cycle_properties(os_, policy.tau, "t"), outcomes, broken)


def main() -> int:
    bad = 0
    for name, check, good, perturbed in cases():
        accepts = not check(good)
        rejects = bool(check(perturbed))
        status = "ok" if accepts and rejects else "FAILED"
        bad += status != "ok"
        print(f"{name}: accepts computed value={accepts} rejects perturbed value={rejects} -> {status}")
    print(f"selftest: {'all checks can fail' if not bad else f'{bad} cases failed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
