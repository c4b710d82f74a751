"""Tests for config parsing, command dispatch, and report emission."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cbmopt import cli
from cbmopt.cli import _bound_warning, build_parser, main, parse_config
from cbmopt.errors import ConfigError
from cbmopt.simulator import SimulationConfig
from cbmopt.system_reliability import series_survival_over_times

from conftest import random_system

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_config(**overrides):
    base = {
        "system": {
            "lambda": 0.02,
            "components": [
                {"name": "a", "h1": 10.0, "d": 2.0, "alpha": 0.8, "beta": 0.5,
                 "y_alpha": 0.7, "y_beta": 1.0, "w_mu": 1.0, "w_sigma": 0.3},
                {"name": "b", "h1": 12.0, "d": 2.2, "alpha": 0.6, "beta": 0.4,
                 "y_alpha": 0.9, "y_beta": 1.2, "w_mu": 1.1, "w_sigma": 0.25},
            ],
        },
        "costs": {"c_i": 1.0, "c_rho": 300.0, "c_r": 80.0},
        "policy": {"tau": 6.0, "h2": [6.0, 7.0]},
        "simulation": {"replications": 3000, "seed": 5},
        "optimizer": {"multistart_count": 2, "max_iterations": 30, "x_tol": 1e-3,
                       "f_tol": 1e-6, "seed": 3, "tau_bounds": [0.5, 100.0]},
    }
    base.update(overrides)
    return base


class TestParseConfig:
    def test_benchmark_four_component_file(self):
        config = parse_config(str(CONFIG_DIR / "table2.json"))
        assert config.system.n == 4
        assert config.system.lam == 2.5e-5
        c1, c2, c3, c4 = config.system.components
        assert (c1.h1, c1.d, c1.alpha, c1.beta) == (0.00125, 1.5, 0.7, 0.3)
        assert (c1.y_alpha, c1.y_beta, c1.w_mu, c1.w_sigma) == (0.4, 1.0, 1.2, 0.2)
        assert (c3.h1, c3.d, c3.alpha, c3.beta) == (0.00127, 1.4, 0.8, 0.3)
        assert (c3.y_alpha, c3.w_mu, c3.w_sigma) == (0.5, 1.22, 0.18)
        assert c2.h1 == c1.h1 and c4.h1 == c3.h1
        assert config.costs.c_i == 1.0
        assert config.costs.c_rho == 20000.0
        assert config.costs.c_r == 100.0

    def test_benchmark_distinct_component_file(self):
        config = parse_config(str(CONFIG_DIR / "table3.json"))
        assert config.system.n == 4
        alphas = [c.alpha for c in config.system.components]
        assert alphas == [0.7, 0.8, 0.6, 0.2]
        assert [c.d for c in config.system.components] == [1.5, 1.4, 1.2, 1.45]

    def test_policy_fixture_files(self):
        c120 = parse_config(str(CONFIG_DIR / "table2_tau120.json"))
        assert c120.policy.tau == 120.0
        assert c120.policy.h2 == (0.0001556, 0.0001556, 0.000137, 0.000137)
        c24 = parse_config(str(CONFIG_DIR / "table2_tau24.json"))
        assert c24.policy.tau == 24.0

    def test_negative_tau_names_the_field(self, tmp_path):
        payload = small_config()
        payload["policy"]["tau"] = -5.0
        with pytest.raises(ConfigError, match="policy.tau"):
            parse_config(write_config(tmp_path, payload))

    def test_threshold_above_critical_names_indices(self, tmp_path):
        payload = small_config()
        payload["policy"]["h2"] = [6.0, 99.0]
        with pytest.raises(ConfigError, match=r"policy.h2\[1\]"):
            parse_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("first", [-1.0, math.nan])
    def test_bad_threshold_is_named_by_index(self, tmp_path, first):
        payload = small_config()
        payload["policy"]["h2"] = [first, 7.0]
        path = write_config(tmp_path, payload)
        # json.dumps writes nan as the raw token NaN, which json.load reads back
        assert ("NaN" in Path(path).read_text()) == math.isnan(first)
        with pytest.raises(ConfigError, match=r"policy\.h2\[0\]"):
            parse_config(path)

    def test_missing_key_and_empty_list_are_named(self, tmp_path):
        payload = small_config()
        del payload["system"]["components"][0]["d"]
        with pytest.raises(ConfigError, match=r"system\.components\[0\]: missing keys \['d'\]"):
            parse_config(write_config(tmp_path, payload))
        payload["system"]["components"] = []
        with pytest.raises(ConfigError, match=r"system\.components must be a non-empty list"):
            parse_config(write_config(tmp_path, payload))

    def test_readme_schema_parses(self, tmp_path):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        schema = readme.split("### Config schema", 1)[1]
        schema = schema.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "schema.json"
        path.write_text(schema)
        config = parse_config(str(path))
        assert config.system.lam == 2.5e-5
        assert config.simulation.sub_step is None

    def test_unknown_keys_rejected(self, tmp_path):
        payload = small_config()
        payload["extra_section"] = {}
        with pytest.raises(ConfigError, match="extra_section"):
            parse_config(write_config(tmp_path, payload))
        payload = small_config()
        payload["system"]["components"][0]["color"] = "red"
        with pytest.raises(ConfigError, match="color"):
            parse_config(write_config(tmp_path, payload))

    def test_json_syntax_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"system": }')
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(str(path))

    def test_defaults_resolved(self, tmp_path):
        payload = {
            "system": small_config()["system"],
            "costs": small_config()["costs"],
        }
        config = parse_config(write_config(tmp_path, payload))
        assert config.policy is None
        assert config.truncation.poisson_tail_eps == 1e-12
        assert config.tail.k_tail_eps == 1e-9
        assert config.optimizer.multistart_count == 16
        assert config.simulation is None
        assert SimulationConfig().replications == 100_000


class TestReliabilityCommand:
    def test_curve_boundary_monotone_and_passthrough(self, tmp_path):
        config_path = write_config(tmp_path, small_config())
        out = tmp_path / "rel.json"
        code = main([
            "reliability", "--config", config_path, "--out", str(out),
            "--t-max", "30", "--steps", "121",
        ])
        assert code == 0
        report = load_json(out)
        csv_path = report["outputs"]["curve_csv"]
        lines = Path(csv_path).read_text().strip().splitlines()
        assert lines[0] == "t,reliability,failure_cdf,detection_cdf"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 121
        assert rows[0][0] == 0.0 and rows[0][1] == 1.0
        reliability = [r[1] for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(reliability, reliability[1:]))
        # pass-through: CSV floats equal the library batch call bit for bit
        config = parse_config(config_path)
        grid = np.linspace(0.0, 30.0, 121)
        expected = series_survival_over_times(
            config.system, grid, config.system.h1_vector, config.truncation
        )
        assert reliability == [float(v) for v in expected]
        detection = [r[3] for r in rows]
        failure = [r[2] for r in rows]
        assert all(d >= f - 1e-15 for d, f in zip(detection, failure))

    def test_rejects_bad_grid(self, tmp_path):
        config_path = write_config(tmp_path, small_config())
        code = main([
            "reliability", "--config", config_path,
            "--out", str(tmp_path / "r.json"), "--t-max", "-1", "--steps", "11",
        ])
        assert code == 2


class TestEvaluateCommand:
    def test_report_fields_and_simulation_cross_check(self, tmp_path, capsys):
        config_path = write_config(tmp_path, small_config())
        code = main(["evaluate", "--config", config_path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        outputs = report["outputs"]
        assert set(outputs["breakdown"]) == {"e_ni", "e_rho", "e_k", "e_tc", "cr"}
        assert outputs["breakdown"]["cr"] > 0
        assert "simulation" in outputs
        assert "downtime_gap" in outputs and "downtime_gap_stderr" in outputs
        # h2 < h1: the closed form undercounts by more than 3 stderr
        assert any(w.startswith("downtime gap") for w in report["warnings"])
        assert report["version"]
        for value in outputs["breakdown"].values():
            assert math.isfinite(value)

    def test_zero_costs_zero_rate(self, tmp_path, capsys):
        payload = small_config()
        payload["costs"] = {"c_i": 0.0, "c_rho": 0.0, "c_r": 0.0}
        payload.pop("simulation")
        code = main(["evaluate", "--config", write_config(tmp_path, payload)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outputs"]["breakdown"]["cr"] == 0.0
        # no simulation section, no cross-check
        assert report["config"]["simulation"] is None
        assert "simulation" not in report["outputs"]

    def test_late_detection_gap_is_not_flagged(self, tmp_path):
        # the simulated downtime reads low by less than one sub-step
        # (tau/1024 = 0.0234 h), which covers this config's 0.013 h gap
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--config", str(CONFIG_DIR / "table2_tau24.json"),
                     "--out", str(out)])
        assert code == 0
        report = load_json(out)
        gap = report["outputs"]["downtime_gap"]
        assert 3.0 * report["outputs"]["downtime_gap_stderr"] < gap < 24.0 / 1024.0
        assert report["warnings"] == []

    def test_late_detection_band_follows_the_simulators_sub_step_rule(
        self, tmp_path, capsys, monkeypatch
    ):
        # the band's late-detection bound reads the simulator's own default
        # sub_step rule, so changing that rule moves the band with it
        bands = []
        gap_warning = cli._gap_warning

        def spy(name, gap, stderr, late):
            bands.append((name, late))
            return gap_warning(name, gap, stderr, late)

        monkeypatch.setattr(cli, "_gap_warning", spy)
        monkeypatch.setattr(SimulationConfig, "resolved_sub_step", lambda self, tau: tau / 8.0)
        code = main(["evaluate", "--config", write_config(tmp_path, small_config())])
        assert code == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        preventive = outputs["simulation"]["preventive_fraction"]
        # the report keeps 12 significant digits; tau/1024 would read 128 times less
        assert bands[-1] == ("downtime", pytest.approx(6.0 / 8.0 * (1.0 - preventive), rel=1e-9))

    def test_single_replication_skips_the_cross_check_with_a_warning(self, tmp_path, capsys):
        payload = small_config()
        payload["simulation"]["replications"] = 1
        code = main(["evaluate", "--config", write_config(tmp_path, payload)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "simulation" not in report["outputs"]
        assert report["warnings"] == [
            "single replication: stderr is undefined, Monte Carlo cross-check skipped"
        ]

    def test_missing_policy_rejected(self, tmp_path):
        payload = small_config()
        payload.pop("policy")
        code = main(["evaluate", "--config", write_config(tmp_path, payload)])
        assert code == 2


class TestOptimizeCommand:
    def test_fixed_tau_holds_and_trace_written(self, tmp_path):
        config_path = write_config(tmp_path, small_config())
        out = tmp_path / "opt.json"
        code = main([
            "optimize", "--config", config_path, "--out", str(out),
            "--fixed-tau", "6.0",
        ])
        assert code == 0
        report = load_json(out)
        assert report["outputs"]["best_policy"]["tau"] == 6.0
        trace = Path(report["outputs"]["trace_csv"]).read_text().splitlines()
        assert trace[0] == "iteration,tau,h2_0,h2_1,cr"
        assert len(trace) == report["outputs"]["trace_length"] + 1 > 1
        # one row per iteration, each value as repr of its float
        for i, line in enumerate(trace[1:]):
            fields = line.split(",")
            assert fields[:2] == [repr(float(i)), "6.0"]
            assert all(repr(float(v)) == v for v in fields)

    def test_seeded_runs_are_identical_modulo_duration(self, tmp_path):
        config_path = write_config(tmp_path, small_config())
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "optimize", "--config", config_path, "--out", str(out),
                "--seed", "7", "--multistart", "2",
            ])
            assert code == 0
            report = load_json(out)
            del report["duration_seconds"]
            del report["outputs"]["trace_csv"]  # carries the --out path
            reports.append(report)
        assert reports[0] == reports[1]


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_repeated_commands_in_one_process_give_the_same_reports(self, tmp_path):
        # the parser is shared between calls, so no flag of one command may
        # reach the next; table2_tau24 is table 2 with the paper's 24 h policy
        config = str(CONFIG_DIR / "table2_tau24.json")
        sequence = [
            ["optimize", "--fixed-tau", "24"],
            ["optimize", "--multistart", "1"],
            ["evaluate"],
        ]
        rounds = []
        for run in ("a", "b"):
            reports = []
            for i, command in enumerate(sequence):
                out = tmp_path / f"{run}{i}.json"
                assert main([*command, "--config", config, "--out", str(out)]) == 0
                report = load_json(out)
                del report["duration_seconds"]
                report["outputs"].pop("trace_csv", None)  # carries the --out path
                reports.append(report)
            rounds.append(reports)
        assert rounds[0] == rounds[1]
        assert rounds[0][0]["outputs"]["best_policy"]["tau"] == 24.0
        assert rounds[0][1]["outputs"]["best_policy"]["tau"] != 24.0


class TestBoundWarning:
    @staticmethod
    def run(tmp_path, bounds, *flags):
        # a random system with hour-scale degradation, searched briefly
        system = random_system(np.random.default_rng(1), 2)
        payload = small_config(system={
            "lambda": system.lam,
            "components": [dataclasses.asdict(c) for c in system.components],
        })
        payload.pop("policy")
        payload["optimizer"].update(multistart_count=1, max_iterations=20,
                                    tau_bounds=list(bounds))
        out = tmp_path / "opt.json"
        code = main(["optimize", "--config", write_config(tmp_path, payload),
                     "--out", str(out), *flags])
        assert code == 0
        return load_json(out)

    def test_optimum_on_a_bound_is_flagged(self, tmp_path):
        # cost rises with tau past a few hours, so [150, 300] pins the optimum
        # to its lower end
        report = self.run(tmp_path, [150.0, 300.0])
        assert report["outputs"]["best_policy"]["tau"] == pytest.approx(150.0)
        [warning] = report["warnings"]
        assert "lower tau bound 150" in warning

    def test_interior_optimum_is_not_flagged(self, tmp_path):
        # the one start runs out of its 20 iterations, which is the report's
        # only warning
        report = self.run(tmp_path, [0.5, 100.0])
        tau = report["outputs"]["best_policy"]["tau"]
        assert math.log(tau / 0.5) > 0.01 * math.log(200.0)
        assert report["warnings"] == [
            "the best start stopped on max_iterations (20) before its x_tol or f_tol test "
            "held, and 0 of 1 starts converged: the reported optimum may not be a minimum"
        ]

    def test_margin_is_one_percent_of_the_log_range_at_either_end(self):
        # log(1e4 / 1e-3) = 16.1, so the margin is a factor of 1.175
        bounds = (1e-3, 1e4)
        assert "lower tau bound 0.001" in _bound_warning(1.17e-3, bounds)[0]
        assert "upper tau bound 10000" in _bound_warning(1e4 / 1.17, bounds)[0]
        assert _bound_warning(1.18e-3, bounds) == _bound_warning(1e4 / 1.18, bounds) == []

    def test_fixed_tau_never_warns(self, tmp_path):
        # the bound rule never fires at a fixed tau; the run's one warning is
        # the flat-objective one (test_flat_objective_is_flagged)
        report = self.run(tmp_path, [150.0, 300.0], "--fixed-tau", "150")
        assert not any("tau bound" in warning for warning in report["warnings"])

    def test_flat_objective_is_flagged(self, tmp_path):
        # at tau = 150 the cost rate is flat to f_tol across the best start's
        # initial simplex, so that start stops in its first iteration
        report = self.run(tmp_path, [150.0, 300.0], "--fixed-tau", "150")
        assert report["outputs"]["iterations_used"] == 1
        [warning] = report["warnings"]
        assert "f_tol test in its first iteration" in warning

    def test_report_counts_evaluations(self, tmp_path):
        report = self.run(tmp_path, [0.5, 100.0])
        outputs = report["outputs"]
        # at least the initial simplex, one point per coordinate plus one
        assert outputs["evaluations"] >= 4
        assert outputs["failed_evaluations"] == {}


class TestSimulateCommand:
    def test_zero_thresholds_cycle_is_one_interval(self, tmp_path, capsys):
        payload = small_config()
        payload["policy"]["h2"] = [0.0, 0.0]
        payload["simulation"]["replications"] = 500
        code = main(["simulate", "--config", write_config(tmp_path, payload)])
        assert code == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        sim = outputs["simulation"]
        assert sim["mean_cycle_length"] == pytest.approx(6.0, abs=1e-12)
        assert sim["mean_inspections"] == 1.0
        assert 0.0 <= sim["preventive_fraction"] <= 1.0

    def test_single_replication_flagged(self, tmp_path, capsys):
        config_path = write_config(tmp_path, small_config())
        code = main(["simulate", "--config", config_path, "--reps", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert any("stderr" in w for w in report["warnings"])
        assert report["outputs"]["simulation"]["stderr_cr"] == "nan"

    def test_first_passage_curve_on_request(self, tmp_path):
        config_path = write_config(tmp_path, small_config())
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--config", config_path, "--out", str(out),
            "--reps", "2000", "--fpt-t-max", "25", "--fpt-steps", "26",
        ])
        assert code == 0
        report = load_json(out)
        curve = report["outputs"]["first_passage"]
        assert curve["t"][0] == 0.0 and curve["empirical_cdf"][0] == 0.0
        values = curve["empirical_cdf"]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert Path(report["outputs"]["first_passage_csv"]).exists()


class TestConfigEcho:
    """The config echo of a report, compared as text, so that key order
    counts as well as values."""

    TABLE2_TAU24 = (
        '{"system": {"lambda": 2.5e-05, "components": ['
        '{"name": "component-1", "h1": 0.00125, "d": 1.5, "alpha": 0.7, "beta": 0.3, '
        '"y_alpha": 0.4, "y_beta": 1.0, "w_mu": 1.2, "w_sigma": 0.2}, '
        '{"name": "component-2", "h1": 0.00125, "d": 1.5, "alpha": 0.7, "beta": 0.3, '
        '"y_alpha": 0.4, "y_beta": 1.0, "w_mu": 1.2, "w_sigma": 0.2}, '
        '{"name": "component-3", "h1": 0.00127, "d": 1.4, "alpha": 0.8, "beta": 0.3, '
        '"y_alpha": 0.5, "y_beta": 1.0, "w_mu": 1.22, "w_sigma": 0.18}, '
        '{"name": "component-4", "h1": 0.00127, "d": 1.4, "alpha": 0.8, "beta": 0.3, '
        '"y_alpha": 0.5, "y_beta": 1.0, "w_mu": 1.22, "w_sigma": 0.18}]}, '
        '"costs": {"c_i": 1.0, "c_rho": 20000.0, "c_r": 100.0}, '
        '"policy": {"tau": 24.0, "h2": [0.0004637, 0.0004637, 0.0004204, 0.0004204]}, '
        '"optimizer": {"multistart_count": 8, "max_iterations": 300, "x_tol": 1e-06, '
        '"f_tol": 1e-08, "tau_bounds": [0.001, 10000.0], "seed": 1}, '
        '"simulation": {"replications": 20000, "seed": 1, "sub_step": null, '
        '"horizon_cap": 1000000}, '
        '"truncation": {"poisson_tail_eps": 1e-12, "m_max_cap": 200}, '
        '"tail": {"k_tail_eps": 1e-09, "k_max_cap": 1000000}}'
    )
    DEFAULTS = (
        '{"system": {"lambda": 0.02, "components": ['
        '{"name": "a", "h1": 10.0, "d": 2.0, "alpha": 0.8, "beta": 0.5, '
        '"y_alpha": 0.7, "y_beta": 1.0, "w_mu": 1.0, "w_sigma": 0.3}, '
        '{"name": "1", "h1": 12.0, "d": 2.2, "alpha": 0.6, "beta": 0.4, '
        '"y_alpha": 0.9, "y_beta": 1.2, "w_mu": 1.1, "w_sigma": 0.25}]}, '
        '"costs": {"c_i": 1.0, "c_rho": 300.0, "c_r": 80.0}, '
        '"policy": null, '
        '"optimizer": {"multistart_count": 16, "max_iterations": 500, "x_tol": 1e-06, '
        '"f_tol": 1e-08, "tau_bounds": [0.001, 10000.0], "seed": 0}, '
        '"simulation": null, '
        '"truncation": {"poisson_tail_eps": 1e-12, "m_max_cap": 200}, '
        '"tail": {"k_tail_eps": 1e-09, "k_max_cap": 1000000}}'
    )

    def test_evaluate_echoes_every_section(self, tmp_path):
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--config", str(CONFIG_DIR / "table2_tau24.json"),
                     "--out", str(out)])
        assert code == 0
        assert json.dumps(load_json(out)["config"]) == self.TABLE2_TAU24

    def test_optimize_echoes_the_defaults(self, tmp_path):
        payload = {"system": small_config()["system"], "costs": small_config()["costs"]}
        del payload["system"]["components"][1]["name"]  # named by its index
        out = tmp_path / "opt.json"
        code = main(["optimize", "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--fixed-tau", "6", "--multistart", "1"])
        assert code == 0
        assert json.dumps(load_json(out)["config"]) == self.DEFAULTS


class TestExitCodes:
    def test_computation_error_is_exit_3(self, tmp_path):
        payload = small_config()
        payload["policy"] = {"tau": 0.001, "h2": [10.0, 12.0]}
        payload["tail"] = {"k_max_cap": 3}
        payload.pop("simulation")
        code = main(["evaluate", "--config", write_config(tmp_path, payload)])
        assert code == 3

    def test_io_error_is_exit_4(self, tmp_path):
        config_path = write_config(tmp_path, small_config())
        code = main([
            "reliability", "--config", config_path,
            "--out", str(tmp_path / "missing" / "deep" / "r.json"),
            "--t-max", "10",
        ])
        assert code == 4

    @pytest.mark.parametrize("section", ["simulation", "optimizer"])
    def test_negative_seed_in_config_is_exit_2(self, tmp_path, capsys, section):
        payload = small_config()
        payload[section]["seed"] = -1
        command = "evaluate" if section == "simulation" else "optimize"
        code = main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"config error: {section}: seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    def test_negative_seed_flag_is_exit_2(self, tmp_path, capsys, command):
        code = main([command, "--config", write_config(tmp_path, small_config()),
                     "--seed", "-1", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value, named", [
        ("optimizer.tau_bounds[0]", ["a", 5], "optimizer.tau_bounds[0] "),
        ("optimizer.tau_bounds[0]", [None, 5], "optimizer.tau_bounds[0] "),
        ("optimizer.tau_bounds[0]", [True, 5], "optimizer.tau_bounds[0] "),
        ("optimizer.tau_bounds", [1, 2, 3], "optimizer.tau_bounds "),
        # 1e309 overflows to inf, which the section's own check refuses
        ("optimizer.tau_bounds", [0.001, 1e309], "optimizer: tau_bounds must be finite"),
        ("optimizer.x_tol", 1e309, "optimizer: tolerances must be finite"),
        ("optimizer.f_tol", 1e309, "optimizer: tolerances must be finite"),
        ("optimizer.seed", 1.5, "optimizer.seed "),
        ("simulation.seed", 1.5, "simulation.seed "),
        # a 401-digit integer literal
        ("system.components[0].h1", 10**400, "system.components[0].h1 "),
    ], ids=["bound-string", "bound-null", "bound-bool", "three-bounds", "bound-overflow",
            "x-tol-overflow", "f-tol-overflow", "fractional-optimizer-seed", "fractional-simulation-seed", "h1-401-digits"])
    def test_malformed_value_is_exit_2(self, tmp_path, capsys, where, value, named):
        payload = small_config()
        if where.startswith("system"):
            payload["system"]["components"][0]["h1"] = value
        else:
            section, key = where.split(".")
            payload[section][key.split("[")[0]] = value
        command = "optimize" if where.startswith("optimizer") else "evaluate"
        code = main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"config error: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("reliability", ["--t-max", "inf"]),
        ("simulate", ["--fpt-t-max", "inf"]),
        ("simulate", ["--fpt-t-max", "-5"]),
        ("simulate", ["--fpt-t-max", "0.05", "--fpt-steps", "0"]),
    ], ids=["t-max-inf", "fpt-t-max-inf", "fpt-t-max-negative", "fpt-steps-0"])
    def test_bad_grid_flag_is_named(self, tmp_path, capsys, command, flags):
        code = main([command, "--config", str(CONFIG_DIR / "table2_tau24.json"),
                     "--out", str(tmp_path / "r.json"), *flags])
        assert code == 2
        flag, value = flags[-2:]
        err = capsys.readouterr().err
        assert f"config error: {flag} must be" in err and f"got {value}" in err

    @pytest.mark.parametrize("command, flags", [
        ("optimize", ["--multistart", "0"]),
        ("optimize", ["--fixed-tau", "inf"]),
        ("optimize", ["--fixed-tau", "-1"]),
        ("optimize", ["--fixed-tau", "nan"]),
        ("simulate", ["--reps", "0"]),
    ], ids=["multistart-0", "fixed-tau-inf", "fixed-tau-negative", "fixed-tau-nan", "reps-0"])
    def test_bad_run_flag_is_named(self, tmp_path, capsys, command, flags):
        code = main([command, "--config", str(CONFIG_DIR / "table2_tau24.json"),
                     "--out", str(tmp_path / "r.json"), *flags])
        assert code == 2
        flag, value = flags
        err = capsys.readouterr().err
        assert f"config error: {flag} must be" in err and f"got {value}" in err

    def test_missing_config_file_is_exit_4(self, tmp_path):
        code = main(["evaluate", "--config", str(tmp_path / "nope.json")])
        assert code == 4
