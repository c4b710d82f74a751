"""Shared fixtures: benchmark parameter sets and random test-system factories."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cbmopt import maintenance_policy, system_reliability
from cbmopt.failure_model import ComponentParams, SystemModel

# Four-component benchmark system: components 1 & 2 share parameters, as do 3 & 4.
COMP_12 = ComponentParams(
    name="component-1",
    h1=0.00125,
    d=1.5,
    alpha=0.7,
    beta=0.3,
    y_alpha=0.4,
    y_beta=1.0,
    w_mu=1.2,
    w_sigma=0.2,
)
COMP_34 = ComponentParams(
    name="component-3",
    h1=0.00127,
    d=1.4,
    alpha=0.8,
    beta=0.3,
    y_alpha=0.5,
    y_beta=1.0,
    w_mu=1.22,
    w_sigma=0.18,
)
BENCH_LAMBDA = 2.5e-5


def table2_system() -> SystemModel:
    c2 = dataclasses.replace(COMP_12, name="component-2")
    c4 = dataclasses.replace(COMP_34, name="component-4")
    return SystemModel(components=(COMP_12, c2, COMP_34, c4), lam=BENCH_LAMBDA)


def table3_system() -> SystemModel:
    comps = (
        ComponentParams("component-1", 0.00125, 1.5, 0.7, 0.3, 0.45, 1.0, 1.2, 0.22),
        ComponentParams("component-2", 0.00127, 1.4, 0.8, 0.3, 0.5, 1.0, 1.22, 0.18),
        ComponentParams("component-3", 0.0013, 1.2, 0.6, 0.25, 0.48, 1.0, 1.23, 0.15),
        ComponentParams("component-4", 0.00128, 1.45, 0.2, 0.25, 0.4, 1.0, 1.2, 0.2),
    )
    return SystemModel(components=comps, lam=BENCH_LAMBDA)


def random_component(rng: np.random.Generator, name: str = "rand") -> ComponentParams:
    """Component with degradation timescales of a few dozen hours."""
    return ComponentParams(
        name=name,
        h1=float(rng.uniform(5.0, 20.0)),
        d=float(rng.uniform(1.5, 3.0)),
        alpha=float(rng.uniform(0.3, 1.2)),
        beta=float(rng.uniform(0.3, 1.0)),
        y_alpha=float(rng.uniform(0.3, 1.5)),
        y_beta=float(rng.uniform(0.5, 2.0)),
        w_mu=float(rng.uniform(0.8, 1.6)),
        w_sigma=float(rng.uniform(0.1, 0.4)),
    )


def random_system(rng: np.random.Generator, n: int) -> SystemModel:
    comps = tuple(random_component(rng, f"rand-{i}") for i in range(n))
    return SystemModel(components=comps, lam=float(rng.uniform(0.001, 0.05)))


@pytest.fixture
def bench_system() -> SystemModel:
    return table2_system()


@pytest.fixture
def cold_law():
    """No failure law built yet, so that no pass count depends on which
    tests ran before."""
    system_reliability._cached_law.cache_clear()
    yield
    system_reliability._cached_law.cache_clear()


def count_passes(monkeypatch) -> list:
    """Count the survival passes of the ladders (through maintenance_policy's
    name) and of the failure law (through system_reliability's)."""
    passes = []
    for module in (maintenance_policy, system_reliability):

        def counted(*args, survival=module.series_survival_over_times, **kwargs):
            passes.append(1)
            return survival(*args, **kwargs)

        monkeypatch.setattr(module, "series_survival_over_times", counted)
    return passes


def pytest_addoption(parser):
    parser.addoption(
        "--report-dir",
        default=None,
        help="directory for the acceptance reports (pass reports to regenerate "
        "the committed ones); a temporary directory by default",
    )


@pytest.fixture
def report_dir(request, tmp_path) -> Path:
    chosen = request.config.getoption("--report-dir")
    return Path(chosen) if chosen else tmp_path
