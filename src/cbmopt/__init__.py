"""Condition-based maintenance optimization for degrading series systems.

Models multi-component series systems whose components wear by a gamma
process and take damage from a shared Poisson shock stream, evaluates the
long-run cost rate of a periodic-inspection replace-on-condition policy,
optimizes the inspection interval and per-component thresholds, and
cross-validates everything against a path-wise Monte Carlo simulator.
"""

__version__ = "0.1.0"

from .errors import (
    AllStartsFailedError,
    CbmError,
    ConfigError,
    DomainError,
    HorizonCapError,
    IntegrationError,
    TailCapError,
    TruncationCapError,
)
from .failure_model import (
    ComponentParams,
    SystemModel,
    TruncationConfig,
    event_probabilities,
    shock_survival_prob,
    threshold_cdf_block,
)
from .maintenance_policy import (
    CostBreakdown,
    CostParams,
    Policy,
    SeriesTailConfig,
    cost_rate,
    expected_downtime,
    expected_inspections,
)
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    optimize_fixed_tau,
    optimize_policy,
)
from .simulator import (
    CycleOutcome,
    SimulationConfig,
    SimulationEstimate,
    empirical_first_passage_cdf,
    estimate_cost_rate,
    simulate_many,
)
from .system_reliability import series_survival_over_times

__all__ = [
    "__version__",
    "AllStartsFailedError",
    "CbmError",
    "ComponentParams",
    "ConfigError",
    "CostBreakdown",
    "CostParams",
    "CycleOutcome",
    "DomainError",
    "HorizonCapError",
    "IntegrationError",
    "OptimizationResult",
    "OptimizerConfig",
    "Policy",
    "SeriesTailConfig",
    "SimulationConfig",
    "SimulationEstimate",
    "SystemModel",
    "TailCapError",
    "TruncationCapError",
    "TruncationConfig",
    "cost_rate",
    "empirical_first_passage_cdf",
    "estimate_cost_rate",
    "event_probabilities",
    "expected_downtime",
    "expected_inspections",
    "optimize_fixed_tau",
    "optimize_policy",
    "series_survival_over_times",
    "shock_survival_prob",
    "simulate_many",
    "threshold_cdf_block",
]
