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
    damage_sum_density,
    event_probabilities,
    pure_degradation_cdf,
    shock_survival_prob,
    threshold_cdf_given_m,
    total_degradation_cdf,
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
from .numerics import (
    ToleranceConfig,
    adaptive_integrate,
    gamma_cdf,
    regularized_lower_gamma,
    std_normal_cdf,
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
from .system_reliability import (
    detection_time_cdf,
    failure_time_cdf,
    series_survival,
)

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
    "ToleranceConfig",
    "TruncationCapError",
    "TruncationConfig",
    "adaptive_integrate",
    "cost_rate",
    "damage_sum_density",
    "detection_time_cdf",
    "empirical_first_passage_cdf",
    "estimate_cost_rate",
    "event_probabilities",
    "expected_downtime",
    "expected_inspections",
    "failure_time_cdf",
    "gamma_cdf",
    "optimize_fixed_tau",
    "optimize_policy",
    "pure_degradation_cdf",
    "regularized_lower_gamma",
    "series_survival",
    "shock_survival_prob",
    "simulate_many",
    "std_normal_cdf",
    "threshold_cdf_given_m",
    "total_degradation_cdf",
]
