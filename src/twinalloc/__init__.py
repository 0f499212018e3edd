"""Controller-aware network resource allocation for digital-twin plants.

A deterministic discrete-time simulator in which per-resource digital twins
report the iteration requirements of their control tasks (projected gradient
descent certificate counts), and a central network manager splits a shared
computation budget across them under four policies: equal split, static,
regret-triggered event reallocation, and receding-horizon online allocation.
"""

from .core import (DEFAULT_MAX_DEVIATION, DEFAULT_SLACK_PENALTY,
                   AllocationConstraints, DimensionMismatch,
                   InfeasibleSetError, ScenarioConfig,
                   ScenarioValidationError, compute_residual)
from .engine import (SimResult, SimulationError, compare_policies,
                     evolve_requirements, load_scenario, requirement_walk,
                     run_scenario, save_scenario, scenario_from_dict,
                     scenario_to_dict, target_walk)
from .manager import (PolicyKind, allocate_equal, allocate_event,
                      allocate_online, allocate_static,
                      estimate_event_horizon, should_trigger)
from .report import (build_manifest, config_digest, metrics_csv,
                     render_comparison_svg, summarize, write_manifest,
                     write_metrics_csv)
from .solver import (BoxSet, SmoothConvexProblem, SolverError,
                     iterations_for_delta, pga_solve, project_capped_simplex)
from .twin import (DigitalTwin, check_satisfaction, compute_requirement,
                   forecast_requirements, regret_budgets, step_control,
                   update_regret)

__version__ = "0.1.0"

__all__ = [
    "AllocationConstraints", "BoxSet", "DEFAULT_MAX_DEVIATION",
    "DEFAULT_SLACK_PENALTY", "DigitalTwin", "DimensionMismatch",
    "InfeasibleSetError", "PolicyKind", "ScenarioConfig",
    "ScenarioValidationError", "SimResult", "SimulationError",
    "SmoothConvexProblem", "SolverError", "allocate_equal", "allocate_event",
    "allocate_online", "allocate_static", "build_manifest",
    "check_satisfaction", "compare_policies", "compute_requirement",
    "compute_residual", "config_digest", "estimate_event_horizon",
    "evolve_requirements", "forecast_requirements", "iterations_for_delta",
    "load_scenario", "metrics_csv", "pga_solve", "project_capped_simplex",
    "regret_budgets", "render_comparison_svg", "requirement_walk",
    "run_scenario", "save_scenario", "scenario_from_dict", "scenario_to_dict",
    "should_trigger", "step_control", "summarize", "target_walk",
    "update_regret", "write_manifest", "write_metrics_csv",
]
