"""Controller-aware network resource allocation for digital-twin plants.

A deterministic discrete-time simulator in which per-resource digital twins
convert control-task tolerances into iteration requirements via a projected
gradient descent certificate, and a central network manager splits a shared
computation budget across them under four policies: equal split, static,
regret-triggered event reallocation, and receding-horizon online allocation.
"""

from .core import (DEFAULT_MAX_DEVIATION, DEFAULT_SLACK_PENALTY,
                   AllocationConstraints, DimensionMismatch,
                   InfeasibleSetError, NetworkState,
                   ScenarioConfig, ScenarioValidationError, compute_residual,
                   validate_scenario)
from .engine import (SimResult, SimulationError, compare_policies,
                     draw_initial_requirements, evolve_requirements,
                     load_scenario, requirement_walk, run_scenario,
                     save_scenario, scenario_from_dict, scenario_to_dict)
from .manager import (AllocationSolution, EventHistory, PolicyKind,
                      allocate_equal, allocate_event, allocate_online,
                      allocate_static, estimate_event_horizon, should_trigger)
from .report import (build_manifest, config_digest, render_comparison_svg,
                     render_metrics_csv, summarize, write_manifest,
                     write_metrics_csv)
from .solver import (BoxSet, CappedSimplexSet, PGAConfig, PGAResult,
                     SmoothConvexProblem, SolverError, iterations_for_delta,
                     pga_solve, project_box, project_capped_simplex)
from .twin import (ControlOutput, DigitalTwin, PerformanceSample,
                   RegretTracker, check_satisfaction, compute_requirement,
                   forecast_requirements, step_control, update_regret)

__version__ = "0.1.0"

__all__ = [
    "AllocationConstraints", "AllocationSolution", "BoxSet",
    "CappedSimplexSet", "ControlOutput", "DEFAULT_MAX_DEVIATION",
    "DEFAULT_SLACK_PENALTY", "DigitalTwin", "DimensionMismatch",
    "EventHistory", "InfeasibleSetError", "NetworkState",
    "PGAConfig", "PGAResult", "PerformanceSample", "PolicyKind",
    "RegretTracker", "ScenarioConfig", "ScenarioValidationError", "SimResult",
    "SimulationError", "SmoothConvexProblem", "SolverError",
    "allocate_equal", "allocate_event", "allocate_online", "allocate_static",
    "build_manifest", "check_satisfaction", "compare_policies",
    "compute_requirement", "compute_residual", "config_digest",
    "draw_initial_requirements", "estimate_event_horizon",
    "evolve_requirements", "forecast_requirements", "iterations_for_delta",
    "load_scenario", "pga_solve", "project_box", "project_capped_simplex",
    "render_comparison_svg", "render_metrics_csv", "requirement_walk",
    "run_scenario", "save_scenario", "scenario_from_dict", "scenario_to_dict",
    "should_trigger", "step_control", "summarize", "update_regret",
    "validate_scenario", "write_manifest", "write_metrics_csv",
]
