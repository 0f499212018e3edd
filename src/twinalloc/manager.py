"""Central network manager: allocation policies, trigger, horizon estimate.

Four policies share one constraint language: a hard per-tick budget with
nonnegative allocations, plus soft minimum-grant and maximum-shortfall bounds
relaxed through a quadratic slack penalty. The slack vector has one entry per
soft constraint row (n lower-bound rows followed by n deviation rows) and is
eliminated analytically as the positive part of each violation.
"""

from __future__ import annotations

from enum import Enum
from dataclasses import dataclass, field
from math import floor

import numpy as np

from .core import AllocationConstraints, NetworkState
from .solver import (hinge_quadratic_objective, hinge_quadratic_solve,
                     project_capped_simplex)
from .twin import check_satisfaction

DEFAULT_WINDOW_M = 5
DEFAULT_HORIZON = 10
DEFAULT_MAX_REALLOCATION_PERIOD = 25


class PolicyKind(Enum):
    EQUAL = "equal"
    STATIC = "static"
    EVENT_TRIGGERED = "event"
    ONLINE_DYNAMIC = "online"


@dataclass
class EventHistory:
    """Reallocation event log plus the estimator/trigger parameters."""

    event_ticks: list[int] = field(default_factory=list)
    window_m: int = DEFAULT_WINDOW_M
    default_horizon: int = DEFAULT_HORIZON
    max_reallocation_period: int = DEFAULT_MAX_REALLOCATION_PERIOD

    def __post_init__(self):
        if self.window_m < 1:
            raise ValueError("window_m must be >= 1")
        if self.default_horizon < 1:
            raise ValueError("default_horizon must be >= 1")
        if self.max_reallocation_period < 1:
            raise ValueError("max_reallocation_period must be >= 1")
        ticks = list(self.event_ticks)
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("event_ticks must be strictly ascending")
        self.event_ticks = ticks

    def record(self, tick: int) -> None:
        if self.event_ticks and tick <= self.event_ticks[-1]:
            raise ValueError("event ticks must be strictly ascending")
        self.event_ticks.append(tick)


@dataclass(frozen=True)
class AllocationSolution:
    allocation: np.ndarray
    slack_gamma: np.ndarray   # 2n rows: lower-bound slacks then deviation slacks
    objective_value: float
    iterations: int = 0

    def __post_init__(self):
        allocation = np.asarray(self.allocation, dtype=float)
        slack = np.asarray(self.slack_gamma, dtype=float)
        if np.any(allocation < -1e-9):
            raise ValueError("allocation must be nonnegative")
        if np.any(slack < -1e-9):
            raise ValueError("slack must be nonnegative")
        allocation.flags.writeable = False
        slack.flags.writeable = False
        object.__setattr__(self, "allocation", allocation)
        object.__setattr__(self, "slack_gamma", slack)


def _slack_for(a: np.ndarray, constraints: AllocationConstraints) -> np.ndarray:
    # minimal slack making the soft rows feasible at allocation a
    low_gap = np.maximum(constraints.lower_bounds - a, 0.0)
    dev_gap = np.maximum(
        constraints.requested - a - constraints.max_deviation, 0.0)
    return np.concatenate([low_gap, dev_gap])


def allocate_equal(n: int, capacity_b: float) -> np.ndarray:
    """Uniform split of the budget; ignores every requirement report."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not capacity_b > 0:
        raise ValueError("capacity_b must be positive")
    return np.full(n, capacity_b / n)


def allocate_static(expected_r, constraints: AllocationConstraints
                    ) -> AllocationSolution:
    """Best fixed allocation for an expected requirement vector.

    Tracking-only least squares over the budget set; the minimizer is the
    Euclidean projection of the expected requirements.
    """
    r_bar = np.asarray(expected_r, dtype=float)
    a = project_capped_simplex(r_bar, np.zeros_like(r_bar),
                               constraints.capacity_b)
    objective = float(np.sum((a - r_bar) ** 2))
    return AllocationSolution(allocation=a,
                              slack_gamma=_slack_for(a, constraints),
                              objective_value=objective)


def _check_forecast(forecast, n: int, horizon: int) -> np.ndarray:
    fc = np.asarray(forecast, dtype=float)
    if fc.ndim == 1:
        fc = fc[None, :]
    if fc.ndim != 2 or fc.shape[1] != n:
        raise ValueError("forecast must be a (steps, n) array")
    if fc.shape[0] < horizon + 1:
        raise ValueError(f"forecast must cover {horizon + 1} steps")
    if not np.all(np.isfinite(fc)):
        raise ValueError("forecast must be finite")
    return fc


def allocate_online(state: NetworkState, forecast,
                    constraints: AllocationConstraints) -> AllocationSolution:
    """Receding-horizon allocation for the next step.

    Minimizes tracking error against forecast row 1 plus the slack penalty
    over the budget set; the objective adds the current state's cost
    against row 0. The next allocation state is the allocation itself.
    """
    n = constraints.n
    if state.n != n:
        raise ValueError("state/constraints dimensions disagree")
    fc = _check_forecast(forecast, n, 1)
    rho = constraints.slack_penalty_rho
    dev_floor = constraints.requested - constraints.max_deviation
    head_cost = float(np.sum((state.xi - fc[0]) ** 2))
    target = fc[1]
    a, passes = hinge_quadratic_solve(
        target, constraints.lower_bounds, dev_floor, rho,
        constraints.capacity_b)
    objective = head_cost + hinge_quadratic_objective(
        a, target, constraints.lower_bounds, dev_floor, 1.0, rho)
    return AllocationSolution(allocation=a,
                              slack_gamma=_slack_for(a, constraints),
                              objective_value=objective, iterations=passes)


def allocate_event(state: NetworkState, forecast,
                   constraints: AllocationConstraints,
                   N_e: int) -> AllocationSolution:
    """One fixed allocation held for the whole predicted inter-event horizon.

    Same cost family as allocate_online, but a single decision vector is
    applied at every step, so the tracking term pulls toward the time-mean
    of the forecast window.
    """
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    n = constraints.n
    if state.n != n:
        raise ValueError("state/constraints dimensions disagree")
    fc = _check_forecast(forecast, n, N_e)
    rho = constraints.slack_penalty_rho
    dev_floor = constraints.requested - constraints.max_deviation
    head_cost = float(np.sum((state.xi - fc[0]) ** 2))
    window = fc[1:N_e + 1]
    mean_r = window.mean(axis=0)
    # N_e identical tracking stages plus a once-counted slack penalty: the
    # minimizer sees the penalty at rho / N_e relative to tracking the mean
    a, passes = hinge_quadratic_solve(
        mean_r, constraints.lower_bounds, dev_floor, rho / N_e,
        constraints.capacity_b)
    slack = _slack_for(a, constraints)
    objective = head_cost + float(np.sum((window - a) ** 2))
    objective += rho * float(np.sum(slack ** 2))
    return AllocationSolution(allocation=a, slack_gamma=slack,
                              objective_value=objective, iterations=passes)


def estimate_event_horizon(history: EventHistory) -> int:
    """Average inter-event gap over the recent window, floored at 1.

    The averaging divides the window's gap total by the event count m (not
    the gap count m-1); with fewer than two recorded events there is nothing
    to average and the default horizon applies.
    """
    ticks = history.event_ticks
    if len(ticks) < 2:
        return history.default_horizon
    recent = ticks[-min(history.window_m, len(ticks)):]
    m = len(recent)
    total = recent[-1] - recent[0]
    return max(int(floor(total / m)), 1)


def should_trigger(trackers, ticks_since_event: int,
                   max_reallocation_period: int = DEFAULT_MAX_REALLOCATION_PERIOD
                   ) -> bool:
    """Reallocate when any twin's regret budget is blown or on the period cap."""
    if ticks_since_event >= max_reallocation_period:
        return True
    if ticks_since_event < 1:
        return False
    T = ticks_since_event - 1
    return any(not check_satisfaction(tr, T) for tr in trackers)
