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

from .core import AllocationConstraints
from .solver import hinge_quadratic_solve, project_capped_simplex
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


def allocate_equal(n: int, capacity_b: float) -> np.ndarray:
    """Uniform split of the budget; ignores every requirement report."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not capacity_b > 0:
        raise ValueError("capacity_b must be positive")
    return np.full(n, capacity_b / n)


def allocate_static(expected_r, capacity_b: float) -> np.ndarray:
    """Best fixed allocation for an expected requirement vector.

    Tracking-only least squares over the budget set; the minimizer is the
    Euclidean projection of the expected requirements.
    """
    r_bar = np.asarray(expected_r, dtype=float)
    return project_capped_simplex(r_bar, np.zeros_like(r_bar), capacity_b)


def _check_forecast(forecast, n: int, horizon: int) -> np.ndarray:
    fc = np.asarray(forecast, dtype=float)
    if fc.ndim != 2 or fc.shape[1] != n:
        raise ValueError("forecast must be a (steps, n) array")
    if fc.shape[0] < horizon + 1:
        raise ValueError(f"forecast must cover {horizon + 1} steps")
    if not np.all(np.isfinite(fc)):
        raise ValueError("forecast must be finite")
    return fc


def allocate_online(forecast, constraints: AllocationConstraints
                    ) -> np.ndarray:
    """Receding-horizon allocation for the next step.

    Minimizes tracking error against forecast row 1 (row 0 is the current
    report) plus the slack penalty over the budget set.
    """
    fc = _check_forecast(forecast, constraints.n, 1)
    dev_floor = constraints.requested - constraints.max_deviation
    a, _ = hinge_quadratic_solve(
        fc[1], constraints.lower_bounds, dev_floor,
        constraints.slack_penalty_rho, constraints.capacity_b)
    return a


def allocate_event(forecast, constraints: AllocationConstraints,
                   N_e: int) -> np.ndarray:
    """One fixed allocation held for the whole predicted inter-event horizon.

    Same cost family as allocate_online, but a single decision vector is
    applied at every step, so the tracking term pulls toward the time-mean
    of the forecast window.
    """
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    fc = _check_forecast(forecast, constraints.n, N_e)
    rho = constraints.slack_penalty_rho
    dev_floor = constraints.requested - constraints.max_deviation
    mean_r = fc[1:N_e + 1].mean(axis=0)
    # N_e identical tracking stages plus a once-counted slack penalty: the
    # minimizer sees the penalty at rho / N_e relative to tracking the mean
    a, _ = hinge_quadratic_solve(
        mean_r, constraints.lower_bounds, dev_floor, rho / N_e,
        constraints.capacity_b)
    return a


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


def should_trigger(regret, epsilon, ticks_since_event: int,
                   max_reallocation_period: int = DEFAULT_MAX_REALLOCATION_PERIOD
                   ) -> bool:
    """Reallocate when any twin's regret budget is blown or on the period cap."""
    if ticks_since_event >= max_reallocation_period:
        return True
    if ticks_since_event < 1:
        return False
    return not check_satisfaction(regret, epsilon, ticks_since_event - 1)
