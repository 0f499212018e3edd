"""Central network manager: allocation policies, trigger, horizon estimate.

Four policies share one constraint language: a hard per-tick budget with
nonnegative allocations, plus soft minimum-grant and maximum-shortfall bounds
relaxed through a quadratic slack penalty. The slack vector has one entry per
soft constraint row (n lower-bound rows followed by n deviation rows) and is
eliminated analytically as the positive part of each violation.

The event trigger's period cap, the horizon estimate's window and its
default before two events are fixed module constants.
"""

from __future__ import annotations

from enum import Enum

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


def allocate_online(k_prime, k_lower,
                    constraints: AllocationConstraints) -> np.ndarray:
    """Receding-horizon allocation for the next step: the event solve over
    a horizon of one step."""
    return allocate_event(k_prime, k_lower, constraints, 1)


def allocate_event(k_prime, k_lower, constraints: AllocationConstraints,
                   N_e: int) -> np.ndarray:
    """One fixed allocation held for the whole predicted inter-event horizon.

    The reports k_prime are the request whose shortfall max_deviation
    bounds and, as the persistence forecast, the tracking target of each of
    the N_e steps; k_lower are the tick's minimum acceptable grants. N_e
    identical tracking stages plus a once-counted slack penalty leave the
    penalty at rho / N_e relative to tracking k_prime.
    """
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    k_prime = np.asarray(k_prime, dtype=float)
    k_lower = np.asarray(k_lower, dtype=float)
    if not (k_prime.ndim == 1 and k_prime.shape == k_lower.shape
            and np.isfinite(k_prime).all()):
        raise ValueError("k_prime must be a finite vector shaped like k_lower")
    a, _ = hinge_quadratic_solve(
        k_prime, k_lower, k_prime - constraints.max_deviation,
        constraints.slack_penalty_rho / N_e, constraints.capacity_b)
    return a


def estimate_event_horizon(event_ticks) -> int:
    """Average inter-event gap over the last DEFAULT_WINDOW_M ascending
    event ticks, floored at 1.

    The averaging divides the window's gap total by the event count m (not
    the gap count m-1); with fewer than two recorded events there is nothing
    to average and DEFAULT_HORIZON applies.
    """
    if len(event_ticks) < 2:
        return DEFAULT_HORIZON
    recent = event_ticks[-DEFAULT_WINDOW_M:]
    return max((recent[-1] - recent[0]) // len(recent), 1)


def should_trigger(regret, epsilon, ticks_since_event: int) -> bool:
    """Reallocate when any twin's regret budget is blown or on the period cap."""
    if ticks_since_event >= DEFAULT_MAX_REALLOCATION_PERIOD:
        return True
    if ticks_since_event < 1:
        return False
    return not check_satisfaction(regret, epsilon, ticks_since_event - 1)
