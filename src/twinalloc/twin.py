"""Digital twin of one physical resource, and the twins' regret arithmetic.

Each tick a twin receives a fresh quadratic tracking task: the plant
floor's iteration requirement and a setpoint, both pre-drawn by the engine.
It takes however many descent iterations the network manager granted and
returns the tick's regret increment: its performance gap minus that of the
counterfactual run that got everything it asked for. Every twin descends
on f(x) = kappa/2 (x - c)^2 over one box with one step, fixed module
constants, so descent contracts by one factor q per step and both runs are
evaluated in closed form, in O(1) whatever the grant. Requirements, floors,
regret and regret budgets are arrays over all twins, held by the caller.
"""

from __future__ import annotations

from math import floor, isfinite
from operator import index

import numpy as np

# Not called here; kept bound because the benchmark's tracer wraps it here.
from .solver import iterations_for_delta  # noqa: F401

# Default per-step regret budget as a fraction of the twin's initial solve
# tolerance, so the trigger threshold scales with each twin's own stakes.
DEFAULT_EPSILON_FACTOR = 0.1
# Descent step of every twin's task. Well below 1/L (curvature 1), so
# granted-iteration shortfalls leave a visible suboptimality gap.
DEFAULT_TWIN_STEP_ALPHA = 0.2
_CURVATURE = 1.0
# per-step contraction q = 1 - alpha * kappa and the gap's factor kappa / 2
_Q = 1.0 - DEFAULT_TWIN_STEP_ALPHA * _CURVATURE
_HALF_KAPPA = 0.5 * _CURVATURE
# Lifts a grant a rounding error below an integer up to it before floor:
# allocations that are integers in exact arithmetic come out a few ulps off.
_FLOOR_GUARD = 1e-9
# Task box, shared by DigitalTwin and the engine's setpoint walk.
DEFAULT_BOX_LOW = 0.0
DEFAULT_BOX_HIGH = 10.0


class DigitalTwin:
    """Owns one resource's control task and its action.

    Each tick the exogenous plant-floor load arrives as an iteration
    requirement k', the descent iterations the twin asks for; a grant's
    regret is measured against the run of k' iterations. The twin's action
    state persists across ticks: each tick's solve starts from the
    previously applied action.
    """

    def __init__(self):
        self._action = 0.5 * (DEFAULT_BOX_LOW + DEFAULT_BOX_HIGH)
        self._target: float | None = None
        self._k_prime: int | None = None

    # -- per-tick task assignment -----------------------------------------

    def assign_task(self, required_iterations: int, target: float) -> None:
        """Start a tick with the plant floor's requirement and a setpoint.

        The twin asks the network for exactly the load the plant floor
        imposed on it, k_prime = required_iterations, and keeps k_prime as
        step_control's baseline count. The setpoint must lie in the task
        box: it is then the task's minimizer.
        """
        k_prime = index(required_iterations)  # TypeError unless integral
        if k_prime < 1:
            raise ValueError("required_iterations must be >= 1")
        if not DEFAULT_BOX_LOW <= target <= DEFAULT_BOX_HIGH:  # and NaN
            raise ValueError("target must lie in the task box")
        self._target = target
        self._k_prime = k_prime

    @property
    def action(self) -> float:
        return self._action


def regret_budgets(first_requirements, epsilon_per_step: float | None
                   ) -> np.ndarray:
    """Each twin's per-tick regret budget: epsilon_per_step, or by default
    DEFAULT_EPSILON_FACTOR times the solve tolerance D^2 / (2 alpha k') of
    its first requirement on the twins' task box and step."""
    k0 = np.asarray(first_requirements, dtype=float)
    if epsilon_per_step is not None:
        return np.full(k0.shape, float(epsilon_per_step))
    diameter = DEFAULT_BOX_HIGH - DEFAULT_BOX_LOW
    return DEFAULT_EPSILON_FACTOR * (
        diameter * diameter / (2.0 * DEFAULT_TWIN_STEP_ALPHA * k0))


def compute_requirement(requirements, gap: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Reported requirements k_prime (as floats) and acceptable floors
    k_lower = max(ceil(k_prime - gap), 1)."""
    k_prime = np.asarray(requirements, dtype=float)
    return k_prime, np.maximum(np.ceil(k_prime - gap), 1.0)


def step_control(twin: DigitalTwin, granted: float) -> float:
    """Take the granted descent iterations (at least one); return the tick's
    regret increment, achieved minus baseline suboptimality.

    The action is the final iterate itself (identity actuation map). The
    baseline runs the same descent to the requested count k' from the same
    start, so granting exactly k' gives an increment of exactly 0. Both
    gaps are f(x) - f(x*) with x* = target, so f(x*) = 0.

    With q = 1 - alpha * kappa in (0, 1) and x, target both in the box, each
    step x - alpha * kappa * (x - c) is a convex combination of x and c, so
    the box constraint never binds and k steps give c + q^k (x - c). Each
    end is clamped to the box once, against rounding only.
    """
    if not isfinite(granted):
        raise ValueError("granted must be finite")
    if granted < 0:
        raise ValueError("granted must be nonnegative")
    if twin._k_prime is None:
        raise RuntimeError("no task assigned yet")
    g = floor(granted + _FLOOR_GUARD) or 1   # floor is >= 0: lifts 0 to 1
    c, lo, hi = twin._target, DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH
    d0 = twin._action - c
    x_granted = c + _Q ** g * d0
    x_requested = c + _Q ** twin._k_prime * d0
    # conditional expressions, not min/max calls: this runs every twin-tick
    x_granted = lo if x_granted < lo else hi if x_granted > hi else x_granted
    x_requested = (lo if x_requested < lo else hi if x_requested > hi
                   else x_requested)
    twin._action = x_granted
    return (_HALF_KAPPA * (x_granted - c) ** 2
            - _HALF_KAPPA * (x_requested - c) ** 2)


def update_regret(regret: np.ndarray, increments) -> np.ndarray:
    """Add a tick's regret increments, one per twin, into regret in place."""
    regret += increments
    return regret


def check_satisfaction(regret, epsilon, T: int) -> bool:
    """Regret-budget test |R_i| <= epsilon_i * (T+1) for every twin, after
    T+1 accumulated ticks."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    return bool((np.abs(regret) <= epsilon * (T + 1)).all())


def forecast_requirements(k_prime, horizon_N: int) -> np.ndarray:
    """Persistence forecast: the current reports repeated as N+1 rows."""
    if horizon_N < 1:
        raise ValueError("horizon_N must be >= 1")
    return np.tile(k_prime, (horizon_N + 1, 1))
