"""Digital twin of one physical resource, and the twins' regret arithmetic.

Each tick a twin receives a fresh quadratic tracking task: the plant
floor's iteration requirement and a setpoint, both pre-drawn by the engine.
It takes however many descent iterations the network manager granted and
returns the tick's regret increment: its performance gap minus that of the
counterfactual run that got everything it asked for. Every twin descends
on f(x) = kappa/2 (x - c)^2 over one box with one step, fixed module
constants, so descent contracts by one factor q per step and both runs are
evaluated in closed form, in O(1) whatever the grant, with the powers of q
read from one table and each gap squared as d * d, correctly rounded (libm's
pow need not be). DigitalTwin and step_control run one twin; step_bank runs
a whole population over a block of ticks as arrays, bit for bit the same,
stepping only the actions tick by tick. Requirements, floors, regret and
regret budgets are arrays over all twins, held by the caller.
"""

from __future__ import annotations

from itertools import count, takewhile
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
# q ** k for k = 0, 1, ... up to its first 0.0 (k = 3340), the one source of
# q^g and q^k' on both twin paths: the last entry stands for every k past
# the table, where q ** k is 0.0 too. The array is the bank's copy.
_Q_POWERS = (*takewhile(bool, (_Q ** k for k in count())), 0.0)
_LAST_POWER = len(_Q_POWERS) - 1
_Q_POWER_ARRAY = np.array(_Q_POWERS)
# Lifts a grant a rounding error below an integer up to it before floor:
# allocations that are integers in exact arithmetic come out a few ulps off.
_FLOOR_GUARD = 1e-9
# Task box, shared by the twins and the engine's setpoint walk.
DEFAULT_BOX_LOW = 0.0
DEFAULT_BOX_HIGH = 10.0
# Every twin's action before its first tick: the middle of the box.
START_ACTION = 0.5 * (DEFAULT_BOX_LOW + DEFAULT_BOX_HIGH)


class DigitalTwin:
    """Owns one resource's control task and its action.

    Each tick the exogenous plant-floor load arrives as an iteration
    requirement k', the descent iterations the twin asks for; a grant's
    regret is measured against the run of k' iterations. The twin's action
    state persists across ticks: each tick's solve starts from the
    previously applied action.
    """

    def __init__(self):
        self._action = START_ACTION
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
    k_prime = twin._k_prime
    c, lo, hi = twin._target, DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH
    d0 = twin._action - c
    # conditional expressions, not min/max calls: this runs every twin-tick
    # of a narrow run (step_bank steps the wide ones)
    x_granted = c + _Q_POWERS[g if g < _LAST_POWER else _LAST_POWER] * d0
    x_requested = c + _Q_POWERS[k_prime if k_prime < _LAST_POWER
                                else _LAST_POWER] * d0
    x_granted = lo if x_granted < lo else hi if x_granted > hi else x_granted
    x_requested = (lo if x_requested < lo else hi if x_requested > hi
                   else x_requested)
    twin._action = x_granted
    d_g, d_r = x_granted - c, x_requested - c
    return _HALF_KAPPA * (d_g * d_g) - _HALF_KAPPA * (d_r * d_r)


def check_grants(granted) -> np.ndarray:
    """The grants as a float array, checked finite and nonnegative in one
    array test (NaN fails it)."""
    granted = np.asarray(granted, dtype=float)
    if not 0.0 <= granted.min() <= granted.max() < np.inf:
        raise ValueError("granted must be finite and nonnegative")
    return granted


def _q_power(k: np.ndarray) -> np.ndarray:
    """q ** k for float counts k >= 0 that are integers, from the table."""
    return _Q_POWER_ARRAY[np.minimum(k, _LAST_POWER).astype(np.intp)]


def step_bank(actions: np.ndarray, targets, k_prime, granted) -> np.ndarray:
    """step_control for a whole population of twins over a block of ticks:
    row t of targets, k_prime and granted, all of one shape, is tick t;
    any other shape raises ValueError before an action moves. Moves the
    actions (the population's only state) in place past the last row and
    returns the (ticks, n) regret increments.

    The caller checks the grants (check_grants), and once per run that the
    setpoints lie in the box and every k' >= 1. Only the actions step tick
    by tick, x = clip(c + q^g (x - c)); the requested runs and the
    increments are then whole-block array operations. Each element takes
    step_control's operations in its order, with the same powers of q and
    the squares as products (np.square), so actions and increments equal
    step_control's bit for bit.
    """
    if not granted.shape == k_prime.shape == targets.shape:
        raise ValueError("targets, k_prime and granted must be one shape")
    lo, hi = DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH
    q_granted = _q_power(np.maximum(np.floor(granted + _FLOOR_GUARD), 1.0))
    # each tick's x - c from its start, then the granted and requested ends
    ends = np.empty((3, *targets.shape))
    d0, runs = ends[0], ends[1:]
    x = actions
    for c, q, d, row in zip(targets, q_granted, d0, runs[0]):
        np.subtract(x, c, out=d)
        np.multiply(q, d, out=row)
        row += c
        np.maximum(row, lo, out=row)
        x = np.minimum(row, hi, out=row)
    actions[:] = x
    requested = np.multiply(_q_power(k_prime), d0, out=runs[1])
    requested += targets
    np.maximum(requested, lo, out=requested)
    np.minimum(requested, hi, out=requested)
    runs -= targets
    np.square(runs, out=runs)
    runs *= _HALF_KAPPA
    return runs[0] - runs[1]


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
