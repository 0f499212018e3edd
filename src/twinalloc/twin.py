"""Digital twin of one physical resource.

Each tick the twin receives a fresh quadratic tracking task: the plant
floor's iteration requirement and a setpoint, both pre-drawn by the engine.
It reports the requirement, executes however many descent iterations the
network manager granted, and measures the performance gap versus the
counterfactual run that got everything it asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, isfinite
from operator import index

import numpy as np

# Not called here; kept bound for the benchmark's tracer, as in engine.py.
from .solver import iterations_for_delta  # noqa: F401

# Default per-step regret budget as a fraction of the twin's initial solve
# tolerance, so the trigger threshold scales with each twin's own stakes.
DEFAULT_EPSILON_FACTOR = 0.1
# Default descent step for the twin task. Well below 1/L (curvature 1), so
# granted-iteration shortfalls leave a visible suboptimality gap.
DEFAULT_TWIN_STEP_ALPHA = 0.2
# Lifts a grant a rounding error below an integer up to it before floor:
# allocations that are integers in exact arithmetic come out a few ulps off.
_FLOOR_GUARD = 1e-9
# Default task box, shared by DigitalTwin and the engine's setpoint walk.
DEFAULT_BOX_LOW = 0.0
DEFAULT_BOX_HIGH = 10.0


@dataclass(frozen=True)
class PerformanceSample:
    """Measured suboptimality for one tick (lower is better)."""

    tick: int
    achieved: float             # f(x_f) - f(x*) after the granted iterations
    requested_baseline: float   # same quantity after the requested k' iterations

    @property
    def regret_increment(self) -> float:
        return self.achieved - self.requested_baseline


@dataclass
class RegretTracker:
    """Cumulative performance regret since the last reallocation event."""

    threshold_epsilon_per_step: float
    last_event_tick_tau: int = 0
    cumulative_regret_R: float = 0.0

    def __post_init__(self):
        if not self.threshold_epsilon_per_step > 0:
            raise ValueError("threshold_epsilon_per_step must be positive")

    def reset(self, event_tick: int) -> None:
        self.last_event_tick_tau = event_tick
        self.cumulative_regret_R = 0.0


class DigitalTwin:
    """Owns one resource's control task, requirement reports and actions.

    The exogenous plant-floor load arrives as a per-tick iteration
    requirement k', which the twin reports as is; its solve tolerance
    D^2 / (2 alpha k') matters only on the first task, where it sets the
    default regret budget. The twin's action state persists across ticks:
    each tick's solve starts from the previously applied action.
    """

    def __init__(self, resource_id: int, requirement_gap: float = 10.0,
                 step_alpha: float = DEFAULT_TWIN_STEP_ALPHA,
                 box_low: float = DEFAULT_BOX_LOW,
                 box_high: float = DEFAULT_BOX_HIGH, curvature: float = 1.0,
                 epsilon_per_step: float | None = None):
        if requirement_gap < 0:
            raise ValueError("requirement_gap must be nonnegative")
        if not box_high > box_low:
            raise ValueError("task box must have positive width")
        if not curvature > 0:
            raise ValueError("curvature must be positive")
        if not 0 < step_alpha <= 1.0 / curvature:
            raise ValueError("step_alpha must lie in (0, 1/L]")
        self.resource_id = resource_id
        self.requirement_gap = float(requirement_gap)
        self.step_alpha = float(step_alpha)
        self.curvature = float(curvature)
        self.box_low = float(box_low)
        self.box_high = float(box_high)
        # Euclidean diameter of the 1-d box [box_low, box_high]
        self.diameter = self.box_high - self.box_low
        self._explicit_epsilon = epsilon_per_step
        self._action = 0.5 * (box_low + box_high)
        self._target: float | None = None
        self._requirement: tuple[int, int] | None = None
        self._initial_delta: float | None = None
        self._tick = -1

    # -- per-tick task assignment -----------------------------------------

    def assign_task(self, tick: int, required_iterations: int,
                    target: float) -> None:
        """Start a tick with the plant floor's requirement and a setpoint.

        The twin asks the network for exactly the load the plant floor
        imposed on it, k_prime = required_iterations, and keeps the pair
        (k_prime, k_lower) for compute_requirement and step_control. The
        setpoint must lie in the task box: it is then the task's minimizer.
        """
        k_prime = index(required_iterations)  # TypeError unless integral
        if k_prime < 1:
            raise ValueError("required_iterations must be >= 1")
        if not self.box_low <= target <= self.box_high:  # also rejects NaN
            raise ValueError("target must lie in the task box")
        self._tick = tick
        self._target = target
        if self._initial_delta is None:
            self._initial_delta = (self.diameter * self.diameter
                                   / (2.0 * self.step_alpha * k_prime))
        self._requirement = (
            k_prime, max(int(ceil(k_prime - self.requirement_gap)), 1))

    @property
    def epsilon_per_step(self) -> float:
        """Per-tick regret budget used by the event trigger."""
        if self._explicit_epsilon is not None:
            return self._explicit_epsilon
        if self._initial_delta is None:
            raise RuntimeError("epsilon undefined before the first task")
        return DEFAULT_EPSILON_FACTOR * self._initial_delta

    def make_tracker(self, event_tick: int = 0) -> RegretTracker:
        return RegretTracker(threshold_epsilon_per_step=self.epsilon_per_step,
                             last_event_tick_tau=event_tick)

    @property
    def action(self) -> float:
        return self._action


def compute_requirement(twin: DigitalTwin) -> tuple[int, int]:
    """Iteration requirement (k_prime) and acceptable floor (k_lower)."""
    if twin._requirement is None:
        raise RuntimeError("no task assigned yet")
    return twin._requirement


def step_control(twin: DigitalTwin, granted: float) -> PerformanceSample:
    """Run the granted iterations (at least one) and measure performance.

    The action is the final iterate itself (identity actuation map). The
    baseline continues the same descent to the requested count from the same
    start, so granting exactly k_prime makes achieved equal the baseline.
    Both are f(x) - f(x*) with x* = target, so f(x*) = 0.
    """
    if not isfinite(granted):
        raise ValueError("granted must be finite")
    if granted < 0:
        raise ValueError("granted must be nonnegative")
    if twin._requirement is None:
        raise RuntimeError("no task assigned yet")
    g = max(int(floor(granted + _FLOOR_GUARD)), 1)
    k_prime = twin._requirement[0]

    kappa = twin.curvature
    ak = twin.step_alpha * kappa
    c, lo, hi = twin._target, twin.box_low, twin.box_high
    # ends = [x after min(g, k'), x after max(g, k')]: the shorter run goes
    # first and the longer one continues from it
    x = twin._action
    ends = []
    for steps in (min(g, k_prime), abs(g - k_prime)):
        for _ in range(steps):
            x = x - ak * (x - c)
            if x < lo:
                x = lo
            elif x > hi:
                x = hi
        ends.append(x)
    x_granted, x_requested = ends[g > k_prime], ends[g < k_prime]
    twin._action = x_granted
    return PerformanceSample(
        tick=twin._tick, achieved=0.5 * kappa * (x_granted - c) ** 2,
        requested_baseline=0.5 * kappa * (x_requested - c) ** 2)


def update_regret(tracker: RegretTracker,
                  sample: PerformanceSample) -> RegretTracker:
    """Accumulate one tick's regret increment into the tracker."""
    if sample.tick < tracker.last_event_tick_tau:
        raise ValueError("sample predates the tracker's last event")
    tracker.cumulative_regret_R += sample.regret_increment
    return tracker


def check_satisfaction(tracker: RegretTracker, T: int) -> bool:
    """Regret-budget test |R| <= epsilon * (T+1) after T+1 accumulated ticks."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    budget = tracker.threshold_epsilon_per_step * (T + 1)
    return abs(tracker.cumulative_regret_R) <= budget


def forecast_requirements(twin: DigitalTwin, horizon_N: int) -> np.ndarray:
    """Persistence forecast: the current requirement repeated N+1 times."""
    if horizon_N < 1:
        raise ValueError("horizon_N must be >= 1")
    k_prime, _ = compute_requirement(twin)
    return np.full(horizon_N + 1, float(k_prime))
