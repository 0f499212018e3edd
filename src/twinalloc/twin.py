"""Digital twin of one physical resource.

Each tick the twin receives a fresh quadratic tracking task (a new setpoint
drawn from its own RNG stream), converts its solve tolerance into an
iteration-count requirement via the descent certificate, executes however
many iterations the network manager granted, and measures the performance
gap versus the counterfactual run that got everything it asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, isfinite

import numpy as np

from .solver import iterations_for_delta

# Default per-step regret budget as a fraction of the twin's initial solve
# tolerance, so the trigger threshold scales with each twin's own stakes.
DEFAULT_EPSILON_FACTOR = 0.1
# Default descent step for the twin task. Well below 1/L (curvature 1), so
# granted-iteration shortfalls leave a visible suboptimality gap.
DEFAULT_TWIN_STEP_ALPHA = 0.2
# Lifts a grant a rounding error below an integer up to it before floor:
# allocations that are integers in exact arithmetic come out a few ulps off.
_FLOOR_GUARD = 1e-9


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


@dataclass(frozen=True)
class ControlOutput:
    iterations_granted: int
    sample: PerformanceSample


class DigitalTwin:
    """Owns one resource's control task, requirement reports and actions.

    The exogenous plant-floor load arrives as a per-tick iteration
    requirement; assign_task converts it into the equivalent solve tolerance
    and certifies it once, so that the certificate arithmetic reproduces
    exactly that count. The twin's action state persists across ticks: each
    tick's solve starts from the previously applied action.
    """

    def __init__(self, resource_id: int, rng: np.random.Generator,
                 requirement_gap: float = 10.0,
                 step_alpha: float = DEFAULT_TWIN_STEP_ALPHA,
                 box_low: float = 0.0, box_high: float = 10.0,
                 curvature: float = 1.0,
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
        self.rng = rng
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

    def assign_task(self, tick: int, required_iterations: int) -> None:
        """Start a tick: draw a fresh setpoint and certify the requirement.

        The tolerance is chosen so iterations_for_delta returns exactly
        required_iterations, i.e. the twin asks the network for the load the
        plant floor imposed on it. The certified pair (k_prime, k_lower) is
        kept for compute_requirement and step_control.
        """
        if required_iterations < 1:
            raise ValueError("required_iterations must be >= 1")
        self._tick = tick
        self._target = float(self.rng.uniform(self.box_low, self.box_high))
        diam = self.diameter
        delta = diam * diam / (2.0 * self.step_alpha * required_iterations)
        if self._initial_delta is None:
            self._initial_delta = delta
        k_prime = iterations_for_delta(diam, self.step_alpha, delta)
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


def step_control(twin: DigitalTwin, granted: float) -> ControlOutput:
    """Run the granted iterations (at least one) and measure performance.

    The action is the final iterate itself (identity actuation map). The
    baseline continues the same descent to the requested count from the same
    start, so granting exactly k_prime makes achieved equal the baseline.
    """
    if not isfinite(granted):
        raise ValueError("granted must be finite")
    if granted < 0:
        raise ValueError("granted must be nonnegative")
    if twin._requirement is None:
        raise RuntimeError("no task assigned yet")
    g = max(int(floor(granted + _FLOOR_GUARD)), 1)
    k_prime = twin._requirement[0]

    lo = twin.box_low
    hi = twin.box_high
    kappa = twin.curvature
    alpha = twin.step_alpha
    c = twin._target
    # analytic minimizer of the clamped 1-dim quadratic
    x_star = min(max(c, lo), hi)
    f_star = 0.5 * kappa * (x_star - c) ** 2

    x = twin._action
    x_granted = x
    x_requested = x
    for k in range(1, max(g, k_prime) + 1):
        x = x - alpha * kappa * (x - c)
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
        if k == g:
            x_granted = x
        if k == k_prime:
            x_requested = x

    achieved = 0.5 * kappa * (x_granted - c) ** 2 - f_star
    baseline = 0.5 * kappa * (x_requested - c) ** 2 - f_star
    twin._action = x_granted
    sample = PerformanceSample(tick=twin._tick, achieved=achieved,
                               requested_baseline=baseline)
    return ControlOutput(iterations_granted=g, sample=sample)


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
