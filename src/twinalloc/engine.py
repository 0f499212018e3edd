"""Deterministic tick-loop orchestration of twins and the network manager.

The plant-floor requirement walk is drawn for the whole run up front. Per
tick: every twin certifies its iteration requirement once and reports it,
the active allocation policy runs on those reports (persistence forecasts
repeat the report vector), every twin's controller steps with its grant,
then metrics are recorded. All randomness
comes from named substreams of one master seed, so requirement trajectories
are identical across policies and independent of execution order.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (_FLOAT_FIELDS, _INT_FIELDS, _OPTIONAL_FLOAT_FIELDS,
                   _RANGE_FIELDS, DEFAULT_MAX_DEVIATION,
                   AllocationConstraints, NetworkState, ScenarioConfig,
                   ScenarioValidationError, compute_residual,
                   validate_scenario)
from .manager import (EventHistory, PolicyKind, allocate_equal,
                      allocate_event, allocate_online, allocate_static,
                      estimate_event_horizon, should_trigger)
from .twin import (DigitalTwin, compute_requirement, step_control,
                   update_regret)
# Not called here. Kept bound in this module, like the one-tick scalar walk
# evolve_requirements, because the benchmark's tracer (perfbench/tracer.py)
# wraps both names here and its tests require every wrapped name to exist.
from .twin import forecast_requirements  # noqa: F401

# substream domains under the master seed
_DOMAIN_RESOURCE_WALK = 0
_DOMAIN_TWIN_TARGETS = 1
_DOMAIN_SCENARIO = 2


class SimulationError(RuntimeError):
    """A tick-loop failure, annotated with the tick where it happened."""

    def __init__(self, tick: int, message: str):
        self.tick = tick
        super().__init__(f"tick {tick}: {message}")


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, domain, index))))


def draw_initial_requirements(config: ScenarioConfig, seed: int) -> np.ndarray:
    """Integer starting requirements from the scenario's own substream."""
    lo, hi = config.initial_requirement_range
    rng = _stream(seed, _DOMAIN_SCENARIO, 0)
    return rng.integers(lo, hi, endpoint=True, size=config.n_resources)


def evolve_requirements(current, tick: int, config: ScenarioConfig,
                        rng_streams) -> np.ndarray:
    """One tick of the bounded integer random walk per resource.

    Stationary during the prefix (no draws consumed, so trajectories agree
    across any code path that skips those ticks); afterwards each resource
    adds an independent uniform integer step in [-d, d] and clamps to the
    requirement range. requirement_walk reproduces it with block draws.
    """
    if tick < 0:
        raise ValueError("tick must be nonnegative")
    current = np.asarray(current)
    if tick < config.stationary_prefix:
        return current.copy()
    d = config.requirement_step_bound
    lo, hi = config.requirement_range
    steps = np.array([int(rng.integers(-d, d, endpoint=True))
                      for rng in rng_streams])
    return np.clip(current + steps, lo, hi)


def requirement_walk(config: ScenarioConfig, seed: int) -> np.ndarray:
    """(n_ticks, n) int64 requirement trajectory for the whole run.

    Row 0 is the initial draw; each later row is one evolve_requirements
    tick. Every resource's steps come from one block draw on its own walk
    substream, which yields the same values as one scalar draw per tick.
    """
    n, n_ticks = config.n_resources, config.n_ticks
    d = config.requirement_step_bound
    lo, hi = config.requirement_range
    first = min(max(config.stationary_prefix, 1), n_ticks)  # first step tick
    steps = np.zeros((n_ticks, n), dtype=np.int64)
    for i in range(n):
        steps[first:, i] = _stream(seed, _DOMAIN_RESOURCE_WALK, i).integers(
            -d, d, endpoint=True, size=n_ticks - first)
    walk = np.empty((n_ticks, n), dtype=np.int64)
    walk[0] = draw_initial_requirements(config, seed)
    for t in range(1, n_ticks):
        walk[t] = np.clip(walk[t - 1] + steps[t], lo, hi)
    return walk


@dataclass(frozen=True)
class SimResult:
    """Everything one (config, policy, seed) run produced."""

    policy: PolicyKind
    seed: int
    capacity_b: float
    residual_inf_series: np.ndarray        # (n_ticks,)
    mean_residual_after_prefix: float
    reallocation_ticks: tuple[int, ...]    # re-solve ticks (t >= 1)
    regret_series: np.ndarray              # (n_ticks, n) cumulative per twin
    requirement_series: np.ndarray         # (n_ticks, n) integer k'
    allocation_series: np.ndarray          # (n_ticks, n)

    @property
    def n_ticks(self) -> int:
        return self.residual_inf_series.size


def run_scenario(config: ScenarioConfig, policy: PolicyKind,
                 seed: int) -> SimResult:
    """Simulate one policy for the whole scenario.

    Equal and Static allocate once at tick 0 and hold. EventTriggered starts
    from the static solve and re-solves only when the regret trigger fires,
    resetting every tracker at that tick. OnlineDynamic re-solves the
    receding-horizon problem every tick.
    """
    validate_scenario(config)
    policy = PolicyKind(policy)
    n = config.n_resources
    n_ticks = config.n_ticks

    twins = [DigitalTwin(i, _stream(seed, _DOMAIN_TWIN_TARGETS, i),
                         requirement_gap=config.gap,
                         epsilon_per_step=config.epsilon_per_step)
             for i in range(n)]
    requirement_series = requirement_walk(config, seed)
    capacity = (float(config.capacity_b) if config.capacity_b is not None
                else float(requirement_series[0].sum()))

    residual_series = np.empty(n_ticks)
    regret_series = np.empty((n_ticks, n))
    allocation_series = np.empty((n_ticks, n))
    realloc_ticks: list[int] = []

    trackers = None
    history = EventHistory()
    held_alloc = None         # current fixed allocation (equal/static/event)
    alloc = None              # last tick's allocation: the network state
    tau_last = 0              # tick of the last reallocation event

    # built only where a policy solves, from this tick's reports
    def constraints():
        return AllocationConstraints(
            capacity_b=capacity, lower_bounds=k_lower, requested=k_prime,
            max_deviation=DEFAULT_MAX_DEVIATION, slack_penalty_rho=config.rho)

    def state():
        return NetworkState.zeros(n) if alloc is None else NetworkState(alloc)

    for t in range(n_ticks):
        try:
            for twin, req in zip(twins, requirement_series[t].tolist()):
                twin.assign_task(t, req)
            reports = [compute_requirement(tw) for tw in twins]
            k_prime = np.array([kp for kp, _ in reports], dtype=float)
            k_lower = np.array([kl for _, kl in reports], dtype=float)
            if trackers is None:
                trackers = [tw.make_tracker(0) for tw in twins]

            if policy is PolicyKind.EQUAL:
                if held_alloc is None:
                    held_alloc = allocate_equal(n, capacity)
                alloc = held_alloc
            elif policy is PolicyKind.STATIC:
                if held_alloc is None:
                    held_alloc = allocate_static(k_prime,
                                                 constraints()).allocation
                alloc = held_alloc
            elif policy is PolicyKind.EVENT_TRIGGERED:
                if held_alloc is None:
                    held_alloc = allocate_static(k_prime,
                                                 constraints()).allocation
                elif should_trigger(trackers, t - tau_last,
                                    history.max_reallocation_period):
                    horizon = estimate_event_horizon(history)
                    forecast = np.tile(k_prime, (horizon + 1, 1))
                    held_alloc = allocate_event(
                        state(), forecast, constraints(), horizon).allocation
                    history.record(t)
                    realloc_ticks.append(t)
                    tau_last = t
                    for tracker in trackers:
                        tracker.reset(t)
                alloc = held_alloc
            else:
                forecast = np.tile(k_prime, (2, 1))
                alloc = allocate_online(state(), forecast,
                                        constraints()).allocation
                if t >= 1:
                    realloc_ticks.append(t)

            for twin, tracker, grant in zip(twins, trackers, alloc.tolist()):
                update_regret(tracker, step_control(twin, grant).sample)

            residual_series[t] = compute_residual(k_prime, alloc)[1]
            regret_series[t] = [tr.cumulative_regret_R for tr in trackers]
            allocation_series[t] = alloc
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(t, str(exc)) from exc

    after = residual_series[config.stationary_prefix:]
    mean_after = float(after.mean()) if after.size else float("nan")
    for arr in (residual_series, regret_series, requirement_series,
                allocation_series):
        arr.flags.writeable = False
    return SimResult(policy=policy, seed=seed, capacity_b=capacity,
                     residual_inf_series=residual_series,
                     mean_residual_after_prefix=mean_after,
                     reallocation_ticks=tuple(realloc_ticks),
                     regret_series=regret_series,
                     requirement_series=requirement_series,
                     allocation_series=allocation_series)


def compare_policies(config: ScenarioConfig,
                     seed: int) -> dict[PolicyKind, SimResult]:
    """Run all four policies on identical requirement trajectories.

    Per-policy runs are fully independent (separate twins, separate RNG
    streams rebuilt from the same seed).
    """
    return {kind: run_scenario(config, kind, seed) for kind in PolicyKind}


# -- scenario files ---------------------------------------------------------

_SCENARIO_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))


def _as_int(key: str, value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    # json.load reads NaN and Infinity as floats; is_integer() rejects both
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ScenarioValidationError([f"{key} must be an integer"])


def _as_float(key: str, value) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number; int beyond float range
        pass
    raise ScenarioValidationError([f"{key} must be a finite number"])


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a key/value tree.

    Unknown keys are rejected; missing keys fall back to defaults.
    """
    if not isinstance(data, dict):
        raise ScenarioValidationError(["scenario document must be an object"])
    unknown = sorted(set(data) - set(_SCENARIO_FIELDS))
    if unknown:
        raise ScenarioValidationError(
            [f"unknown scenario key: {k}" for k in unknown])
    kwargs = {}
    for key, value in data.items():
        if key in _RANGE_FIELDS:
            if (not isinstance(value, (list, tuple)) or len(value) != 2):
                raise ScenarioValidationError(
                    [f"{key} must be a [min, max] pair"])
            kwargs[key] = (_as_int(key, value[0]), _as_int(key, value[1]))
        elif key in _INT_FIELDS:
            kwargs[key] = _as_int(key, value)
        elif key in _OPTIONAL_FLOAT_FIELDS:
            kwargs[key] = None if value is None else _as_float(key, value)
        elif key in _FLOAT_FIELDS:
            kwargs[key] = _as_float(key, value)
    return validate_scenario(ScenarioConfig(**kwargs))


def scenario_to_dict(config: ScenarioConfig) -> dict:
    data = dataclasses.asdict(config)
    for key in _RANGE_FIELDS:
        data[key] = list(data[key])
    return data


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario JSON file; OSError and validation errors propagate."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioValidationError(
                [f"scenario file is not valid JSON: {exc}"]) from exc
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
