"""Deterministic tick-loop orchestration of twins and the network manager.

The plant-floor requirement walk and the twins' setpoint walks are drawn
for the whole run up front, and the reports k' and their floors are
computed and checked once for the whole walk; every twin's regret and
budget are arrays. Per tick: every twin takes its requirement and setpoint,
the active allocation policy runs on the tick's reports (the walk row;
persistence forecasts repeat it), every twin's controller steps with its
grant, the regret array takes the tick's increments, then regret and
allocation are recorded. The residual series is computed once, after the
last tick. All randomness comes from
named substreams of one master seed, so the walks are identical across
policies and independent of execution order. Substream (seed, domain, i) is
numpy's Generator(PCG64(SeedSequence((seed, domain, i)))).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (_FLOAT_FIELDS, _INT_FIELDS, _OPTIONAL_FLOAT_FIELDS,
                   _RANGE_FIELDS, DEFAULT_MAX_DEVIATION,
                   AllocationConstraints, ScenarioConfig,
                   ScenarioValidationError, compute_residual,
                   validate_scenario)
from .manager import (EventHistory, PolicyKind, allocate_equal,
                      allocate_event, allocate_online, allocate_static,
                      estimate_event_horizon, should_trigger)
from .twin import (DEFAULT_BOX_HIGH, DEFAULT_BOX_LOW, DigitalTwin,
                   compute_requirement, forecast_requirements, regret_budgets,
                   step_control, update_regret)

# substream domains under the master seed
_DOMAIN_RESOURCE_WALK = 0
_DOMAIN_TWIN_TARGETS = 1
_DOMAIN_SCENARIO = 2


class SimulationError(RuntimeError):
    """A tick-loop failure, annotated with the tick where it happened."""

    def __init__(self, tick: int, message: str):
        self.tick = tick
        super().__init__(f"tick {tick}: {message}")


# numpy's SeedSequence hash constants (NEP 19); its pool holds 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _seed_words_class():
    # defined on first use: naming np.random at import time would load it
    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words
    return SeedWords


def _streams(seed: int, domain: int, count: int) -> list[np.random.Generator]:
    """Generator(PCG64(SeedSequence((seed, domain, i)))) for i < count, with
    the SeedSequence hash run once over all indices on uint32 arrays."""
    if not (0 <= count <= 2 ** 32 and 0 <= seed < 2 ** 64):
        raise ValueError("need 0 <= seed < 2**64 and 0 <= count <= 2**32 "
                         "(each index is one 32-bit word)")
    # entropy: the seed's one or two 32-bit words, the domain, the index
    seed_words = [seed % 2 ** 32, seed >> 32] if seed >> 32 else [seed]
    entropy = np.zeros((4, count), dtype=np.uint32)
    entropy[:len(seed_words) + 1] = np.array(seed_words + [domain])[:, None]
    entropy[len(seed_words) + 1] = np.arange(count)
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult % 2 ** 32
        value = value * hash_const
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
        pool[dst] = mixed ^ (mixed >> 16)
    hash_const = _INIT_B  # generate_state(4, np.uint64) reads 8 pool words
    state = np.array([hashmix(pool[j % 4], _MULT_B) for j in range(8)],
                     dtype=np.uint64)
    # each uint64 word is a little-endian pair of uint32 words; PCG64 reads
    # a row's buffer directly, so the rows must be contiguous
    words = np.ascontiguousarray((state[1::2] << 32 | state[0::2]).T)
    return [np.random.Generator(np.random.PCG64(_seed_words_class()(row)))
            for row in words]


def draw_initial_requirements(config: ScenarioConfig, seed: int) -> np.ndarray:
    """Integer starting requirements from the scenario's own substream."""
    lo, hi = config.initial_requirement_range
    rng, = _streams(seed, _DOMAIN_SCENARIO, 1)
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
    for i, rng in enumerate(_streams(seed, _DOMAIN_RESOURCE_WALK, n)):
        steps[first:, i] = rng.integers(-d, d, endpoint=True,
                                        size=n_ticks - first)
    walk = np.empty((n_ticks, n), dtype=np.int64)
    walk[0] = draw_initial_requirements(config, seed)
    for t in range(1, n_ticks):
        walk[t] = np.clip(walk[t - 1] + steps[t], lo, hi)
    return walk


def target_walk(config: ScenarioConfig, seed: int) -> np.ndarray:
    """(n_ticks, n) setpoints, uniform in the default task box.

    Column i is one block draw on twin i's target substream, which yields
    the same values as one scalar draw per tick.
    """
    targets = np.empty((config.n_ticks, config.n_resources))
    for i, rng in enumerate(
            _streams(seed, _DOMAIN_TWIN_TARGETS, config.n_resources)):
        targets[:, i] = rng.uniform(DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH,
                                    size=config.n_ticks)
    return targets


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
    resetting every twin's regret to zero at that tick. OnlineDynamic
    re-solves the receding-horizon problem every tick.
    """
    validate_scenario(config)
    return _simulate(config, PolicyKind(policy), seed,
                     requirement_walk(config, seed), target_walk(config, seed))


def _simulate(config: ScenarioConfig, policy: PolicyKind, seed: int,
              requirement_series: np.ndarray,
              targets: np.ndarray) -> SimResult:
    """run_scenario's tick loop on the (config, seed) walks, read only."""
    n = config.n_resources
    n_ticks = config.n_ticks

    twins = [DigitalTwin(i) for i in range(n)]
    # a Python int sum is exact where an int64 sum could wrap
    capacity = (float(config.capacity_b) if config.capacity_b is not None
                else float(sum(requirement_series[0].tolist())))
    # the run's constants and every tick's reports k' and floors k_lower,
    # checked here once; no tick checks them again
    constraints = AllocationConstraints(capacity, DEFAULT_MAX_DEVIATION,
                                        config.rho)
    k_prime, k_lower = compute_requirement(requirement_series, config.gap)
    if not np.all((1.0 <= k_lower) & (k_lower <= k_prime)):
        raise SimulationError(0, "requirement floors must lie in [1, k']")
    epsilon = regret_budgets(requirement_series[0], config.epsilon_per_step)
    regret = np.zeros(n)      # per twin, since the last reallocation event

    regret_series = np.empty((n_ticks, n))
    allocation_series = np.empty((n_ticks, n))
    realloc_ticks: list[int] = []

    history = EventHistory()
    held_alloc = None         # current fixed allocation (equal/static/event)
    tau_last = 0              # tick of the last reallocation event

    for t in range(n_ticks):
        try:
            for twin, req, target in zip(twins, requirement_series[t].tolist(),
                                         targets[t].tolist()):
                twin.assign_task(req, target)

            if policy is PolicyKind.EQUAL:
                if held_alloc is None:
                    held_alloc = allocate_equal(n, capacity)
                alloc = held_alloc
            elif policy is PolicyKind.STATIC:
                if held_alloc is None:
                    held_alloc = allocate_static(k_prime[t], capacity)
                alloc = held_alloc
            elif policy is PolicyKind.EVENT_TRIGGERED:
                if held_alloc is None:
                    held_alloc = allocate_static(k_prime[t], capacity)
                elif should_trigger(regret, epsilon, t - tau_last,
                                    history.max_reallocation_period):
                    horizon = estimate_event_horizon(history)
                    held_alloc = allocate_event(
                        forecast_requirements(k_prime[t], horizon),
                        k_lower[t], constraints, horizon)
                    history.record(t)
                    realloc_ticks.append(t)
                    tau_last = t
                    regret[:] = 0.0
                alloc = held_alloc
            else:
                alloc = allocate_online(forecast_requirements(k_prime[t], 1),
                                        k_lower[t], constraints)
                if t >= 1:
                    realloc_ticks.append(t)

            update_regret(regret, [step_control(twin, grant) for twin, grant
                                   in zip(twins, alloc.tolist())])

            regret_series[t] = regret
            allocation_series[t] = alloc
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(t, str(exc)) from exc

    residual_series = compute_residual(k_prime, allocation_series)[1]
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

    Both walks are drawn once and shared, read-only; each policy runs on
    its own twins, so the results equal four run_scenario calls.
    """
    validate_scenario(config)
    walks = requirement_walk(config, seed), target_walk(config, seed)
    return {kind: _simulate(config, kind, seed, *walks) for kind in PolicyKind}


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
