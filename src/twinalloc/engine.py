"""Deterministic tick-loop orchestration of twins and the network manager.

The plant-floor requirement walk and the twins' setpoint walks are drawn
for the whole run up front, and the reports k' and their floors are
computed and checked once for the whole walk; every twin's regret and
budget are arrays. Per tick: every twin takes its requirement and setpoint,
the active allocation policy runs on the tick's reports (the walk row,
which is also their persistence forecast), every twin's controller steps
with its grant, the regret array takes the tick's increments, then regret
and allocation are recorded. The residual series is computed once, after the
last tick. All randomness comes from named substreams of one master seed,
so the walks are identical across policies and independent of execution
order. Substream (seed, domain, i) is numpy's Generator(PCG64(SeedSequence(
(seed, domain, i)))); the engine draws all of a walk's substreams at once
in its own vectorised pass of the same hash and generator, bit for bit.
"""

from __future__ import annotations

import dataclasses
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
from .manager import (PolicyKind, allocate_equal, allocate_event,
                      allocate_online, allocate_static,
                      estimate_event_horizon, should_trigger)
from .twin import (DEFAULT_BOX_HIGH, DEFAULT_BOX_LOW, DigitalTwin,
                   compute_requirement, regret_budgets, step_control,
                   update_regret)
# Not called here; kept bound because the benchmark's tracer wraps it here.
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


# numpy's SeedSequence hash constants (NEP 19); its pool holds 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# numpy's PCG64: a 128-bit LCG with the XSL-RR 128/64 output
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)
_BLOCK = 4096  # elements per pass: larger uint64 temporaries leave the cache


def _seed_words(seed: int, domains, indices) -> np.ndarray:
    """(4, count) uint64: column j is SeedSequence((seed, domains[j],
    indices[j])).generate_state(4, np.uint64), with the hash run once over
    all columns on uint32 arrays."""
    keys = np.array([domains, indices], dtype=np.int64)
    if not (0 <= seed < 2 ** 64 and ((0 <= keys) & (keys < 2 ** 32)).all()):
        raise ValueError("need 0 <= seed < 2**64 and 32-bit domain and index")
    # entropy: the seed's one or two 32-bit words, the domain, the index
    seed_words = [seed % 2 ** 32, seed >> 32] if seed >> 32 else [seed]
    entropy = np.zeros((4, keys.shape[1]), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words)[:, None]
    entropy[len(seed_words):len(seed_words) + 2] = keys
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
    # each uint64 word is a little-endian pair of uint32 words
    return state[1::2] << 32 | state[0::2]


def _mul64(a, b):
    """High and low words of the 128-bit products a * b of uint64 words."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    carry = a0 * b1 + (mid & _LOW32)
    return a1 * b1 + (mid >> 32) + (carry >> 32), a * b


def _mul128(a_hi, a_lo, b_hi, b_lo):
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_lo * b_hi + a_hi * b_lo, lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64(words: np.ndarray) -> np.ndarray:
    """(4, count) rows state hi, state lo, inc hi, inc lo: each column's
    PCG64 seeded from its seed words as numpy's pcg64_set_seed does: from
    state 0, one step (to inc), add the seed words, one more step."""
    inc = words[2] << 1 | words[3] >> 63, words[3] << 1 | 1
    return _pcg64_outputs(np.array([*_add128(*inc, *words[:2]), *inc]), 1)[1]


def _pcg64_outputs(streams: np.ndarray, count: int):
    """(streams, count) uint64: every stream's next count outputs, and the
    streams advanced past them. Step j from state s lands on A_j s + B_j inc,
    A_j = M**j and B_j = 1 + ... + M**(j-1) mod 2**128, in blocks of _BLOCK."""
    cols, mult, add, table = max(1, min(count, 256)), _PCG_MULT, 1, []
    for _ in range(cols):  # A_j, B_j for j = 1..cols
        table += mult >> 64, mult & 2 ** 64 - 1, add >> 64, add & 2 ** 64 - 1
        mult, add = mult * _PCG_MULT & 2 ** 128 - 1, add + mult & 2 ** 128 - 1
    a_hi, a_lo, b_hi, b_lo = np.array(table, dtype=np.uint64).reshape(-1, 4).T
    n = streams.shape[1]
    out, streams = np.empty((n, count), dtype=np.uint64), streams.copy()
    step = max(1, _BLOCK // cols)  # rows per block
    for r in range(0, n, step):
        hi, lo, inc_hi, inc_lo = streams[:, r:r + step, None]
        for c in range(0, count, cols):
            m = min(cols, count - c)
            hi, lo = _add128(*_mul128(a_hi[:m], a_lo[:m], hi, lo),
                             *_mul128(b_hi[:m], b_lo[:m], inc_hi, inc_lo))
            x, rot = hi ^ lo, hi >> 58
            out[r:r + step, c:c + m] = x >> rot | x << (64 - rot & 63)
            hi, lo = hi[:, -1:], lo[:, -1:]
        streams[:2, r:r + step] = hi[:, 0], lo[:, 0]
    return out, streams


def _integers(streams: np.ndarray, lo: int, hi: int, size: int) -> np.ndarray:
    """(streams, size) int64: Generator.integers(lo, hi, endpoint=True,
    size=size) on every stream by numpy's Lemire method, each stream past
    its own rejections; ranges below 2**32 use 32-bit halves, low first."""
    span = hi - lo + 1
    bits = 32 if span <= 2 ** 32 else 64
    threshold = (2 ** bits - span) % span
    if span == 1 or size == 0:
        return np.full((streams.shape[1], size), lo, dtype=np.int64)
    values, kept, need = [], [], size
    while need > 0:
        raw, streams = _pcg64_outputs(streams, -(-need * bits // 64))
        if bits == 32:
            words = np.stack([raw & _LOW32, raw >> 32], axis=2)
            product = words.reshape(len(raw), -1) * np.uint64(span)
            value, left = product >> 32, product & _LOW32
        else:
            value, left = _mul64(raw, np.uint64(span))
        values.append(value)
        kept.append(left >= threshold)
        need = size - sum(k.sum(axis=1) for k in kept).min()
    value, kept = np.hstack(values), np.hstack(kept)
    if not kept[:, :size].all():
        value = value[kept & (kept.cumsum(axis=1) <= size)]
    value = value.reshape(streams.shape[1], -1)[:, :size]
    return (value + np.uint64(lo % 2 ** 64)).view(np.int64)


def _uniform(streams: np.ndarray, lo: float, hi: float, size: int):
    """(streams, size): Generator.uniform(lo, hi, size) on every stream."""
    raw = _pcg64_outputs(streams, size)[0]
    return lo + (hi - lo) * ((raw >> 11) * 2.0 ** -53)


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
    # the n walk substreams and the scenario substream, hashed in one pass
    streams = _pcg64(_seed_words(
        seed, [_DOMAIN_RESOURCE_WALK] * n + [_DOMAIN_SCENARIO],
        [*range(n), 0]))
    walk = np.zeros((n_ticks, n), dtype=np.int64)  # rows t >= 1: steps
    walk[first:] = _integers(streams[:, :n], -d, d, n_ticks - first).T
    walk[0] = _integers(streams[:, n:], *config.initial_requirement_range,
                        n)[0]
    for prev, row in zip(walk, walk[1:]):  # step + previous row, clamped
        np.add(prev, row, out=row)
        np.maximum(row, lo, out=row)
        np.minimum(row, hi, out=row)
    return walk


def target_walk(config: ScenarioConfig, seed: int) -> np.ndarray:
    """(n_ticks, n) setpoints, uniform in the default task box.

    Column i is one block draw on twin i's target substream, which yields
    the same values as one scalar draw per tick.
    """
    n, n_ticks = config.n_resources, config.n_ticks
    streams = _pcg64(_seed_words(seed, [_DOMAIN_TWIN_TARGETS] * n, range(n)))
    return _uniform(streams, DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH, n_ticks).T


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

    twins = [DigitalTwin() for _ in range(n)]
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
    realloc_ticks: list[int] = []  # for event: its events, ascending

    held_alloc = None         # current fixed allocation (equal/static/event)

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
                elif should_trigger(regret, epsilon, t - (
                        realloc_ticks[-1] if realloc_ticks else 0)):
                    horizon = estimate_event_horizon(realloc_ticks)
                    held_alloc = allocate_event(k_prime[t], k_lower[t],
                                                constraints, horizon)
                    realloc_ticks.append(t)
                    regret[:] = 0.0
                alloc = held_alloc
            else:
                alloc = allocate_online(k_prime[t], k_lower[t], constraints)
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
