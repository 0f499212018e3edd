"""Deterministic tick-loop orchestration of twins and the network manager.

draw_walks draws the plant-floor requirement walk and the twins'
setpoint walk for the whole run up front. The reports k', their floors and
the setpoints are checked once, before tick 0; every twin's regret and
budget are arrays. Only step(block), every twin over a row block of the grant
schedule, depends on the width: from BANK_MIN_RESOURCES twins one array
bank (twin.step_bank) moves the actions, its only state; a narrower run
walks the block's rows through one DigitalTwin per resource (assign_task,
then step_control). Both give the same bits. A run takes one of two loops.
Equal, static and online never read regret, so theirs is open loop: the
whole grant schedule comes first, each row checked before the next is
solved; the twins then step over it in row blocks, a failure named at its
block's first tick, and regret is one cumulative sum. Event is the one
closed loop: it holds one checked grant row, re-solves when the regret
trigger fires, and writes the row into the schedule before stepping it.
The residual series is computed once, after the last tick. All randomness
comes from named substreams of one master seed, so the walks are identical
across policies and independent of execution order.
Substream (seed, domain, i) is numpy's
Generator(PCG64(SeedSequence((seed, domain, i)))); the engine seeds both
walks' substreams at once in its own vectorised pass of the same hash and
generator, bit for bit, and draws at one 128-bit multiply per output.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_MAX_DEVIATION, AllocationConstraints,
                   ScenarioConfig, ScenarioValidationError, compute_residual)
from .manager import (PolicyKind, allocate_equal, allocate_event,
                      allocate_online, allocate_static,
                      estimate_event_horizon, should_trigger)
from .twin import (DEFAULT_BOX_HIGH, DEFAULT_BOX_LOW, START_ACTION,
                   DigitalTwin, check_grants, compute_requirement,
                   regret_budgets, step_bank, step_control, update_regret)
# Not called here; kept bound because the benchmark's tracer wraps it here.
from .twin import forecast_requirements  # noqa: F401

# substream domains under the master seed
_DOMAIN_RESOURCE_WALK = 0
_DOMAIN_TWIN_TARGETS = 1
_DOMAIN_SCENARIO = 2

# Runs with at least this many twins step them as one array bank
# (twin.step_bank); narrower runs loop over DigitalTwin objects. It is no
# longer a speed crossover: at 20 twins and 1000 ticks the bank wins on
# equal, static and online, and on event, one row per tick, it is up to
# about 10 % slower. It stays 40 because the benchmark's count test pins
# one assign_task and one step_control call per twin-tick at 20 twins,
# until the bank steps every width.
BANK_MIN_RESOURCES = 40


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
_PCG_MULT_LESS_ONE = (np.uint64(_PCG_MULT - 1 >> 64),
                      np.uint64(_PCG_MULT - 1 & 2 ** 64 - 1))
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
    streams advanced past them. Step j from state s lands on s + B_j w, with
    w = (M - 1) s + inc and B_j = 1 + M + ... + M**(j-1) mod 2**128: one
    multiply per output, exact as M**j - 1 = (M - 1) B_j. w is taken afresh
    from the states at each column block; rows go in blocks of _BLOCK."""
    cols, add, table = max(1, min(count, 256)), 1, []
    for _ in range(cols):  # B_j for j = 1..cols
        table += add >> 64, add & 2 ** 64 - 1
        add = add * _PCG_MULT + 1 & 2 ** 128 - 1
    b_hi, b_lo = np.array(table, dtype=np.uint64).reshape(-1, 2).T
    n = streams.shape[1]
    out, streams = np.empty((n, count), dtype=np.uint64), streams.copy()
    hi, lo, inc_hi, inc_lo = streams[:, :, None]  # views: states move in place
    step = max(1, _BLOCK // cols)  # rows per block
    for c in range(0, count, cols):
        m = min(cols, count - c)
        w_hi, w_lo = _add128(*_mul128(*_PCG_MULT_LESS_ONE, hi, lo),
                             inc_hi, inc_lo)
        for r in range(0, n, step):
            rows = slice(r, r + step)
            s_hi, s_lo = _add128(hi[rows], lo[rows], *_mul128(
                b_hi[:m], b_lo[:m], w_hi[rows], w_lo[rows]))
            x, rot = s_hi ^ s_lo, s_hi >> 58
            out[rows, c:c + m] = x >> rot | x << (64 - rot & 63)
            hi[rows], lo[rows] = s_hi[:, -1:], s_lo[:, -1:]
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
        if bits == 32:  # each word as its little-endian uint32 pair
            words = raw.astype("<u8", copy=False).view("<u4")
            # the uint64 loop: a 32-bit one would wrap the products
            product = np.multiply(words, np.uint64(span), dtype=np.uint64)
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
    requirement range. draw_walks reproduces it with block draws.
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


def draw_walks(config: ScenarioConfig,
               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The run's (n_ticks, n) walks: int64 requirements, and setpoints
    uniform in the default task box.

    Requirement row 0 is the initial draw; each later row is one
    evolve_requirements tick. Each resource's steps and each twin's
    setpoints are one block draw on its own substream, the same values as
    one scalar draw per tick; all 2n + 1 substreams are seeded in one
    pass. The setpoint rows are contiguous, as the twins read them a tick
    at a time.
    """
    n, n_ticks = config.n_resources, config.n_ticks
    d = config.requirement_step_bound
    lo, hi = config.requirement_range
    first = min(max(config.stationary_prefix, 1), n_ticks)  # first step tick
    # columns: n walk streams, the scenario stream, n target streams
    streams = _pcg64(_seed_words(
        seed, [_DOMAIN_RESOURCE_WALK] * n + [_DOMAIN_SCENARIO]
        + [_DOMAIN_TWIN_TARGETS] * n, [*range(n), 0, *range(n)]))
    walk = np.zeros((n_ticks, n), dtype=np.int64)  # rows t >= 1: steps
    walk[first:] = _integers(streams[:, :n], -d, d, n_ticks - first).T
    walk[0] = _integers(streams[:, n:n + 1],
                        *config.initial_requirement_range, n)[0]
    for prev, row in zip(walk, walk[1:]):  # step + previous row, clamped
        np.add(prev, row, out=row)
        np.maximum(row, lo, out=row)
        np.minimum(row, hi, out=row)
    targets = _uniform(streams[:, n + 1:], DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH,
                       n_ticks)
    return walk, np.ascontiguousarray(targets.T)


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
    return _simulate(config, PolicyKind(policy), seed,
                     *draw_walks(config, seed))


def _simulate(config: ScenarioConfig, policy: PolicyKind, seed: int,
              requirement_series: np.ndarray,
              targets: np.ndarray) -> SimResult:
    """run_scenario's tick loop on the (config, seed) walks, read only."""
    n = config.n_resources
    n_ticks = config.n_ticks

    # a Python int sum is exact where an int64 sum could wrap
    capacity = (config.capacity_b if config.capacity_b is not None
                else float(sum(requirement_series[0].tolist())))
    # the run's constants and every tick's reports k' and floors k_lower,
    # checked here once; no tick checks them again
    constraints = AllocationConstraints(capacity, DEFAULT_MAX_DEVIATION,
                                        config.rho)
    k_prime, k_lower = compute_requirement(requirement_series, config.gap)
    if not np.all((1.0 <= k_lower) & (k_lower <= k_prime)):
        raise SimulationError(0, "requirement floors must lie in [1, k']")
    if not np.all((DEFAULT_BOX_LOW <= targets)
                  & (targets <= DEFAULT_BOX_HIGH)):  # and NaN
        raise SimulationError(0, "targets must lie in the task box")
    epsilon = regret_budgets(requirement_series[0], config.epsilon_per_step)
    regret = np.zeros(n)      # per twin, since the last reallocation event

    regret_series = np.empty((n_ticks, n))
    allocation_series = np.empty((n_ticks, n))
    realloc_ticks: list[int] = []  # for event: its events, ascending

    if n >= BANK_MIN_RESOURCES:  # step: the run's one width-dependent piece
        actions = np.full(n, START_ACTION)

        def step(block):  # a row block's (rows, n) increments
            return step_bank(actions, targets[block], k_prime[block],
                             allocation_series[block])
    else:
        twins = [DigitalTwin() for _ in range(n)]

        def step(block):  # the block's rows, tick by tick
            increments = []
            for reqs, cs, row in zip(requirement_series[block].tolist(),
                                     targets[block].tolist(),
                                     allocation_series[block].tolist()):
                for twin, req, target in zip(twins, reqs, cs):
                    twin.assign_task(req, target)
                increments.append([step_control(twin, grant)
                                   for twin, grant in zip(twins, row)])
            return increments

    t = 0
    try:
        if policy is PolicyKind.EVENT_TRIGGERED:
            # closed loop: one checked grant row held until the trigger fires
            grants = check_grants(allocate_static(k_prime[0], capacity))
            for t in range(n_ticks):
                if t and should_trigger(regret, epsilon, t - (
                        realloc_ticks[-1] if realloc_ticks else 0)):
                    horizon = estimate_event_horizon(realloc_ticks)
                    grants = check_grants(allocate_event(
                        k_prime[t], k_lower[t], constraints, horizon))
                    realloc_ticks.append(t)
                    regret[:] = 0.0
                allocation_series[t] = grants
                regret_series[t] = update_regret(regret,
                                                 step(slice(t, t + 1))[0])
        else:
            # open loop: no grant reads regret, so the whole schedule comes
            # first, each row checked before the next is solved; then the
            # twins step over it in row blocks, and regret is a running sum
            if policy is PolicyKind.ONLINE_DYNAMIC:
                for t in range(n_ticks):
                    allocation_series[t] = check_grants(allocate_online(
                        k_prime[t], k_lower[t], constraints))
                realloc_ticks.extend(range(1, n_ticks))
            else:
                allocation_series[:] = check_grants(
                    allocate_equal(n, capacity) if policy is PolicyKind.EQUAL
                    else allocate_static(k_prime[0], capacity))
            rows = max(1, _BLOCK // n)
            for t in range(0, n_ticks, rows):
                block = slice(t, t + rows)
                regret_series[block] = step(block)
            np.cumsum(regret_series, axis=0, out=regret_series)
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
    walks = draw_walks(config, seed)
    return {kind: _simulate(config, kind, seed, *walks) for kind in PolicyKind}


# -- scenario files ---------------------------------------------------------

_SCENARIO_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a key/value tree, which it checks.

    Unknown keys are rejected; missing keys fall back to defaults.
    """
    if not isinstance(data, dict):
        raise ScenarioValidationError(["scenario document must be an object"])
    unknown = sorted(set(data) - set(_SCENARIO_FIELDS))
    if unknown:
        raise ScenarioValidationError(
            [f"unknown scenario key: {k}" for k in unknown])
    return ScenarioConfig(**data)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    # JSON's form of the config: its ranges as lists
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(config).items()}


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario JSON file; OSError and validation errors propagate.
    Bytes that are not UTF-8 JSON, integers too long to convert, nesting
    too deep to decode and a key given twice are invalid scenarios."""
    keys = []  # every object's keys, sorted, nested objects' too
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=lambda pairs: keys.append(
                sorted(key for key, _ in pairs)) or dict(pairs))
        except (ValueError, RecursionError) as exc:
            raise ScenarioValidationError(
                [f"scenario file is not valid JSON: {exc}"]) from exc
    twice = [a for ks in keys for a, b in zip(ks, ks[1:]) if a == b]
    if twice:  # named one at a time, as a JSON syntax error is
        raise ScenarioValidationError([f"duplicate scenario key: {twice[0]}"])
    return scenario_from_dict(data)


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with its LF line endings untranslated; every
    file the package writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def save_scenario(config: ScenarioConfig, path) -> None:
    write_text(path, json.dumps(scenario_to_dict(config), indent=2,
                                sort_keys=True) + "\n")
