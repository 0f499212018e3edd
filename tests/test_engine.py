"""Simulation loop, determinism and scenario-file tests."""

import json

import numpy as np
import pytest

from tests.oracles import step_control_reference
from twinalloc import engine
from twinalloc.cli import main
from twinalloc.core import ScenarioConfig, ScenarioValidationError, compute_residual
from twinalloc.engine import (SimulationError, compare_policies,
                              draw_initial_requirements, evolve_requirements,
                              load_scenario, requirement_walk, run_scenario,
                              save_scenario, scenario_from_dict,
                              scenario_to_dict, target_walk)
from twinalloc.manager import PolicyKind
from twinalloc.twin import PerformanceSample


class StepAlwaysHigh:
    def integers(self, lo, hi, endpoint=True):
        return hi


class StepAlwaysLow:
    def integers(self, lo, hi, endpoint=True):
        return lo


class RecordingStream:
    """One resource's walk substream (seed, domain 0, index), recording
    every step it draws."""

    def __init__(self, seed, index):
        self.rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, 0, index))))
        self.draws = []

    def integers(self, lo, hi, endpoint=True):
        step = int(self.rng.integers(lo, hi, endpoint=endpoint))
        self.draws.append(step)
        return step


class StepForbidden:
    def integers(self, lo, hi, endpoint=True):
        raise AssertionError("no draw may happen during the prefix")


def small_config(**kwargs):
    base = dict(n_resources=6, n_ticks=25, stationary_prefix=5, master_seed=0)
    base.update(kwargs)
    return ScenarioConfig(**base)


# ------------------------------------------------------------- requirement walk

def test_initial_draw_deterministic_and_in_range():
    cfg = ScenarioConfig()
    a = draw_initial_requirements(cfg, 7)
    b = draw_initial_requirements(cfg, 7)
    c = draw_initial_requirements(cfg, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    lo, hi = cfg.initial_requirement_range
    assert a.min() >= lo and a.max() <= hi


def test_prefix_is_stationary_and_draw_free():
    cfg = small_config()
    cur = np.array([7, 9, 11, 13, 15, 17])
    out = evolve_requirements(cur, 3, cfg, [StepForbidden()] * 6)
    assert np.array_equal(out, cur)
    assert out is not cur
    with pytest.raises(ValueError):
        evolve_requirements(cur, -1, cfg, [])


def test_walk_clamps_to_requirement_range():
    cfg = small_config(n_resources=2)
    up = evolve_requirements(np.array([45, 44]), 20, cfg, [StepAlwaysHigh()] * 2)
    assert np.array_equal(up, [45, 45])
    down = evolve_requirements(np.array([1, 2]), 20, cfg, [StepAlwaysLow()] * 2)
    assert np.array_equal(down, [1, 1])


def test_walk_step_distribution():
    cfg = ScenarioConfig(n_resources=4, stationary_prefix=0,
                         requirement_range=(1, 1_000_000),
                         initial_requirement_range=(500_000, 500_000))
    streams = [np.random.default_rng((99, i)) for i in range(4)]
    cur = np.full(4, 500_000)
    increments = []
    for t in range(5000):
        nxt = evolve_requirements(cur, t, cfg, streams)
        increments.append(nxt - cur)
        cur = nxt
    inc = np.concatenate(increments)
    assert np.isin(inc, [-1, 0, 1]).all()
    # uniform step variance d(d+1)/3 = 2/3
    bound = 3.0 * np.sqrt((2.0 / 3.0) / inc.size)
    assert abs(inc.mean()) <= bound


@pytest.mark.parametrize("prefix", [0, 4])
@pytest.mark.parametrize("d", [0, 1, 2, 5])
def test_block_walk_matches_scalar_draws(d, prefix):
    cfg = ScenarioConfig(n_resources=7, n_ticks=120, stationary_prefix=prefix,
                         requirement_step_bound=d, requirement_range=(1, 8),
                         initial_requirement_range=(2, 7))
    for seed in (11, 2**32 + 5, 2**64 - 1):   # one- and two-word seeds
        walk = requirement_walk(cfg, seed)
        assert walk.dtype == np.int64 and walk.shape == (120, 7)

        streams = [RecordingStream(seed, i) for i in range(7)]
        cur = draw_initial_requirements(cfg, seed)
        initial = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, 2, 0)))).integers(
                2, 7, endpoint=True, size=7)
        np.testing.assert_array_equal(cur, initial)
        scalar, raw = [cur], []
        for t in range(1, cfg.n_ticks):
            before = sum(len(s.draws) for s in streams)
            nxt = evolve_requirements(cur, t, cfg, streams)
            if sum(len(s.draws) for s in streams) > before:
                raw.append(cur + np.array([s.draws[-1] for s in streams]))
            cur = nxt
            scalar.append(cur)
        np.testing.assert_array_equal(walk, np.array(scalar))

        assert (walk[:prefix] == walk[0]).all()
        assert len(raw) == cfg.n_ticks - max(prefix, 1)
        if d:
            raw = np.array(raw)
            assert (raw < 1).any() and (raw > 8).any()   # both clamps fire


@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5, 2**32 + 5, 2**64 - 1])
def test_target_walk_matches_scalar_draws(seed):
    # one scalar uniform draw per tick on twin i's substream (seed, 1, i)
    for n in (1, 20):
        for n_ticks in (1, 50):
            cfg = ScenarioConfig(n_resources=n, n_ticks=n_ticks,
                                 stationary_prefix=0)
            targets = target_walk(cfg, seed)
            assert targets.shape == (n_ticks, n)
            for i in range(n):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence((seed, 1, i))))
                scalar = [rng.uniform(0.0, 10.0) for _ in range(n_ticks)]
                assert targets[:, i].tolist() == scalar


@pytest.mark.parametrize("count", [1, 257])
@pytest.mark.parametrize("domain", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
                                  0x9E3779B97F4A7C15])   # last: arbitrary
def test_streams_match_per_index_seed_sequence(seed, domain, count):
    streams = engine._streams(seed, domain, count)
    assert len(streams) == count
    for i, rng in enumerate(streams):
        ref = np.random.PCG64(np.random.SeedSequence((seed, domain, i)))
        assert rng.bit_generator.state == ref.state


def test_streams_refuse_indices_beyond_one_word():
    with pytest.raises(ValueError):
        engine._streams(0, 0, 2**32 + 1)


# ---------------------------------------------------------------- hand traces

HT_KWARGS = dict(n_resources=2, n_ticks=3, stationary_prefix=3,
                 initial_requirement_range=(12, 12), master_seed=0)


def test_trace_with_exact_capacity_is_residual_free():
    results = compare_policies(ScenarioConfig(**HT_KWARGS), seed=0)
    for kind, res in results.items():
        assert res.capacity_b == 24.0
        assert np.array_equal(res.residual_inf_series, [0.0, 0.0, 0.0])
        assert np.array_equal(res.allocation_series[0], [12.0, 12.0])
        assert np.array_equal(res.requirement_series,
                              np.full((3, 2), 12, dtype=np.int64))
        assert not res.regret_series.any()
        assert np.isnan(res.mean_residual_after_prefix)
    assert results[PolicyKind.EQUAL].reallocation_ticks == ()
    assert results[PolicyKind.STATIC].reallocation_ticks == ()
    assert results[PolicyKind.EVENT_TRIGGERED].reallocation_ticks == ()
    assert results[PolicyKind.ONLINE_DYNAMIC].reallocation_ticks == (1, 2)


def test_trace_with_shortfall_splits_capacity():
    cfg = ScenarioConfig(capacity_b=20.0, **HT_KWARGS)
    results = compare_policies(cfg, seed=0)
    for kind, res in results.items():
        assert res.capacity_b == 20.0
        assert np.array_equal(res.residual_inf_series, [2.0, 2.0, 2.0])
        assert np.array_equal(res.allocation_series,
                              np.full((3, 2), 10.0))
    assert results[PolicyKind.EVENT_TRIGGERED].reallocation_ticks == ()
    assert results[PolicyKind.ONLINE_DYNAMIC].reallocation_ticks == (1, 2)


def test_default_capacity_is_the_exact_requirement_sum(tmp_path):
    # three first requirements near 2**63 sum past the int64 range; the
    # default capacity is their exact integer sum, rounded once to float
    data = {"initial_requirement_range": [9223372036854775000,
                                          9223372036854775806],
            "requirement_range": [1, 9223372036854775806], "n_resources": 3,
            "n_ticks": 5, "stationary_prefix": 1}
    cfg = scenario_from_dict(data)
    for seed in (0, 5):
        exact = float(sum(draw_initial_requirements(cfg, seed).tolist()))
        assert exact > 2.0 ** 64
        for res in compare_policies(cfg, seed).values():
            assert res.capacity_b == exact
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["compare", "--scenario", str(path), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 0


# ------------------------------------------------------------------ tick loop

@pytest.fixture(scope="module")
def small_runs():
    cfg = small_config()
    return cfg, compare_policies(cfg, seed=3)


def test_rerun_is_bit_identical(small_runs):
    # compare_policies shares one drawn walk; each run_scenario draws its own
    cfg, results = small_runs
    for kind, ref in results.items():
        again = run_scenario(cfg, kind, 3)
        assert np.array_equal(again.requirement_series,
                              ref.requirement_series)
        assert np.array_equal(again.residual_inf_series,
                              ref.residual_inf_series)
        assert np.array_equal(again.allocation_series, ref.allocation_series)
        assert np.array_equal(again.regret_series, ref.regret_series)
        assert again.reallocation_ticks == ref.reallocation_ticks
        assert (again.mean_residual_after_prefix
                == ref.mean_residual_after_prefix)


def test_requirement_trajectory_is_policy_independent(small_runs):
    _, results = small_runs
    base = results[PolicyKind.EQUAL].requirement_series
    for res in results.values():
        assert np.array_equal(res.requirement_series, base)


def test_budget_holds_every_tick(small_runs):
    cfg, results = small_runs
    for res in results.values():
        assert np.all(res.allocation_series >= -1e-12)
        assert np.all(res.allocation_series.sum(axis=1)
                      <= res.capacity_b + 1e-9)


def test_recorded_series_are_consistent(small_runs):
    cfg, results = small_runs
    for res in results.values():
        assert res.n_ticks == cfg.n_ticks
        for t in range(res.n_ticks):
            _, inf = compute_residual(res.requirement_series[t].astype(float),
                                      res.allocation_series[t])
            assert res.residual_inf_series[t] == inf
        after = res.residual_inf_series[cfg.stationary_prefix:]
        assert res.mean_residual_after_prefix == float(after.mean())
        assert not res.residual_inf_series.flags.writeable


def test_static_and_event_agree_until_first_trigger(small_runs):
    _, results = small_runs
    static = results[PolicyKind.STATIC]
    event = results[PolicyKind.EVENT_TRIGGERED]
    cut = (event.reallocation_ticks[0] if event.reallocation_ticks
           else event.n_ticks)
    assert np.array_equal(event.allocation_series[:cut],
                          static.allocation_series[:cut])
    assert np.array_equal(event.residual_inf_series[:cut],
                          static.residual_inf_series[:cut])


def test_equal_and_static_allocate_once(small_runs):
    _, results = small_runs
    for kind in (PolicyKind.EQUAL, PolicyKind.STATIC):
        series = results[kind].allocation_series
        assert np.array_equal(series, np.tile(series[0], (series.shape[0], 1)))
        assert results[kind].reallocation_ticks == ()


def test_online_reallocates_every_tick(small_runs):
    cfg, results = small_runs
    online = results[PolicyKind.ONLINE_DYNAMIC]
    assert online.reallocation_ticks == tuple(range(1, cfg.n_ticks))


@pytest.mark.parametrize("policy", [PolicyKind.EVENT_TRIGGERED,
                                    PolicyKind.ONLINE_DYNAMIC])
def test_solves_see_this_ticks_reports(monkeypatch, policy):
    # every re-solve at tick t is posed on the reports of tick t: a
    # persistence forecast of k', k' as the request and its gap floor
    seen = []

    def recording(solve):
        def wrapped(forecast, constraints, *rest):
            seen.append((np.array(forecast), constraints, rest))
            return solve(forecast, constraints, *rest)
        return wrapped

    for name in ("allocate_event", "allocate_online"):
        monkeypatch.setattr(f"twinalloc.engine.{name}",
                            recording(getattr(engine, name)))
    cfg = small_config(n_ticks=60, stationary_prefix=0, epsilon_per_step=0.05)
    res = run_scenario(cfg, policy, 3)
    first = [0] if policy is PolicyKind.ONLINE_DYNAMIC else []
    ticks = first + list(res.reallocation_ticks)
    assert len(ticks) == len(seen) >= 5
    for t, (forecast, constraints, rest) in zip(ticks, seen):
        req = res.requirement_series[t]
        assert np.all(forecast == req)
        if policy is PolicyKind.EVENT_TRIGGERED:
            assert forecast.shape[0] == rest[0] + 1
        assert np.array_equal(constraints.requested, req)
        assert np.array_equal(constraints.lower_bounds,
                              np.maximum(np.ceil(req - cfg.gap), 1))
        assert constraints.capacity_b == res.capacity_b


def loop_step_control(twin, granted):
    """engine.step_control run as the reference loop of clamped steps."""
    action, achieved, baseline = step_control_reference(
        twin.action, twin._target, twin._k_prime, granted,
        twin.box_low, twin.box_high, twin.curvature, twin.step_alpha)
    twin._action = action
    return PerformanceSample(achieved=achieved, requested_baseline=baseline)


# the closed-form descent rounds differently from the loop: 4.5e-13 at most
# over the 120 runs below
LOOP_REGRET_TOL = 1e-11


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(epsilon_per_step=0.05, n_resources=20, n_ticks=300),
    ScenarioConfig(n_resources=300, n_ticks=60, stationary_prefix=3),
], ids=["default", "eps0.05-n20-T300", "n300-T60-prefix3"])
def test_engine_matches_loop_descent(monkeypatch, config):
    # the whole tick loop with the closed-form descent against the same loop
    # with the reference descent: rounding in regret must not move a trigger
    loop = {}
    with monkeypatch.context() as patch:
        patch.setattr("twinalloc.engine.step_control", loop_step_control)
        for seed in range(10):
            loop[seed] = compare_policies(config, seed)
    for seed, runs in loop.items():
        for kind, got in compare_policies(config, seed).items():
            want = runs[kind]
            assert got.reallocation_ticks == want.reallocation_ticks
            assert np.array_equal(got.allocation_series,
                                  want.allocation_series)
            assert np.array_equal(got.residual_inf_series,
                                  want.residual_inf_series)
            np.testing.assert_allclose(got.regret_series, want.regret_series,
                                       rtol=0, atol=LOOP_REGRET_TOL,
                                       err_msg=f"seed {seed} {kind.value}")


def test_failures_carry_the_tick(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("twinalloc.engine.allocate_online", explode)
    cfg = small_config(n_ticks=4, stationary_prefix=0)
    with pytest.raises(SimulationError) as err:
        run_scenario(cfg, PolicyKind.ONLINE_DYNAMIC, 0)
    assert err.value.tick == 0
    assert "tick 0" in str(err.value)
    assert "boom" in str(err.value)


def test_run_scenario_accepts_policy_tokens():
    cfg = small_config(n_ticks=3, stationary_prefix=0)
    res = run_scenario(cfg, "equal", 0)
    assert res.policy is PolicyKind.EQUAL


# ------------------------------------------------------------- scenario files

def test_scenario_round_trip(tmp_path):
    cfg = ScenarioConfig(n_resources=7, capacity_b=123.5, rho=50.0,
                         requirement_range=(2, 20),
                         initial_requirement_range=(3, 12))
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg
    text = path.read_text()
    assert text.endswith("\n")


def test_scenario_dict_shapes():
    data = scenario_to_dict(ScenarioConfig())
    assert data["requirement_range"] == [1, 45]
    assert data["capacity_b"] is None
    assert scenario_from_dict(data) == ScenarioConfig()
    assert scenario_from_dict({}) == ScenarioConfig()


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict({"n_resources": 5, "frobnicate": 1})
    assert any("unknown scenario key: frobnicate" in d
               for d in err.value.diagnostics)


@pytest.mark.parametrize("payload", [
    {"n_resources": "twenty"},
    {"n_resources": 2.5},
    {"n_ticks": True},
    {"gap": "wide"},
    {"requirement_range": [1, 2, 3]},
    {"requirement_range": 7},
    {"capacity_b": "lots"},
    ["not", "an", "object"],
])
def test_scenario_rejects_bad_values(payload):
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(payload)


def test_scenario_accepts_nulls_and_integral_floats():
    cfg = scenario_from_dict({"capacity_b": None, "epsilon_per_step": None,
                              "n_ticks": 50.0, "gap": 4})
    assert cfg.capacity_b is None
    assert cfg.epsilon_per_step is None
    assert cfg.n_ticks == 50
    assert cfg.gap == 4.0


def test_load_scenario_errors(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(bad)
    assert any("not valid JSON" in d for d in err.value.diagnostics)
