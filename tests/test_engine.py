"""Simulation loop, determinism and scenario-file tests."""

import json

import numpy as np
import pytest

from tests.oracles import (reference_run, reference_walks,
                           step_control_reference)
from twinalloc import engine
from twinalloc.cli import main
from twinalloc.core import ScenarioConfig, ScenarioValidationError, compute_residual
from twinalloc.engine import (SimulationError, compare_policies, draw_walks,
                              evolve_requirements, load_scenario,
                              run_scenario, save_scenario, scenario_from_dict,
                              scenario_to_dict)
from twinalloc.manager import (DEFAULT_MAX_REALLOCATION_PERIOD, PolicyKind,
                               estimate_event_horizon)
from twinalloc.solver import SolverError
from twinalloc.twin import DEFAULT_BOX_HIGH, DEFAULT_BOX_LOW


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
    a = draw_walks(cfg, 7)[0][0]
    b = draw_walks(cfg, 7)[0][0]
    c = draw_walks(cfg, 8)[0][0]
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
        walk = draw_walks(cfg, seed)[0]
        assert walk.dtype == np.int64 and walk.shape == (120, 7)

        streams = [RecordingStream(seed, i) for i in range(7)]
        initial = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, 2, 0)))).integers(
                2, 7, endpoint=True, size=7)
        np.testing.assert_array_equal(walk[0], initial)
        cur = initial
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
            targets = draw_walks(cfg, seed)[1]
            assert targets.shape == (n_ticks, n)
            for i in range(n):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence((seed, 1, i))))
                scalar = [rng.uniform(0.0, 10.0) for _ in range(n_ticks)]
                assert targets[:, i].tolist() == scalar


def test_target_walk_stays_in_the_task_box():
    # every setpoint lies in [DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH], the box
    # DigitalTwin.assign_task checks each target against
    for seed in (0, 1, 7, 2**32 + 5, 2**64 - 1):
        targets = draw_walks(ScenarioConfig(n_resources=1000, n_ticks=50,
                                            stationary_prefix=0), seed)[1]
        assert targets.shape == (50, 1000)
        assert DEFAULT_BOX_LOW <= targets.min()
        assert targets.max() <= DEFAULT_BOX_HIGH


@pytest.mark.parametrize("count", [1, 257])
@pytest.mark.parametrize("domain", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
                                  0x9E3779B97F4A7C15])   # last: arbitrary
def test_streams_match_per_index_seed_sequence(seed, domain, count):
    # 600 outputs take three column blocks (256, 256, 88), each stepping
    # from the state the one before it left
    words = engine._seed_words(seed, [domain] * count, range(count))
    streams = engine._pcg64(words)
    assert words.shape == streams.shape == (4, count)
    for outputs in (5, 600):
        raw, advanced = engine._pcg64_outputs(streams, outputs)
        assert raw.shape == (count, outputs)
        for i in range(count):
            seq = np.random.SeedSequence((seed, domain, i))
            np.testing.assert_array_equal(words[:, i],
                                          seq.generate_state(4, np.uint64))
            ref = np.random.PCG64(seq)
            state = ref.state["state"]
            assert (int(streams[0, i]) << 64 | int(streams[1, i])
                    == state["state"])
            assert int(streams[2, i]) << 64 | int(streams[3, i]) == state["inc"]
            np.testing.assert_array_equal(raw[i], ref.random_raw(outputs))
            state = ref.state["state"]   # advanced past the outputs
            assert (int(advanced[0, i]) << 64 | int(advanced[1, i])
                    == state["state"])
            np.testing.assert_array_equal(advanced[2:, i], streams[2:, i])


def test_streams_refuse_indices_beyond_one_word():
    with pytest.raises(ValueError):
        engine._seed_words(0, [0], [2**32])
    with pytest.raises(ValueError):
        engine._seed_words(0, [2**32], [0])
    with pytest.raises(ValueError):
        engine._seed_words(2**64, [0], [0])


def test_streams_mix_domains_in_one_pass():
    words = engine._seed_words(2**32 + 5, [0, 0, 2, 1], [0, 3, 0, 3])
    for j, (domain, index) in enumerate([(0, 0), (0, 3), (2, 0), (1, 3)]):
        seq = np.random.SeedSequence((2**32 + 5, domain, index))
        np.testing.assert_array_equal(words[:, j],
                                      seq.generate_state(4, np.uint64))


def reference_generator(seed, domain, index):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, domain, index))))


# ranges 2**31 and 2**63 reject about half of the 32- and 64-bit words
@pytest.mark.parametrize("span", [0, 2, 10, 2**31, 2**32 - 2, 2**32 - 1,
                                  2**32, 2**40, 2**63 - 1, 2**63])
@pytest.mark.parametrize("count", [1, 257])
def test_draws_match_numpy_generator(span, count):
    seed = 2**32 + 5
    streams = engine._pcg64(engine._seed_words(seed, [0] * count,
                                               range(count)))
    for lo in (-(span // 2), min(0, 2**63 - 1 - span)):
        for size in (0, 1, 7, 40, 1001):   # 1001: two column blocks
            got = engine._integers(streams, lo, lo + span, size)
            assert got.dtype == np.int64 and got.shape == (count, size)
            floats = engine._uniform(streams, -2.5, 7.0, size)
            assert floats.shape == (count, size)
            for i in (0, count // 2, count - 1):
                np.testing.assert_array_equal(
                    got[i], reference_generator(seed, 0, i).integers(
                        lo, lo + span, endpoint=True, size=size))
                assert floats[i].tolist() == reference_generator(
                    seed, 0, i).uniform(-2.5, 7.0, size=size).tolist()


def test_wide_walk_matches_scalar_draws():
    # d = 2**40 and an initial range wider than 2**32: 64-bit draws
    cfg = ScenarioConfig(n_resources=5, n_ticks=30, stationary_prefix=2,
                         requirement_step_bound=2**40,
                         requirement_range=(1, 2**50),
                         initial_requirement_range=(2**45, 2**45 + 2**34))
    for seed in (0, 2**64 - 1):
        walk = draw_walks(cfg, seed)[0]
        cur = reference_generator(seed, 2, 0).integers(
            2**45, 2**45 + 2**34, endpoint=True, size=5)
        np.testing.assert_array_equal(walk[0], cur)
        rngs = [reference_generator(seed, 0, i) for i in range(5)]
        expected = [cur]
        for t in range(1, 30):
            expected.append(evolve_requirements(expected[-1], t, cfg, rngs))
        np.testing.assert_array_equal(walk, np.array(expected))


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 - 1])
def test_one_resource_walk_matches_numpy_streams(seed):
    # at n = 1 the scenario stream's column sits between the only walk
    # stream and the only target stream; each walk reads its own
    cfg = ScenarioConfig(n_resources=1, n_ticks=50, stationary_prefix=3,
                         requirement_step_bound=2, requirement_range=(1, 6),
                         initial_requirement_range=(2, 5))
    walk, targets = draw_walks(cfg, seed)
    assert walk.shape == targets.shape == (50, 1)
    expected = [reference_generator(seed, 2, 0).integers(
        2, 5, endpoint=True, size=1)]
    rngs = [reference_generator(seed, 0, 0)]
    for t in range(1, 50):
        expected.append(evolve_requirements(expected[-1], t, cfg, rngs))
    np.testing.assert_array_equal(walk, np.array(expected))
    assert targets[:, 0].tolist() == reference_generator(seed, 1, 0).uniform(
        DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH, size=50).tolist()


def test_each_run_seeds_its_substreams_once(monkeypatch):
    # both walks come from one hash pass, whether one policy runs or four
    calls = []
    seed_words = engine._seed_words

    def counted(*args):
        calls.append(args[0])
        return seed_words(*args)

    monkeypatch.setattr("twinalloc.engine._seed_words", counted)
    cfg = small_config(n_ticks=10)
    run_scenario(cfg, PolicyKind.STATIC, 9)
    assert calls == [9]
    calls.clear()
    compare_policies(cfg, 9)
    assert calls == [9]


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
        first = reference_generator(seed, 2, 0).integers(
            *cfg.initial_requirement_range, endpoint=True, size=3)
        np.testing.assert_array_equal(draw_walks(cfg, seed)[0][0], first)
        exact = float(sum(first.tolist()))
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


@pytest.mark.parametrize("step_bound, static_wins", [(1, True), (4, False)])
def test_static_beats_equal_only_on_a_slow_walk(step_bound, static_wins):
    # criterion 1's static < equal holds at the default walk step bound of
    # 1; over 300 ticks at bound 4 the solve on the first reports loses to
    # the even split on every seed (post-prefix mean residual, seed 0:
    # static 17.93 against equal 26.77 at bound 1, 33.27 against 27.55 at 4)
    config = ScenarioConfig(n_ticks=300, requirement_step_bound=step_bound)
    for seed in range(8):
        static, equal = (
            run_scenario(config, kind, seed).mean_residual_after_prefix
            for kind in (PolicyKind.STATIC, PolicyKind.EQUAL))
        assert (static < equal) is static_wins, (seed, static, equal)


@pytest.mark.parametrize("policy", [PolicyKind.EVENT_TRIGGERED,
                                    PolicyKind.ONLINE_DYNAMIC])
def test_solves_see_this_ticks_reports(monkeypatch, policy):
    # every re-solve at tick t is posed on the reports of tick t: k' and its
    # gap floor, and for event the horizon estimated from the earlier events
    seen = []

    def recording(solve):
        def wrapped(k_prime, k_lower, constraints, *rest):
            seen.append((np.array(k_prime), np.array(k_lower), constraints,
                         rest))
            return solve(k_prime, k_lower, constraints, *rest)
        return wrapped

    for name in ("allocate_event", "allocate_online"):
        monkeypatch.setattr(f"twinalloc.engine.{name}",
                            recording(getattr(engine, name)))
    cfg = small_config(n_ticks=60, stationary_prefix=0, epsilon_per_step=0.05)
    res = run_scenario(cfg, policy, 3)
    first = [0] if policy is PolicyKind.ONLINE_DYNAMIC else []
    ticks = first + list(res.reallocation_ticks)
    assert len(ticks) == len(seen) >= 5
    for i, (t, (k_prime, k_lower, constraints, rest)) in enumerate(
            zip(ticks, seen)):
        req = res.requirement_series[t]
        assert k_prime.dtype == float and np.array_equal(k_prime, req)
        assert np.array_equal(k_lower, np.maximum(np.ceil(req - cfg.gap), 1))
        if policy is PolicyKind.EVENT_TRIGGERED:
            assert rest == (estimate_event_horizon(ticks[:i]),)
        else:
            assert rest == ()
        assert constraints.capacity_b == res.capacity_b


# (n, n_ticks): 39 twins step one by one and 40 on the bank, each over a
# ragged last row block (105 + 15 and 102 + 18 rows), and 300 on the bank
# over five (4 * 13 + 8)
REFERENCE_WIDTHS = [(1, 100), (3, 100), (20, 100), (39, 120), (40, 120),
                    (300, 60)]
REFERENCE_VARIANTS = {"default": {}, "eps0.05": {"epsilon_per_step": 0.05},
                      "capacity123.456": {"capacity_b": 123.456},
                      "prefix0": {"stationary_prefix": 0},
                      "eps1e3": {"epsilon_per_step": 1e3}}
REFERENCE_EDGES = {"prefix-is-T": {"n_ticks": 30, "stationary_prefix": 30},
                   "one-tick": {"n_ticks": 1, "stationary_prefix": 0},
                   "step-bound-4": {"requirement_step_bound": 4}}


@pytest.mark.parametrize("config", [
    pytest.param(ScenarioConfig(n_resources=n, n_ticks=n_ticks, **variant),
                 id=f"{name}-n{n}")
    for n, n_ticks in REFERENCE_WIDTHS
    for name, variant in REFERENCE_VARIANTS.items()] + [
    pytest.param(ScenarioConfig(n_resources=n, **edge), id=f"{name}-n{n}")
    for n in (3, 40) for name, edge in REFERENCE_EDGES.items()])
def test_engine_matches_reference(config):
    # every policy, each width on its own twin path, against the paper's
    # loop run per tick and per twin on numpy's own substreams: the same
    # bits in every series, the same reallocation ticks, budget and
    # post-prefix mean; each trigger rule fires where it should
    for seed in (3, 2 ** 64 - 1):
        walks = reference_walks(config, seed)
        assert all(map(np.array_equal, draw_walks(config, seed), walks))
        runs = compare_policies(config, seed)
        for kind, got in runs.items():
            want = reference_run(config, kind, seed, walks)
            assert got.requirement_series.dtype == np.int64
            for field in ("requirement_series", "allocation_series",
                          "regret_series", "residual_inf_series"):
                assert np.array_equal(getattr(got, field), want[field]), (
                    seed, kind, field)
            assert got.reallocation_ticks == want["reallocation_ticks"]
            assert got.capacity_b == want["capacity_b"]
            assert np.array_equal(got.mean_residual_after_prefix,
                                  want["mean_residual_after_prefix"],
                                  equal_nan=True)
        gaps = np.diff((0,) + runs[PolicyKind.EVENT_TRIGGERED]
                       .reallocation_ticks)
        if config.epsilon_per_step == 1e3:   # no budget is ever blown
            assert set(gaps) == {DEFAULT_MAX_REALLOCATION_PERIOD}
        if config.epsilon_per_step == 0.05 and config.n_resources >= 3:
            assert gaps.min() < DEFAULT_MAX_REALLOCATION_PERIOD


# the closed-form descent rounds differently from the loop: 4.5e-13 at most
# over the 120 runs below
LOOP_REGRET_TOL = 1e-11


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(epsilon_per_step=0.05, n_resources=20, n_ticks=300),
    ScenarioConfig(n_resources=300, n_ticks=60, stationary_prefix=3),
], ids=["default", "eps0.05-n20-T300", "n300-T60-prefix3"])
def test_engine_matches_loop_descent_reference(config):
    # the engine's closed-form descent against the reference loop with the
    # descent as one loop of clamped steps: rounding in regret must not
    # move a trigger (the walks are the engine's, which the test above
    # checks against numpy's substreams)
    for seed in range(10):
        walks = draw_walks(config, seed)
        for kind, got in compare_policies(config, seed).items():
            want = reference_run(config, kind, seed, walks,
                                 twin_step=step_control_reference)
            assert got.reallocation_ticks == want["reallocation_ticks"]
            assert np.array_equal(got.allocation_series,
                                  want["allocation_series"])
            assert np.array_equal(got.residual_inf_series,
                                  want["residual_inf_series"])
            np.testing.assert_allclose(got.regret_series,
                                       want["regret_series"], rtol=0,
                                       atol=LOOP_REGRET_TOL,
                                       err_msg=f"seed {seed} {kind.value}")


def _forbidden(*args):
    raise AssertionError("the other twin path ran")


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(epsilon_per_step=2.0, n_resources=20, n_ticks=300),
    ScenarioConfig(epsilon_per_step=1e3, n_resources=5, n_ticks=120),
], ids=["default", "eps2-n20-T300", "period-cap"])
def test_trigger_and_horizon_see_the_event_ticks(monkeypatch, config):
    # the i-th horizon estimate sees the first i reallocation ticks, and
    # each trigger test sees the ticks since the last event (or since 0)
    horizons, triggers = [], []
    estimate, trigger = engine.estimate_event_horizon, engine.should_trigger

    def recording_estimate(event_ticks):
        horizons.append(list(event_ticks))
        return estimate(event_ticks)

    def recording_trigger(regret, epsilon, ticks_since_event):
        triggers.append(ticks_since_event)
        return trigger(regret, epsilon, ticks_since_event)

    monkeypatch.setattr("twinalloc.engine.estimate_event_horizon",
                        recording_estimate)
    monkeypatch.setattr("twinalloc.engine.should_trigger", recording_trigger)
    for seed in (0, 3):
        horizons.clear()
        triggers.clear()
        ticks = run_scenario(config, PolicyKind.EVENT_TRIGGERED,
                             seed).reallocation_ticks
        assert len(ticks) >= 3
        assert horizons == [list(ticks[:i]) for i in range(len(ticks))]
        want, last = [], 0
        for t in range(1, config.n_ticks):
            want.append(t - last)
            if t in ticks:
                last = t
        assert triggers == want
        gaps = np.diff((0,) + ticks)
        assert gaps.max() <= DEFAULT_MAX_REALLOCATION_PERIOD
    if config.epsilon_per_step == 1e3:   # no budget is ever blown
        assert set(gaps) == {DEFAULT_MAX_REALLOCATION_PERIOD}


def test_reports_and_floors_are_computed_and_checked_once(monkeypatch):
    # one compute_requirement call on the whole (T, n) walk per run; floors
    # outside [1, k'] stop the run before any tick
    calls = []
    compute_requirement = engine.compute_requirement

    def recording(requirements, gap):
        calls.append(np.shape(requirements))
        return compute_requirement(requirements, gap)

    cfg = small_config(n_ticks=12, stationary_prefix=0)
    with monkeypatch.context() as patch:
        patch.setattr("twinalloc.engine.compute_requirement", recording)
        run_scenario(cfg, PolicyKind.ONLINE_DYNAMIC, 0)
    assert calls == [(cfg.n_ticks, cfg.n_resources)]

    def floors_above_reports(requirements, gap):
        k_prime, _ = compute_requirement(requirements, gap)
        return k_prime, k_prime + 1.0

    def no_solve(*args):
        raise AssertionError("a tick ran")

    monkeypatch.setattr("twinalloc.engine.compute_requirement",
                        floors_above_reports)
    monkeypatch.setattr("twinalloc.engine.allocate_online", no_solve)
    with pytest.raises(SimulationError) as err:
        run_scenario(cfg, PolicyKind.ONLINE_DYNAMIC, 0)
    assert err.value.tick == 0
    assert "floors" in str(err.value)


def test_failures_carry_the_tick(monkeypatch, tmp_path, capsys):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("twinalloc.engine.allocate_online", explode)
    cfg = small_config(n_ticks=4, stationary_prefix=0)
    with pytest.raises(SimulationError) as err:
        run_scenario(cfg, PolicyKind.ONLINE_DYNAMIC, 0)
    assert err.value.tick == 0
    assert "tick 0" in str(err.value)
    assert "boom" in str(err.value)

    # a wide static run steps its schedule in row blocks: a failure in the
    # second block names that block's first tick, and simulate exits 3
    wide = small_config(n_resources=1000, n_ticks=10, stationary_prefix=0)
    rows = engine._BLOCK // wide.n_resources
    step_bank, calls = engine.step_bank, []

    def fails_second_block(*args):
        calls.append(len(args[1]))
        if len(calls) == 2:
            raise RuntimeError("injected")
        return step_bank(*args)

    monkeypatch.setattr("twinalloc.engine.step_bank", fails_second_block)
    with pytest.raises(SimulationError) as err:
        run_scenario(wide, PolicyKind.STATIC, 0)
    assert calls == [rows, rows] and rows < wide.n_ticks
    assert err.value.tick == rows
    assert f"tick {rows}: injected" in str(err.value)

    calls.clear()
    scenario = tmp_path / "scenario.json"
    save_scenario(wide, scenario)
    out = tmp_path / "out"
    assert main(["simulate", "--policy", "static", "--scenario", str(scenario),
                 "--out", str(out)]) == 3
    assert not out.exists()
    assert f"error: tick {rows}: injected" in capsys.readouterr().err

    # so does a narrow one, whose per-twin step walks each block's rows:
    # step_control fails at tick 6, inside the second 4-row block
    narrow = small_config(n_resources=20, n_ticks=10, stationary_prefix=0)
    monkeypatch.setattr("twinalloc.engine._BLOCK", 4 * narrow.n_resources)
    step_control, controls = engine.step_control, []

    def fails_at_tick_6(twin, grant):
        controls.append(grant)
        if len(controls) == 6 * narrow.n_resources + 3:
            raise RuntimeError("injected")
        return step_control(twin, grant)

    monkeypatch.setattr("twinalloc.engine.step_control", fails_at_tick_6)
    with pytest.raises(SimulationError) as err:
        run_scenario(narrow, PolicyKind.STATIC, 0)
    assert err.value.tick == 4
    assert "tick 4: injected" in str(err.value)

    controls.clear()
    save_scenario(narrow, scenario)
    out = tmp_path / "narrow"
    assert main(["simulate", "--policy", "static", "--scenario", str(scenario),
                 "--out", str(out)]) == 3
    assert not out.exists()
    assert "error: tick 4: injected" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
@pytest.mark.parametrize("bank", [False, True], ids=["per-twin", "bank"])
def test_bad_grant_stops_the_run_at_its_tick(monkeypatch, tmp_path, capsys,
                                             bank, bad):
    # an online grant that is NaN or negative at tick 4 stops the run there,
    # on either twin path, and `compare` exits 3 with no outputs
    cfg = small_config(n_ticks=8, stationary_prefix=0)
    monkeypatch.setattr("twinalloc.engine.BANK_MIN_RESOURCES",
                        cfg.n_resources if bank else cfg.n_resources + 1)
    solve, calls = engine.allocate_online, []

    def spoiled_at_tick_4(*args):
        alloc = solve(*args)
        calls.append(alloc)
        if len(calls) == 5:
            alloc[2] = bad
        return alloc

    monkeypatch.setattr("twinalloc.engine.allocate_online", spoiled_at_tick_4)
    with pytest.raises(SimulationError) as err:
        run_scenario(cfg, PolicyKind.ONLINE_DYNAMIC, 0)
    assert err.value.tick == 4
    assert "granted must be" in str(err.value)

    calls.clear()
    scenario = tmp_path / "scenario.json"
    save_scenario(cfg, scenario)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(scenario),
                 "--out", str(out)]) == 3
    assert not out.exists()
    assert "error: tick 4: granted must be" in capsys.readouterr().err


@pytest.mark.parametrize("solve", ["allocate_static", "allocate_event"])
@pytest.mark.parametrize("bank", [False, True], ids=["per-twin", "bank"])
def test_bad_event_grant_stops_the_run_at_its_tick(monkeypatch, bank, solve):
    # event's grant rows, the static one at tick 0 and each re-solve, are
    # checked on the tick they are solved, on either twin path
    cfg = small_config(n_ticks=40, stationary_prefix=0, epsilon_per_step=0.05)
    monkeypatch.setattr("twinalloc.engine.BANK_MIN_RESOURCES",
                        cfg.n_resources if bank else cfg.n_resources + 1)
    first = (0 if solve == "allocate_static" else
             run_scenario(cfg, PolicyKind.EVENT_TRIGGERED, 0)
             .reallocation_ticks[0])
    real = getattr(engine, solve)

    def spoiled(*args):
        alloc = real(*args)
        alloc[1] = float("nan")
        return alloc

    monkeypatch.setattr(f"twinalloc.engine.{solve}", spoiled)
    with pytest.raises(SimulationError) as err:
        run_scenario(cfg, PolicyKind.EVENT_TRIGGERED, 0)
    assert first > 0 or solve == "allocate_static"
    assert err.value.tick == first
    assert "granted must be" in str(err.value)


@pytest.mark.parametrize("bank", [False, True], ids=["per-twin", "bank"])
def test_online_stops_at_the_first_bad_tick(monkeypatch, tmp_path, capsys,
                                            bank):
    # online solves its whole schedule before any twin steps, on either
    # twin path, but checks each row before it solves the next: a NaN grant
    # at tick 4 stops the run there (exit 3), and the solve of tick 6,
    # which would raise a SolverError, is never called
    cfg = small_config(n_resources=engine.BANK_MIN_RESOURCES, n_ticks=10,
                       stationary_prefix=0)
    monkeypatch.setattr("twinalloc.engine.BANK_MIN_RESOURCES",
                        cfg.n_resources if bank else cfg.n_resources + 1)
    solve, ticks = engine.allocate_online, []

    def spoiled(*args):
        ticks.append(len(ticks))
        if ticks[-1] == 6:
            raise SolverError("injected at tick 6")
        alloc = solve(*args)
        if ticks[-1] == 4:
            alloc[2] = float("nan")
        return alloc

    monkeypatch.setattr("twinalloc.engine.allocate_online", spoiled)
    with monkeypatch.context() as patch:   # no twin steps before tick 4's check
        patch.setattr("twinalloc.engine.step_control", _forbidden)
        patch.setattr("twinalloc.engine.step_bank", _forbidden)
        with pytest.raises(SimulationError) as err:
            run_scenario(cfg, PolicyKind.ONLINE_DYNAMIC, 0)
    assert err.value.tick == 4
    assert "granted must be" in str(err.value)
    assert ticks == [0, 1, 2, 3, 4]

    ticks.clear()
    scenario = tmp_path / "scenario.json"
    save_scenario(cfg, scenario)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(scenario),
                 "--out", str(out)]) == 3
    assert not out.exists()
    assert "error: tick 4: granted must be" in capsys.readouterr().err
    assert ticks == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("bad", [DEFAULT_BOX_HIGH + 0.5, float("nan")])
def test_target_outside_the_box_is_rejected(monkeypatch, bad):
    # both twin paths check the whole setpoint walk before tick 0, so a bad
    # setpoint at tick 7 stops the run at tick 0 with no solve run
    walks = engine.draw_walks

    def spoiled(config, seed):
        requirements, targets = walks(config, seed)
        targets[7, 1] = bad
        return requirements, targets

    def no_solve(*args):
        raise AssertionError("a tick ran")

    cfg = small_config(n_ticks=12, stationary_prefix=0)
    monkeypatch.setattr("twinalloc.engine.draw_walks", spoiled)
    monkeypatch.setattr("twinalloc.engine.allocate_static", no_solve)
    for threshold in (cfg.n_resources + 1, cfg.n_resources):  # per-twin, bank
        monkeypatch.setattr("twinalloc.engine.BANK_MIN_RESOURCES", threshold)
        with pytest.raises(SimulationError) as err:
            run_scenario(cfg, PolicyKind.STATIC, 0)
        assert err.value.tick == 0
        assert "task box" in str(err.value)


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
    {"gap": True},
    {"rho": False},
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
    twice = tmp_path / "twice.json"
    twice.write_text('{"n_ticks": 50, "n_ticks": 70}')
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(twice)
    assert err.value.diagnostics == ["duplicate scenario key: n_ticks"]
