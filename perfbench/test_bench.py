"""Tests of the benchmark itself: span arithmetic, patching, oracles, inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, run.SRC)


def _fake_clock(step=10):
    now = [0]

    def clock():
        now[0] += step
        return now[0]
    return clock


def test_self_times_of_nested_fake_calls():
    rec = tracer.SpanRecorder(clock=_fake_clock())
    leaf = rec.wrap(lambda: None, "solver.hinge")
    mid = rec.wrap(lambda: (leaf(), leaf()), "manager.online")
    root = rec.wrap(lambda: (mid(), leaf()), tracer.ROOT_KEY)
    root()
    table = rec.table()
    # the clock advances 10 ns per read: root 10-100, online 20-70 with
    # hinge 30-40 and 50-60 inside, then hinge 80-90
    assert table["calls"] == {**{k: 0 for k in tracer.SPAN_KEYS},
                              tracer.ROOT_KEY: 1, "manager.online": 1,
                              "solver.hinge": 3}
    assert table["total_ns"]["solver.hinge"] == 30
    assert table["total_ns"]["manager.online"] == 50
    assert table["self_ns"]["manager.online"] == 50 - 20
    assert table["total_ns"][tracer.ROOT_KEY] == 90
    assert table["self_ns"][tracer.ROOT_KEY] == 90 - 50 - 10
    assert sum(table["self_ns"].values()) == table["total_ns"][tracer.ROOT_KEY]

    metrics = tracer.layer_metrics([table], run_ns=100, ticks=5)
    assert metrics["manager.online_s"] == 50e-9
    assert metrics["manager.online_self_s"] == 30e-9
    assert metrics["trace.uncovered_s"] == pytest.approx(10e-9)
    assert metrics["engine.ticks"] == 5
    self_sum = sum(metrics[name] for name in tracer.SELF_TIME_METRICS)
    assert self_sum + metrics["trace.uncovered_s"] == pytest.approx(
        metrics["trace.run_s"])


def test_span_closes_when_the_call_raises():
    rec = tracer.SpanRecorder(clock=_fake_clock())

    def boom():
        raise ValueError("boom")
    wrapped = rec.wrap(boom, "engine.walk")
    with pytest.raises(ValueError):
        wrapped()
    assert rec.table()["total_ns"]["engine.walk"] == 10
    assert rec._stack == [-1]


def _bound(site):
    module, attr, _ = site
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def test_install_then_restore_puts_every_original_back():
    before = [_bound(site) for site in tracer.WRAP_SITES]
    rec = tracer.SpanRecorder()
    assert rec.install() == []
    assert all(_bound(site) is not orig
               for site, orig in zip(tracer.WRAP_SITES, before))
    rec.restore()
    assert all(_bound(site) is orig
               for site, orig in zip(tracer.WRAP_SITES, before))


def test_missing_site_reads_zero_calls():
    sites = (("twinalloc.manager", "no_such_solver", "solver.hinge"),
             ("twinalloc.no_such_module", "anything", "solver.project"),
             ("twinalloc.twin", "NoSuchClass.method", "twin.assign"))
    rec = tracer.SpanRecorder()
    missing = rec.install(sites)
    rec.restore()
    assert missing == ["twinalloc.manager.no_such_solver",
                       "twinalloc.no_such_module.anything",
                       "twinalloc.twin.NoSuchClass.method"]
    metrics = tracer.layer_metrics([rec.table()], run_ns=0, ticks=0)
    assert metrics["solver.hinge_calls"] == 0
    assert metrics["solver.hinge_iters"] == 0
    assert metrics["solver.hinge_ns_per_elem_iter"] == 0.0


def test_traced_cli_run_counts_work(tmp_path):
    from twinalloc import cli
    workload = run.WORKLOADS["compare-long"]
    scenario = workload.scenario(5) | {"n_ticks": 30}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rec = tracer.SpanRecorder()
    rec.install()
    try:
        main = rec.wrap(cli.main, tracer.ROOT_KEY)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(workload.cli_args(str(path), 5, str(tmp_path / "o"))) == 0
    finally:
        rec.restore()
    metrics = tracer.layer_metrics([rec.table()], run_ns=1, ticks=0)
    assert metrics["twin.assign_calls"] == 4 * 20 * 30
    assert metrics["twin.control_calls"] == 4 * 20 * 30
    assert metrics["manager.online_calls"] == 30
    assert metrics["solver.hinge_calls"] == 30 + metrics["manager.event_calls"]
    assert metrics["solver.hinge_iters"] >= metrics["solver.hinge_calls"]
    assert metrics["report.csv_bytes"] > 0


def test_block_draws_reproduce_scalar_draws():
    for seed in (0, 7, 2**31 + 5):
        a = oracle.substream(seed, oracle.DOMAIN_WALK, 3)
        b = oracle.substream(seed, oracle.DOMAIN_WALK, 3)
        scalar = [int(a.integers(-1, 1, endpoint=True)) for _ in range(300)]
        assert b.integers(-1, 1, endpoint=True, size=300).tolist() == scalar


@pytest.mark.parametrize("seed", [0, 7])
def test_oracle_agrees_with_library(seed):
    from twinalloc.engine import run_scenario, scenario_from_dict
    from twinalloc.manager import PolicyKind
    scenario = run.WORKLOADS["compare-long"].scenario(seed) | {
        "n_resources": 50, "n_ticks": 80}
    config = scenario_from_dict(scenario)
    expected = oracle.expected_series(scenario, seed, oracle.POLICIES)
    walk = oracle.requirement_walk(scenario, seed)
    for policy in ("equal", "static", "online"):
        result = run_scenario(config, PolicyKind(policy), seed)
        np.testing.assert_array_equal(result.requirement_series, walk)
        tol = oracle.ONLINE_TOL if policy == "online" else oracle.CLOSED_FORM_TOL
        want = expected[policy]
        assert np.max(np.abs(result.residual_inf_series
                             - want["residual_inf"])) <= tol
        if policy == "online":
            continue
        regret = result.regret_series
        np.testing.assert_allclose(regret.mean(axis=1), want["mean_regret"],
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(np.abs(regret).max(axis=1),
                                   want["max_regret"], rtol=1e-9, atol=1e-9)


def _write_compare(tmp_path, seed, n_ticks):
    from twinalloc import cli
    workload = run.WORKLOADS["compare-long"]
    scenario = workload.scenario(seed) | {"n_ticks": n_ticks}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workload.cli_args(str(path), seed, str(out))) == 0
    return scenario, out


def _check(scenario, out, expected):
    return oracle.check_outputs(str(out), "compare", oracle.POLICIES,
                                scenario, expected)


def _edit_cell(csv_path, line, column, policy, delta):
    lines = csv_path.read_text().splitlines()
    row = lines[line].split(",")
    assert row[1] == policy
    row[column] = repr(float(row[column]) + delta)
    lines[line] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")


def test_check_outputs_catches_wrong_outputs(tmp_path):
    scenario, out = _write_compare(tmp_path, 3, 60)
    expected = oracle.expected_series(scenario, 3, oracle.POLICIES)
    table = _check(scenario, out, expected)
    assert table == oracle.read_metrics_csv(str(out / "comparison.csv"))
    first_event = table["event"]["realloc_cumulative"].index(1)
    assert 1 <= first_event <= oracle.MAX_REALLOCATION_PERIOD

    csv_path = out / "comparison.csv"
    original = csv_path.read_text()
    # line 1 + k is equal tick k, then static, event and online, 60 each
    for line, column, policy in ((30, 2, "equal"), (185, 2, "online"),
                                 (80, 3, "static"), (65, 4, "static"),
                                 (121 + first_event - 1, 2, "event")):
        csv_path.write_text(original)
        _edit_cell(csv_path, line, column, policy, 1e-3)
        with pytest.raises(oracle.CheckFailed, match=policy):
            _check(scenario, out, expected)
    csv_path.write_text(original)
    os.remove(out / "summary.txt")
    with pytest.raises(oracle.CheckFailed, match="summary.txt"):
        _check(scenario, out, expected)


def test_event_invariants_and_reference():
    n_ticks = 60
    static = {"residual_inf": np.zeros(n_ticks)}
    epsilon = np.array([0.5, 2.0])

    def check(event_ticks, max_regret=None):
        realloc = np.zeros(n_ticks, dtype=int)
        for t in event_ticks:
            realloc[t:] += 1
        regret = [1.0] * n_ticks if max_regret is None else max_regret
        oracle.check_event({"residual_inf": [0.0] * n_ticks,
                            "realloc_cumulative": realloc.tolist(),
                            "max_regret": regret}, static, epsilon, n_ticks)
    check([25, 50])
    # a first re-solve after tick 25, a gap of 26, none in the last 26 ticks
    for bad in ([26, 50], [25, 51], [10, 20, 30]):
        with pytest.raises(oracle.CheckFailed, match="25 ticks"):
            check(bad)
    # regret within every budget, yet a re-solve at tick 10
    with pytest.raises(oracle.CheckFailed, match="inside its regret budget"):
        check([10, 35], [0.1] * n_ticks)
    # regret 9 > 2 * 4 after four ticks, yet no re-solve at tick 4
    with pytest.raises(oracle.CheckFailed, match="exceeds every budget"):
        check([25, 50], [9.0] * n_ticks)

    recorded = [[10, 5.0, 12.0], [14, 4.0, 11.0]]
    oracle.check_event_reference([[11, 5.1, 12.3], [14, 4.1, 11.0]], recorded)
    with pytest.raises(oracle.CheckFailed, match="reallocations"):
        oracle.check_event_reference([[30, 5.0, 12.0], [14, 4.0, 11.0]],
                                     recorded)
    with pytest.raises(oracle.CheckFailed, match="tick-mean"):
        oracle.check_event_reference([[10, 6.0, 12.0], [14, 4.0, 11.0]],
                                     recorded)


def test_workload_seed_decides_the_inputs():
    count = run.WORKLOADS["online-wide"].instances
    assert run.instance_seeds(0, count) == run.instance_seeds(0, count)
    assert run.instance_seeds(0, count) != run.instance_seeds(1, count)
    assert len(set(run.instance_seeds(0, count))) == count
    workload = run.WORKLOADS["compare-long"]
    chosen = workload.instance_seeds(0)
    assert chosen == workload.instance_seeds(0) != workload.instance_seeds(1)
    assert len(set(chosen)) == workload.instances
    prefix = workload.stationary_prefix
    for master in chosen:
        total = oracle.requirement_walk(workload.scenario(master),
                                        master).sum(axis=1)
        assert np.mean(total[prefix:] > total[0]) >= run.BINDING_SHARE
    scenario = run.WORKLOADS["online-wide"].scenario(1)
    w0 = oracle.requirement_walk(scenario, run.instance_seeds(0, 1)[0])
    w1 = oracle.requirement_walk(scenario, run.instance_seeds(1, 1)[0])
    assert not np.array_equal(w0, w1)


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    for name in e2e + layer + list(run.PER_LAYER):
        assert name_re.fullmatch(name) and len(name) <= 64, name
    assert e2e == [name for name, _ in run.END_TO_END]
    assert sorted(layer) == sorted(run.PER_LAYER)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert units == {name: tracer.metric_unit(name) for name in run.PER_LAYER}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
