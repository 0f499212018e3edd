"""Command-line and report-format tests (all invocations in-process)."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from twinalloc.cli import main
from twinalloc.core import ScenarioConfig
from twinalloc.engine import run_scenario, save_scenario
from twinalloc.manager import PolicyKind
from twinalloc.report import (CSV_HEADER, config_digest, metrics_rows,
                              render_metrics_csv)

TOKENS = [k.value for k in PolicyKind]


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = ScenarioConfig(n_resources=5, n_ticks=20, stationary_prefix=4,
                            master_seed=1)
    scenario = root / "scenario.json"
    save_scenario(config, scenario)
    out = root / "compare"
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    return config, scenario, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------ simulate

def test_simulate_writes_expected_files(cli_env, tmp_path, capsys):
    config, scenario, _ = cli_env
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(scenario),
                 "--policy", "online", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "online" in captured.out and "seed 1" in captured.out

    rows = read_rows(out / "metrics.csv")
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + config.n_ticks
    for t, row in enumerate(rows[1:]):
        assert int(row[0]) == t
        assert row[1] == "online"
        for cell in row[2:5]:
            assert np.isfinite(float(cell))
    # online re-solves every tick after the first
    assert [int(r[5]) for r in rows[1:]] == list(range(config.n_ticks))

    # the file must be exactly what an in-process rerun renders
    result = run_scenario(config, PolicyKind.ONLINE_DYNAMIC, 1)
    assert (out / "metrics.csv").read_text() == render_metrics_csv(result)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["config_digest"] == config_digest(config)
    assert manifest["command"].startswith("twinalloc simulate")
    assert set(manifest["summary"]) == {"online"}


def test_simulate_seed_flag(cli_env, tmp_path):
    _, scenario, _ = cli_env
    outs = {}
    for name, extra in (("default", []), ("same", ["--seed", "1"]),
                        ("other", ["--seed", "2"])):
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(scenario),
                     "--policy", "static", "--out", str(out), *extra]) == 0
        outs[name] = (out / "metrics.csv").read_bytes()
    assert outs["default"] == outs["same"]
    assert outs["default"] != outs["other"]


# ------------------------------------------------------------------- compare

def test_compare_writes_full_file_set(cli_env):
    _, _, out = cli_env
    expected = {f"metrics_{tok}.csv" for tok in TOKENS}
    expected |= {"comparison.csv", "comparison.svg", "summary.txt",
                 "manifest.json"}
    assert {p.name for p in out.iterdir()} == expected


def test_comparison_csv_is_concatenation(cli_env):
    config, _, out = cli_env
    combined = read_rows(out / "comparison.csv")
    assert tuple(combined[0]) == CSV_HEADER
    assert len(combined) == 1 + 4 * config.n_ticks
    stitched = []
    for tok in TOKENS:
        per = read_rows(out / f"metrics_{tok}.csv")
        assert tuple(per[0]) == CSV_HEADER
        assert all(row[1] == tok for row in per[1:])
        stitched.extend(per[1:])
    assert combined[1:] == stitched


def test_csv_numbers_round_trip(cli_env):
    config, _, out = cli_env
    result = run_scenario(config, PolicyKind.EVENT_TRIGGERED, 1)
    rows = read_rows(out / "metrics_event.csv")
    for t, row in enumerate(rows[1:]):
        assert float(row[2]) == result.residual_inf_series[t]
        assert float(row[3]) == float(np.mean(result.regret_series[t]))
        assert float(row[4]) == float(np.max(np.abs(result.regret_series[t])))


def test_svg_structure(cli_env):
    _, _, out = cli_env
    svg = (out / "comparison.svg").read_text()
    assert svg.startswith("<svg")
    assert 'width="800"' in svg and 'height="500"' in svg
    assert svg.count('class="series"') == 4
    assert svg.count('class="band"') == 1
    assert svg.count("stroke-dasharray") == 4
    for label in ("equal split", "static", "event-triggered", "online dynamic"):
        assert label in svg


def test_summary_and_manifest(cli_env):
    config, _, out = cli_env
    summary = (out / "summary.txt").read_text()
    lines = summary.splitlines()
    assert len(lines) == 5
    assert "reallocations" in lines[0]

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"command", "seed", "config_digest", "outputs",
                             "summary"}
    assert set(manifest["summary"]) == set(TOKENS)
    for path in manifest["outputs"].values():
        assert Path(path).is_file()
    for entry in manifest["summary"].values():
        assert np.isfinite(entry["mean_residual_after_prefix"])
        assert entry["reallocations"] >= 0


def test_compare_deterministic_across_workers(cli_env, tmp_path):
    _, scenario, out = cli_env
    redo = tmp_path / "redo"
    assert main(["compare", "--scenario", str(scenario),
                 "--out", str(redo)]) == 0
    for name in [f"metrics_{tok}.csv" for tok in TOKENS] + [
            "comparison.csv", "comparison.svg", "summary.txt"]:
        assert (redo / name).read_bytes() == (out / name).read_bytes()
    first = json.loads((out / "manifest.json").read_text())
    second = json.loads((redo / "manifest.json").read_text())
    assert first["summary"] == second["summary"]
    assert first["config_digest"] == second["config_digest"]


# ------------------------------------------------------------- failure paths

def test_missing_scenario_exits_io_without_outputs(tmp_path, capsys):
    out = tmp_path / "never"
    code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--policy", "equal", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    '{"n_resources": 0}',
    '{"n_resources": "twenty"}',
    '{"frobnicate": 3}',
    '{nope',
    '{"rho": NaN}',
    '{"gap": NaN}',
    '{"capacity_b": Infinity}',
    '{"master_seed": 1e30}',
    '{"master_seed": 18446744073709551616}',
    '{"n_ticks": NaN}',
    '{"n_resources": Infinity}',
])
def test_invalid_scenario_exits_config(tmp_path, capsys, payload):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(payload)
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_unknown_policy_rejected_by_parser(cli_env):
    _, scenario, _ = cli_env
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", str(scenario), "--policy", "greedy"])


def test_bad_seed_rejected_by_parser(cli_env):
    _, scenario, _ = cli_env
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", str(scenario), "--policy", "equal",
              "--seed", "-4"])


# ------------------------------------------------------------ report helpers

def test_render_metrics_csv_single_equals_list(cli_env):
    config, _, _ = cli_env
    result = run_scenario(config, PolicyKind.EQUAL, 1)
    assert render_metrics_csv(result) == render_metrics_csv([result])
    rows = metrics_rows(result)
    assert rows[0][0] == 0
    assert all(row[1] == "equal" for row in rows)


def test_config_digest_tracks_content():
    base = ScenarioConfig()
    assert config_digest(base) == config_digest(ScenarioConfig())
    assert len(config_digest(base)) == 64
    assert config_digest(base) != config_digest(ScenarioConfig(rho=2e3))
