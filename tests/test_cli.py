"""Command-line and report-format tests (all invocations in-process)."""

import csv
import json
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import twinalloc
from tests.oracles import metrics_csv_writer
from twinalloc.cli import main
from twinalloc.core import ScenarioConfig
from twinalloc.engine import compare_policies, run_scenario, save_scenario
from twinalloc.manager import PolicyKind
from twinalloc.report import CSV_HEADER, config_digest, metrics_csv

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
    assert ((out / "metrics.csv").read_bytes()
            == (",".join(CSV_HEADER) + "\n" + metrics_csv(result)).encode())

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["config_digest"] == config_digest(config)
    assert manifest["command"].startswith("twinalloc simulate")
    assert set(manifest["summary"]) == {"online"}


@pytest.mark.parametrize("token", TOKENS)
def test_simulate_csv_equals_compare_table(cli_env, tmp_path, token):
    _, scenario, out = cli_env
    run = tmp_path / token
    assert main(["simulate", "--scenario", str(scenario),
                 "--policy", token, "--out", str(run)]) == 0
    assert ((run / "metrics.csv").read_bytes()
            == (out / f"metrics_{token}.csv").read_bytes())


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
    '{"requirement_step_bound": 9223372036854775808}',
    '{"initial_requirement_range": [2, 9223372036854775808], '
    '"requirement_range": [1, 9223372036854775808]}',
    pytest.param('{"x\udcff": 1}', id="not-utf8"),
    pytest.param("[" * 100000, id="nested-too-deep"),
    pytest.param('{"n_ticks": ' + "1" * 5000 + "}", id="int-too-long"),
])
def test_invalid_scenario_exits_config(tmp_path, capsys, payload):
    scenario = tmp_path / "scenario.json"
    # surrogateescape writes the lone surrogate \udcff as the byte 0xff
    scenario.write_bytes(payload.encode("utf-8", "surrogateescape"))
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_names_every_field(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"n_resources": "x", "gap": true}')
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error: n_resources must be an integer" in err
    assert "error: gap must be a finite number" in err


@pytest.mark.parametrize("capacity", ["1e-17", "1e-300", "5e-324"])
def test_tiny_positive_capacity_runs(tmp_path, capsys, capacity):
    # a budget below the rounding of the requirement sums must still give
    # the static and event policies a feasible split at tick 0: the solve's
    # multiplier lands on the largest knot and every grant is zero
    scenario = tmp_path / "scenario.json"
    scenario.write_text(f'{{"capacity_b": {capacity}, "n_ticks": 5, '
                        '"stationary_prefix": 1}')
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert (out / "summary.txt").exists()


def test_capacity_above_1e300_exits_config_and_1e300_runs(tmp_path, capsys):
    # an equal split of 1.8e308 to one twin summed its residuals past the
    # float range: the mean was inf and the manifest failed to serialize,
    # exit 3 after the run
    scenario = tmp_path / "scenario.json"
    out = tmp_path / "out"
    scenario.write_text('{"capacity_b": 1.7976931348623157e308, '
                        '"n_resources": 1, "n_ticks": 4}')
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert ("error: capacity_b must lie in (0, 1e300] when given"
            in capsys.readouterr().err)
    scenario.write_text('{"capacity_b": 1e300, "n_resources": 1, '
                        '"n_ticks": 1000, "stationary_prefix": 0}')
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["summary"]["equal"]["mean_residual_after_prefix"]
            == pytest.approx(1e300))


def test_epsilon_above_1e300_exits_config_and_1e300_runs(tmp_path, capsys):
    # the trigger compares regret with epsilon * (T + 1), T + 1 up to the
    # period cap of 24: a budget near the float maximum overflowed there
    # from tick 2 on, with only a numpy warning
    scenario = tmp_path / "scenario.json"
    out = tmp_path / "out"
    doc = {"n_resources": 6, "n_ticks": 18, "stationary_prefix": 14}
    for epsilon in (1.7976931348623157e308, 1e301):
        scenario.write_text(json.dumps({**doc, "epsilon_per_step": epsilon}))
        code = main(["compare", "--scenario", str(scenario),
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert ("error: epsilon_per_step must lie in (0, 1e300] when given"
                in capsys.readouterr().err)
    # 1e300 runs without a warning, which the suite turns into an error
    scenario.write_text(json.dumps({**doc, "epsilon_per_step": 1e300}))
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    capsys.readouterr()


def test_failed_certificate_exits_solver_naming_the_tick(tmp_path, capsys,
                                                         monkeypatch):
    # a negative slack fails every binding solve's certificate; the static
    # solve binds at tick 0 under this capacity
    monkeypatch.setattr("twinalloc.solver._BUDGET_SLACK", -1.0)
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"capacity_b": 123.456, "n_ticks": 20}')
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 3
    assert not out.exists()
    assert "error: tick 0: budget multiplier" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [
    (["compare"], '{"n_ticks": 1e300}'),
    (["simulate", "--policy", "equal"], '{"n_ticks": 1e13, "n_resources": 1}'),
])
def test_oversized_run_exits_config_without_outputs(tmp_path, capsys,
                                                    command, payload):
    # both used to fail inside the walk with exit 3, from numpy's dimension
    # limit and from a 72.8 TiB allocation
    scenario = tmp_path / "scenario.json"
    scenario.write_text(payload)
    out = tmp_path / "out"
    code = main(command + ["--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error: n_resources * n_ticks must be <= " in err
    assert "error: tick" not in err


def test_overflowing_rho_exits_config_without_outputs(tmp_path, capsys):
    # (1 + 2 rho) * (45 + 10) overflows at rho = 1e308: rejected at load
    # time, where the run used to fail at tick 0 with exit 3
    scenario = tmp_path / "scenario.json"
    out = tmp_path / "out"
    scenario.write_text('{"rho": 1e308}')
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error: rho must keep (1 + 2 rho)" in err
    assert "tick" not in err
    # a huge ρ whose solve stays finite still runs
    scenario.write_text('{"rho": 1e200, "n_ticks": 30}')
    code = main(["compare", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    capsys.readouterr()


def test_import_and_load_leave_numpy_random_unloaded(cli_env, tmp_path):
    # importing numpy.random costs about 10 ms of every run; the walks are
    # drawn without it
    _, scenario, _ = cli_env
    src = str(Path(twinalloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, twinalloc.cli as cli; "
            f"cli.load_scenario({str(scenario)!r}); "
            "print('numpy.random' in sys.modules); "
            f"assert cli.main(['simulate', '--scenario', {str(scenario)!r}, "
            f"'--policy', 'event', '--out', {str(tmp_path / 'sim')!r}]) == 0; "
            f"assert cli.main(['compare', '--scenario', {str(scenario)!r}, "
            f"'--out', {str(tmp_path / 'cmp')!r}]) == 0; "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == "False"


def test_every_public_name_resolves_and_star_import_is_clean():
    # a name deleted from the package but still listed in __all__ fails both
    assert [name for name in twinalloc.__all__
            if not hasattr(twinalloc, name)] == []
    src = str(Path(twinalloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from twinalloc import *"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def reject_constant(token):
    raise ValueError(f"not JSON: {token}")


@pytest.mark.parametrize("command", [["compare"],
                                     ["simulate", "--policy", "event"]])
def test_manifest_is_strict_json_without_post_prefix_ticks(tmp_path, capsys,
                                                           command):
    # every tick lies in the prefix, so no post-prefix mean exists
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"n_ticks": 5, "stationary_prefix": 5}')
    out = tmp_path / "out"
    code = main([command[0], "--scenario", str(scenario), "--out", str(out),
                 *command[1:]])
    assert code == 0
    capsys.readouterr()
    text = (out / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text, parse_constant=reject_constant)
    means = [entry["mean_residual_after_prefix"]
             for entry in manifest["summary"].values()]
    assert means and all(mean is None for mean in means)
    assert len(means) == (4 if command == ["compare"] else 1)


def test_unknown_policy_rejected_by_parser(cli_env):
    # a usage error is a config error (1); 2 is the I/O-failure code
    _, scenario, _ = cli_env
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(scenario), "--policy", "greedy"])
    assert exc.value.code == 1


def test_bad_seed_rejected_by_parser(cli_env):
    _, scenario, _ = cli_env
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(scenario), "--policy", "equal",
              "--seed", "-4"])
    assert exc.value.code == 1


@pytest.mark.parametrize("seed", ["x", "1.5", "-4", str(2**64)])
def test_bad_seed_message_names_the_rule(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", "s.json", "--seed", seed])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"seed must be an integer in [0, 2**64), got '{seed}'" in err
    assert "_seed_value" not in err


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["compare"], ["simulate", "--scenario", "s.json"],
    ["compare", "--scenario", "s.json", "--workers", "2"],
    ["compare", "--scenario", "s.json", "--seed", "x"],
    ["compare", "--scenario", "s.json", "--seed", str(2**64)],
    ["compare", "--scenario", "s.json", "--bogus"],
])
def test_usage_errors_exit_config(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: twinalloc" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["compare", "-h"],
                                  ["simulate", "--help"]])
def test_help_exits_ok(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: twinalloc" in capsys.readouterr().out


def test_usage_error_exit_code_from_the_command_line(tmp_path):
    # the process exit status, not only the in-process SystemExit
    src = str(Path(twinalloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "twinalloc.cli", "simulate", "--scenario",
         str(tmp_path / "missing.json"), "--policy", "greedy"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "invalid choice: 'greedy'" in proc.stderr


# ---------------------------------------------------------------- publishing

COMPARE_FILES = (*(f"metrics_{tok}.csv" for tok in TOKENS), "comparison.csv",
                 "comparison.svg", "summary.txt", "manifest.json")
COMMANDS = {"compare": (["compare"], COMPARE_FILES),
            "simulate": (["simulate", "--policy", "event"],
                         ("metrics.csv", "manifest.json"))}


def tree(root):
    """Every path under root, mapped to its bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_outputs_name_every_file_but_itself(cli_env, tmp_path,
                                                     capsys, command):
    _, scenario, _ = cli_env
    argv, files = COMMANDS[command]
    out = str(tmp_path / "out")
    assert main([*argv, "--scenario", str(scenario), "--out", out]) == 0
    capsys.readouterr()
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["outputs"] == {name.replace(".", "_"): os.path.join(
        out, name) for name in files if name != "manifest.json"}
    # exactly the promised files: no staging directory is left behind
    assert sorted(os.listdir(out)) == sorted(files)


@pytest.mark.parametrize("command, name", [
    (command, name) for command, (_, files) in COMMANDS.items()
    for name in files])
def test_blocked_output_leaves_out_as_it_was(cli_env, tmp_path, capsys,
                                             command, name):
    # a directory where one output goes fails the command before any file
    # moves: an earlier run's files keep their bytes under another seed
    _, scenario, _ = cli_env
    out = tmp_path / "out"
    argv = [*COMMANDS[command][0], "--scenario", str(scenario),
            "--out", str(out)]
    assert main(argv) == 0
    (out / name).unlink()
    (out / name / "kept").mkdir(parents=True)
    before = tree(out)
    assert main([*argv, "--seed", "2"]) == 2
    assert tree(out) == before
    assert f"error: {out / name} is not a regular file" in (
        capsys.readouterr().err)


def test_failed_rename_leaves_the_files_moved_before_it(cli_env, tmp_path,
                                                        capsys, monkeypatch):
    # the window that remains: the renames are not atomic as a set
    _, scenario, ref = cli_env
    replace, calls = os.replace, []

    def fail_third(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError("injected rename failure")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_third)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert "error: injected rename failure" in capsys.readouterr().err
    moved = COMPARE_FILES[:2]
    assert sorted(os.listdir(out)) == sorted(moved)
    for name in moved:
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_failed_write_removes_the_directories_it_made(cli_env, tmp_path,
                                                     capsys, monkeypatch):
    # --out and its missing parent were made by this call, so both go; the
    # existing grandparent stays
    _, scenario, _ = cli_env

    def fail(path, manifest):
        raise OSError("injected write failure")

    monkeypatch.setattr("twinalloc.cli.write_manifest", fail)
    out = tmp_path / "made" / "out"
    assert main(["compare", "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert "error: injected write failure" in capsys.readouterr().err
    assert not (tmp_path / "made").exists() and tmp_path.is_dir()


def test_unexpected_fault_raises_and_leaves_out_as_it_was(cli_env, tmp_path,
                                                         capsys, monkeypatch):
    # a fault that is no scenario, I/O or run failure is a bug: main lets it
    # raise with its traceback, and an earlier run's files keep their bytes
    _, scenario, _ = cli_env
    out = tmp_path / "out"
    argv = ["compare", "--scenario", str(scenario), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    before = tree(out)

    def fail(results, config):
        raise RuntimeError("injected rendering fault")

    monkeypatch.setattr("twinalloc.cli.render_comparison_svg", fail)
    with pytest.raises(RuntimeError, match="injected rendering fault"):
        main([*argv, "--seed", "2"])
    assert tree(out) == before
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("held", [False, True], ids=["empty", "holding-file"])
def test_stale_staging_directory_of_the_same_pid_is_left_alone(
        cli_env, tmp_path, capsys, monkeypatch, held):
    # a killed run under a pid that comes round again left its staging
    # directory: the new run still publishes every file and neither uses
    # nor removes the stale one
    _, scenario, ref = cli_env
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    out = tmp_path / "out"
    stale = out / ".twinalloc-4242"
    stale.mkdir(parents=True)
    if held:
        (stale / "comparison.csv").write_text("left by a killed run\n")
    before = tree(stale)
    assert main(["compare", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out)) == sorted([*COMPARE_FILES, stale.name])
    for name in COMPARE_FILES[:-1]:
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    assert stale.is_dir() and tree(stale) == before


FUZZ_KEYS = sorted(f.name for f in fields(ScenarioConfig)) + ["frobnicate"]
FUZZ_NUMBERS = [0, -1, 1, 2, 0.5, 2 ** 62, 2 ** 63 - 46, 2 ** 63, 2 ** 64 - 1,
                2 ** 64, -2 ** 63, 1e300, -1e300, 5e-324, 1e-300, 1e200,
                1.7976931348623157e308]
FUZZ_PAIRS = [[1, 1], [45, 1], [0, 45], [2, 38], [1, 2 ** 62], [1, 2 ** 63]]
FUZZ_JUNK = [float("nan"), float("inf"), True, None, "7", [], {}]


def fuzz_document(rng):
    """A small valid scenario with one key, or two, set to an extreme."""
    doc = {"n_resources": rng.randint(1, 50), "n_ticks": rng.randint(1, 30)}
    doc["stationary_prefix"] = rng.randint(0, doc["n_ticks"])
    for key in rng.sample(FUZZ_KEYS, rng.choice((1, 1, 2))):
        pool = FUZZ_PAIRS if key.endswith("range") else FUZZ_NUMBERS
        doc[key] = rng.choice(pool + FUZZ_JUNK if rng.random() < 0.1 else pool)
    return doc


def test_fuzzed_scenarios_publish_all_files_or_none(tmp_path, capsys):
    # exit 1 must leave no --out and exit 0 every promised file; any other
    # exit code is a fault
    rng = random.Random(0)
    passed = 0
    for i in range(500):
        doc = fuzz_document(rng)
        scenario, out = tmp_path / f"s{i}.json", tmp_path / f"out{i}"
        scenario.write_text(json.dumps(doc))
        code = main(["compare", "--scenario", str(scenario),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1), (doc, err)
        if code == 0:
            passed += 1
            assert sorted(os.listdir(out)) == sorted(COMPARE_FILES), doc
        else:
            assert not out.exists(), doc
    assert passed >= 100


# ------------------------------------------------------------ report helpers

def test_metrics_csv_one_line_per_tick(cli_env):
    config, _, _ = cli_env
    result = run_scenario(config, PolicyKind.EQUAL, 1)
    lines = metrics_csv(result).split("\n")
    assert lines.pop() == ""
    assert len(lines) == config.n_ticks
    for t, line in enumerate(lines):
        assert line.startswith(f"{t},equal,")
        assert len(line.split(",")) == len(CSV_HEADER)


def test_metrics_csv_matches_csv_writer():
    # compare-long's first instance: n=20, T=1000, the budget binding
    config = ScenarioConfig(n_ticks=1000, master_seed=1731038949)
    for result in compare_policies(config, config.master_seed).values():
        assert metrics_csv(result) == metrics_csv_writer(result)


def test_config_digest_tracks_content():
    base = ScenarioConfig()
    assert config_digest(base) == config_digest(ScenarioConfig())
    assert len(config_digest(base)) == 64
    assert config_digest(base) != config_digest(ScenarioConfig(rho=2e3))
