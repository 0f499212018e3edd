"""Byte-level golden check of the files ``twinalloc compare`` writes.

``golden_outputs.json`` holds, per scenario, the SHA-256 of
``comparison.csv``, the four ``metrics_<policy>.csv``, ``comparison.svg``
and ``summary.txt``, and of the command's stdout. ``manifest.json`` is left
out: it names the output paths, which differ between runs.

Rewrite the fixture with ``python -m tests.test_golden_outputs`` only when
a change to the written bytes is intended.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from twinalloc.cli import main
from twinalloc.core import ScenarioConfig
from twinalloc.engine import save_scenario
from twinalloc.manager import PolicyKind

FIXTURE = Path(__file__).with_name("golden_outputs.json")
FILES = ("comparison.csv",
         *(f"metrics_{kind.value}.csv" for kind in PolicyKind),
         "comparison.svg", "summary.txt")
CASES = {
    "default": ScenarioConfig(),
    # compare-long's first instance: n=20, T=1000, the budget binding
    "n20-T1000-seed1731038949": ScenarioConfig(n_ticks=1000,
                                               master_seed=1731038949),
    "n300-T60-prefix0-seed9": ScenarioConfig(
        n_resources=300, n_ticks=60, stationary_prefix=0, master_seed=9),
}


def _digests(config: ScenarioConfig, root: Path) -> dict:
    scenario, out = root / "scenario.json", root / "out"
    save_scenario(config, scenario)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["compare", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in FILES}
    digests["stdout"] = hashlib.sha256(
        stdout.getvalue().encode("utf-8")).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_outputs_match_golden_bytes(name, tmp_path):
    golden = json.loads(FIXTURE.read_text())[name]
    assert _digests(CASES[name], tmp_path) == golden


def record() -> None:
    golden = {}
    for name, config in CASES.items():
        with tempfile.TemporaryDirectory() as root:
            golden[name] = _digests(config, Path(root))
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
