"""Golden-output checks.

``golden_default.json`` holds, per seed (0-2) and policy on the default
scenario, the per-tick residual inf norm, the mean and maximum absolute
cumulative regret over the twins, and the reallocation ticks.

``golden_cases.json`` holds two off-default scenarios (an explicit regret
budget over a long run; a wide short run with a short prefix). Per policy it
keeps the same per-tick series and a SHA-256 digest of every full
(n_ticks, n) series, so a one-ulp drift in any twin's regret, allocation or
requirement fails. Every key is compared exactly.

Rewrite the fixtures with ``python -m tests.test_golden`` only when a change
to the policies' outputs is intended.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from twinalloc.core import ScenarioConfig
from twinalloc.engine import compare_policies

FIXTURE = Path(__file__).with_name("golden_default.json")
CASES_FIXTURE = Path(__file__).with_name("golden_cases.json")
SEEDS = (0, 1, 2)
CASES = {
    "eps0.05-n20-T300-seed5": (
        ScenarioConfig(epsilon_per_step=0.05, n_resources=20, n_ticks=300), 5),
    "n300-T60-prefix3-seed9": (
        ScenarioConfig(n_resources=300, n_ticks=60, stationary_prefix=3), 9),
}


def _series(result) -> dict:
    regret = result.regret_series
    return {"residual_inf": result.residual_inf_series.tolist(),
            "mean_regret": regret.mean(axis=1).tolist(),
            "max_regret": np.abs(regret).max(axis=1).tolist(),
            "reallocation_ticks": list(result.reallocation_ticks)}


def _digest(arr, dtype: str) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def _case_series(result) -> dict:
    return {**_series(result),
            "regret_sha256": _digest(result.regret_series, "<f8"),
            "allocation_sha256": _digest(result.allocation_series, "<f8"),
            "requirement_sha256": _digest(result.requirement_series, "<i8")}


def record() -> None:
    golden = {str(seed): {kind.value: _series(result) for kind, result
                          in compare_policies(ScenarioConfig(), seed).items()}
              for seed in SEEDS}
    FIXTURE.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    cases = {name: {kind.value: _case_series(result) for kind, result
                    in compare_policies(config, seed).items()}
             for name, (config, seed) in CASES.items()}
    CASES_FIXTURE.write_text(json.dumps(cases, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_policies_match_golden(seed):
    golden = json.loads(FIXTURE.read_text())[str(seed)]
    for kind, result in compare_policies(ScenarioConfig(), seed).items():
        want, got = golden[kind.value], _series(result)
        for key in want:
            assert got[key] == want[key], f"{kind.value}: {key}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_policies_match_golden_cases_exactly(name):
    golden = json.loads(CASES_FIXTURE.read_text())[name]
    config, seed = CASES[name]
    for kind, result in compare_policies(config, seed).items():
        want, got = golden[kind.value], _case_series(result)
        for key in want:
            assert got[key] == want[key], f"{kind.value}: {key}"


if __name__ == "__main__":
    record()
