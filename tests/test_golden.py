"""Golden-output check: all four policies on the default scenario, seeds 0-2.

The fixture holds, per seed and policy, the per-tick residual inf norm, the
mean and maximum absolute cumulative regret over the twins, and the
reallocation ticks. Rewrite it with ``python -m tests.test_golden`` only
when a change to the policies' outputs is intended.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from twinalloc.core import ScenarioConfig
from twinalloc.engine import compare_policies
from twinalloc.manager import PolicyKind

FIXTURE = Path(__file__).with_name("golden_default.json")
SEEDS = (0, 1, 2)
# equal and static never call the allocation solve; event and online do, and
# a different but exact solve may round differently in the last digits
SOLVED = (PolicyKind.EVENT_TRIGGERED, PolicyKind.ONLINE_DYNAMIC)
SOLVED_TOL = 1e-9


def _series(result) -> dict:
    regret = result.regret_series
    return {"residual_inf": result.residual_inf_series.tolist(),
            "mean_regret": regret.mean(axis=1).tolist(),
            "max_regret": np.abs(regret).max(axis=1).tolist(),
            "reallocation_ticks": list(result.reallocation_ticks)}


def record() -> None:
    golden = {str(seed): {kind.value: _series(result) for kind, result
                          in compare_policies(ScenarioConfig(), seed).items()}
              for seed in SEEDS}
    FIXTURE.write_text(json.dumps(golden, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_policies_match_golden(seed):
    golden = json.loads(FIXTURE.read_text())[str(seed)]
    for kind, result in compare_policies(ScenarioConfig(), seed).items():
        want, got = golden[kind.value], _series(result)
        assert got["reallocation_ticks"] == want["reallocation_ticks"]
        for key in ("residual_inf", "mean_regret", "max_regret"):
            if kind in SOLVED:
                np.testing.assert_allclose(got[key], want[key], rtol=0,
                                           atol=SOLVED_TOL, err_msg=key)
            else:
                assert got[key] == want[key], key


if __name__ == "__main__":
    record()
