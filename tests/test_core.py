"""Shared type and residual-metric tests."""

import dataclasses

import numpy as np
import pytest

from twinalloc.core import (DEFAULT_MAX_DEVIATION, DEFAULT_SLACK_PENALTY,
                            MAX_RUN_CELLS, AllocationConstraints,
                            DimensionMismatch,
                            ScenarioConfig, ScenarioValidationError,
                            compute_residual)
from twinalloc.engine import load_scenario, save_scenario
from twinalloc.report import config_digest


def test_constraints_validation():
    c = AllocationConstraints(capacity_b=10.0)
    assert c.max_deviation == DEFAULT_MAX_DEVIATION
    assert c.slack_penalty_rho == DEFAULT_SLACK_PENALTY
    with pytest.raises(ValueError):
        AllocationConstraints(capacity_b=0.0)
    with pytest.raises(ValueError):
        AllocationConstraints(capacity_b=10.0, max_deviation=-1.0)
    with pytest.raises(ValueError):
        AllocationConstraints(capacity_b=10.0, slack_penalty_rho=-1.0)


def test_residual_examples():
    per, inf = compute_residual([5, 7], [5, 7])
    assert inf == 0.0 and not per.any()
    per, inf = compute_residual([10, 20], [8, 25])
    assert np.array_equal(per, [2.0, -5.0])
    assert inf == 5.0
    with pytest.raises(DimensionMismatch):
        compute_residual([1, 2], [1, 2, 3])


def test_residual_rows_match_per_row_calls():
    # the engine's one call on the whole run against one call per tick
    rng = np.random.default_rng(11)
    r = rng.integers(1, 46, (200, 30)).astype(float)
    a = r + rng.uniform(-12.0, 12.0, r.shape)
    per, norms = compute_residual(r, a)
    assert np.array_equal(per, r - a)
    rows = [compute_residual(r[t], a[t])[1] for t in range(r.shape[0])]
    assert all(type(norm) is float for norm in rows)
    assert norms.tobytes() == np.array(rows).tobytes()


def test_residual_translation_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        r = rng.uniform(0, 30, n)
        a = rng.uniform(0, 30, n)
        shift = float(rng.uniform(-5, 5))
        per0, inf0 = compute_residual(r, a)
        per1, inf1 = compute_residual(r + shift, a + shift)
        assert np.allclose(per0, per1)
        assert np.isclose(inf0, inf1)
        # zero norm exactly when vectors coincide
        assert (inf0 == 0.0) == bool(np.all(r == a))


def test_default_scenario_is_valid_and_idempotent():
    cfg = ScenarioConfig()
    assert ScenarioConfig(**dataclasses.asdict(cfg)) == cfg


@pytest.mark.parametrize("kwargs,needle", [
    (dict(n_resources=0), "n_resources"),
    (dict(n_ticks=0), "n_ticks"),
    (dict(stationary_prefix=-1), "stationary_prefix"),
    (dict(stationary_prefix=200), "stationary_prefix"),
    (dict(capacity_b=0.0), "capacity_b"),
    (dict(requirement_step_bound=-1), "requirement_step_bound"),
    (dict(requirement_range=(9, 5)), "requirement_range"),
    (dict(requirement_range=(0, 45)), "requirement_range"),
    (dict(initial_requirement_range=(8, 2)), "initial_requirement_range"),
    (dict(initial_requirement_range=(1, 99)), "initial_requirement_range"),
    (dict(gap=-1.0), "gap"),
    (dict(epsilon_per_step=0.0), "epsilon_per_step"),
    (dict(rho=-5.0), "rho"),
    (dict(master_seed=-2), "master_seed"),
    (dict(master_seed=2 ** 64), "master_seed"),
    (dict(n_ticks=float("nan")), "n_ticks"),
    (dict(rho=float("nan")), "rho"),
    (dict(capacity_b=float("inf")), "capacity_b"),
    (dict(rho=1e307), "rho"),    # (1 + 2 rho) * (45 + 10) overflows
])
def test_scenario_invariant_diagnostics(kwargs, needle):
    with pytest.raises(ScenarioValidationError) as err:
        ScenarioConfig(**kwargs)
    assert any(needle in d for d in err.value.diagnostics)


def test_run_size_is_capped_at_load_time():
    # configs are only checked here, never run: at the cap a config builds;
    # one cell more, a 2**32-wide run or an astronomically long one gets
    # one diagnostic naming both fields
    assert MAX_RUN_CELLS < 2 ** 32
    ScenarioConfig(n_resources=MAX_RUN_CELLS, n_ticks=1, stationary_prefix=0)
    ScenarioConfig(n_resources=1, n_ticks=MAX_RUN_CELLS)
    for kwargs in (dict(n_resources=MAX_RUN_CELLS + 1, n_ticks=1,
                        stationary_prefix=0),
                   dict(n_resources=2 ** 32, n_ticks=1, stationary_prefix=0),
                   dict(n_ticks=1e300), dict(n_ticks=1e13, n_resources=1)):
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig(**kwargs)
        assert err.value.diagnostics == [
            f"n_resources * n_ticks must be <= {MAX_RUN_CELLS}, the cells a "
            "run's arrays hold in 4 GiB"]


@pytest.mark.parametrize("kwargs,diagnostic", [
    (dict(requirement_range=5), "requirement_range must be a pair of integers"),
    (dict(initial_requirement_range=None),
     "initial_requirement_range must be a pair of integers"),
    (dict(requirement_range=(1, 45, 90)),
     "requirement_range must be a pair of integers"),
    (dict(requirement_range="ab"),
     "requirement_range must be a pair of integers"),
    # two integer keys: iterating it looks like a pair, but it is not one
    (dict(requirement_range={1: 0, 45: 0}),
     "requirement_range must be a pair of integers"),
    (dict(requirement_range=(1, True)),
     "requirement_range must be a pair of integers"),
    (dict(gap=True), "gap must be a finite number"),
    (dict(rho=False), "rho must be a finite number"),
    (dict(capacity_b=True), "capacity_b must be a finite number when given"),
    (dict(epsilon_per_step=True),
     "epsilon_per_step must be a finite number when given"),
])
def test_malformed_fields_are_named_not_raised(kwargs, diagnostic):
    # a scenario built in code is held to what scenario files are held to:
    # a wrong shape or a boolean is a named diagnostic, never a TypeError
    with pytest.raises(ScenarioValidationError) as err:
        ScenarioConfig(**kwargs)
    assert diagnostic in err.value.diagnostics


def test_numeric_fields_accept_numpy_and_list_values():
    cfg = ScenarioConfig(requirement_range=[1, 45], gap=np.float64(2.5),
                         rho=np.int64(3), capacity_b=np.float32(100.0),
                         initial_requirement_range=(np.int64(2), 38),
                         n_ticks=50.0, master_seed=np.uint64(7))
    canonical = {"requirement_range": (1, 45), "gap": 2.5, "rho": 3.0,
                 "capacity_b": 100.0, "initial_requirement_range": (2, 38),
                 "n_ticks": 50, "master_seed": 7, "n_resources": 20}
    for key, value in canonical.items():
        stored = getattr(cfg, key)
        assert stored == value and type(stored) is type(value), key
        if isinstance(stored, tuple):
            assert all(type(end) is int for end in stored), key


@pytest.mark.parametrize("key", ["rho", "gap", "capacity_b",
                                 "epsilon_per_step"])
def test_int_beyond_float_range_is_named_not_raised(key):
    # float(10**400) raises OverflowError; the config names the field
    with pytest.raises(ScenarioValidationError) as err:
        ScenarioConfig(**{key: 10 ** 400})
    assert any(d.startswith(f"{key} must be a finite number")
               for d in err.value.diagnostics)


def test_numpy_and_list_config_is_hashable_and_saved(tmp_path):
    cfg = ScenarioConfig(requirement_range=[1, 45], capacity_b=np.float32(100),
                         gap=np.float64(2.5), n_resources=np.int64(5))
    plain = ScenarioConfig(requirement_range=(1, 45), capacity_b=100.0,
                           gap=2.5, n_resources=5)
    assert hash(cfg) == hash(plain)
    assert config_digest(cfg) == config_digest(plain)
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_equal_configs_share_a_digest():
    assert ScenarioConfig(gap=4) == ScenarioConfig(gap=4.0)
    assert config_digest(ScenarioConfig(gap=4)) == config_digest(
        ScenarioConfig(gap=4.0))
    assert config_digest(ScenarioConfig(n_ticks=60.0, rho=50)) == \
        config_digest(ScenarioConfig(n_ticks=60, rho=50.0))


def test_every_diagnostic_is_named_type_rules_first():
    with pytest.raises(ScenarioValidationError) as err:
        ScenarioConfig(n_resources="x", gap=True, n_ticks=0)
    # the value rules run only on a well-typed config
    assert err.value.diagnostics == ["n_resources must be an integer",
                                     "gap must be a finite number"]
    with pytest.raises(ScenarioValidationError) as err:
        ScenarioConfig(n_resources=0, gap=-1.0)
    assert err.value.diagnostics == ["n_resources must be >= 1",
                                     "gap must be >= 0"]
