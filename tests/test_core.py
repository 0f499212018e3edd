"""Shared type and residual-metric tests."""

import numpy as np
import pytest

from twinalloc.core import (AllocationConstraints, DimensionMismatch,
                            NetworkState, ScenarioConfig,
                            ScenarioValidationError, allocation_vector,
                            compute_residual, requirement_vector,
                            validate_scenario)


def test_requirement_vector_accepts_and_freezes():
    v = requirement_vector([1, 2, 3])
    assert v.dtype == float
    assert not v.flags.writeable


def test_vector_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        requirement_vector([1.0, -0.5])
    with pytest.raises(ValueError):
        requirement_vector([np.nan, 1.0])
    with pytest.raises(ValueError):
        requirement_vector([])
    with pytest.raises(ValueError):
        allocation_vector([[1.0, 2.0]])


def test_constraints_validation():
    c = AllocationConstraints(capacity_b=10.0, lower_bounds=[1, 2],
                              requested=[5, 6])
    assert c.n == 2
    assert c.max_deviation.shape == (2,)
    with pytest.raises(ValueError):
        AllocationConstraints(capacity_b=10.0, lower_bounds=[7, 2],
                              requested=[5, 6])
    with pytest.raises(ValueError):
        AllocationConstraints(capacity_b=0.0, lower_bounds=[1], requested=[5])
    with pytest.raises(DimensionMismatch):
        AllocationConstraints(capacity_b=10.0, lower_bounds=[1],
                              requested=[5, 6])
    with pytest.raises(ValueError):
        AllocationConstraints(capacity_b=10.0, lower_bounds=[1],
                              requested=[5], max_deviation=-1.0)


def test_network_state():
    s = NetworkState.zeros(4)
    assert s.n == 4 and not s.xi.any()
    with pytest.raises(ValueError):
        NetworkState(np.array([1.0, np.inf]))


def test_residual_examples():
    per, inf = compute_residual([5, 7], [5, 7])
    assert inf == 0.0 and not per.any()
    per, inf = compute_residual([10, 20], [8, 25])
    assert np.array_equal(per, [2.0, -5.0])
    assert inf == 5.0
    with pytest.raises(DimensionMismatch):
        compute_residual([1, 2], [1, 2, 3])


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
    assert validate_scenario(cfg) is cfg
    assert validate_scenario(validate_scenario(cfg)) is cfg


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
])
def test_scenario_invariant_diagnostics(kwargs, needle):
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(ScenarioConfig(**kwargs))
    assert any(needle in d for d in err.value.diagnostics)


def test_scenario_lower_bound_capacity_warning():
    cfg = ScenarioConfig(n_resources=4, capacity_b=10.0)
    tight = np.array([30, 30, 30, 30])
    with pytest.warns(RuntimeWarning):
        validate_scenario(cfg, requirements=tight)
