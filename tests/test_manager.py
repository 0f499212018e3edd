"""Allocation policy, trigger and horizon-estimate tests."""

import numpy as np
import pytest

from tests.oracles import (forecast_solve_inputs, grid_capped_simplex,
                           penalized_tracking_objective)
from twinalloc.core import AllocationConstraints
from twinalloc.manager import (DEFAULT_MAX_REALLOCATION_PERIOD, PolicyKind,
                               allocate_equal, allocate_event, allocate_online,
                               allocate_static, estimate_event_horizon,
                               should_trigger)
from twinalloc.solver import hinge_quadratic_solve, project_capped_simplex


def identity_setup(requested, capacity, lower=None, max_deviation=10.0,
                   rho=1e3):
    """The floors (by default the engine's gap floors) and run constants."""
    requested = np.asarray(requested, dtype=float)
    if lower is None:
        lower = np.maximum(requested - 10.0, 1.0)
    return np.asarray(lower, dtype=float), AllocationConstraints(
        capacity_b=capacity, max_deviation=max_deviation,
        slack_penalty_rho=rho)


def horizon_cost(points, requested, lower, constraints, N_e=1):
    """N_e tracking stages against the persistence forecast, the request
    itself, plus one slack penalty: the event objective, and with N_e=1 the
    online one."""
    requested = np.asarray(requested, dtype=float)
    dev_floor = requested - constraints.max_deviation
    return (penalized_tracking_objective(
                points, 0.0, lower, dev_floor, constraints.slack_penalty_rho,
                weight=0.0)
            + N_e * penalized_tracking_objective(points, requested, lower,
                                                 dev_floor, 0.0))


def test_policy_tokens():
    assert [p.value for p in PolicyKind] == ["equal", "static", "event",
                                             "online"]


def test_allocate_equal():
    assert np.array_equal(allocate_equal(20, 200.0), np.full(20, 10.0))
    assert np.array_equal(allocate_equal(4, 2.0), np.full(4, 0.5))
    with pytest.raises(ValueError):
        allocate_equal(0, 10.0)
    with pytest.raises(ValueError):
        allocate_equal(3, 0.0)


def test_allocate_static_feasible_requests_pass_through():
    a = allocate_static([5.0, 7.0, 3.0], 20.0)
    assert np.array_equal(a, [5.0, 7.0, 3.0])


def test_allocate_static_is_projection():
    a = allocate_static([4.0, 4.0], 6.0)
    assert np.allclose(a, [3.0, 3.0])
    assert penalized_tracking_objective(a, [4.0, 4.0], 0.0, 0.0,
                                        rho=0.0) == pytest.approx(2.0)

    rng = np.random.default_rng(53)
    grid = grid_capped_simplex(2, 4.0, 0.05)
    for _ in range(10):
        r_bar = rng.uniform(0, 3, 2) + rng.uniform(0, 3, 2)
        a = allocate_static(r_bar, 4.0)
        assert np.array_equal(
            a, project_capped_simplex(r_bar, np.zeros(2), 4.0))
        best = float(np.min(np.sum((grid - r_bar) ** 2, axis=1)))
        assert penalized_tracking_objective(a, r_bar, 0.0, 0.0,
                                            rho=0.0) <= best + 1e-2


def test_allocate_online_grants_feasible_requests_exactly():
    lower, constraints = identity_setup([5, 7, 3], capacity=20.0)
    requested = np.array([5.0, 7.0, 3.0])
    a = allocate_online(requested, lower, constraints)
    assert np.array_equal(a, [5.0, 7.0, 3.0])
    assert horizon_cost(a, requested, lower, constraints) == 0.0


def test_allocate_online_binding_instance_matches_grid():
    lower, constraints = identity_setup([4, 4], capacity=5.0, lower=[3, 3])
    requested = np.array([4.0, 4.0])
    a = allocate_online(requested, lower, constraints)
    assert np.allclose(a, [2.5, 2.5], atol=1e-6)
    objective = horizon_cost(a, requested, lower, constraints)
    assert objective == pytest.approx(504.5, abs=1e-6)
    grid = grid_capped_simplex(2, 5.0, 0.01)
    dev_floor = requested - constraints.max_deviation
    best = float(np.min(penalized_tracking_objective(
        grid, requested, lower, dev_floor, rho=1e3)))
    assert objective <= best + 1e-2


def test_allocate_online_zero_penalty_is_projection():
    rng = np.random.default_rng(59)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        requested = rng.integers(5, 30, n).astype(float)
        lower, constraints = identity_setup(
            requested, capacity=float(requested.sum() * 0.7), rho=0.0)
        a = allocate_online(requested, lower, constraints)
        expect = project_capped_simplex(requested, np.zeros(n),
                                        constraints.capacity_b)
        assert np.allclose(a, expect, atol=1e-6)


def test_allocate_online_input_validation():
    lower, constraints = identity_setup([5, 5], capacity=20.0)
    good = np.array([5.0, 5.0])
    with pytest.raises(ValueError):
        allocate_online(good[:1], lower, constraints)
    with pytest.raises(ValueError):
        allocate_online(good * np.nan, lower, constraints)
    with pytest.raises(ValueError):
        allocate_online(good, lower[:1], constraints)
    with pytest.raises(ValueError):
        allocate_online(good, lower[:, None], constraints)


def test_policies_reject_malformed_reports():
    # the reports are one vector shaped like the floors, all finite; a
    # (steps, n) forecast is refused by its shape, not read row by row
    lower, constraints = identity_setup([5, 5], capacity=20.0)
    bad = {"a (steps, n) forecast": np.array([[5.0, 5.0], [5.0, 5.0]]),
           "a scalar": np.array(5.0),
           "too short": np.array([5.0]),
           "infinite": np.array([5.0, np.inf]),
           "NaN": np.array([np.nan, 5.0])}
    for k_prime in bad.values():
        with pytest.raises(ValueError, match="finite vector"):
            allocate_online(k_prime, lower, constraints)
        for N_e in (1, 3):
            with pytest.raises(ValueError, match="finite vector"):
                allocate_event(k_prime, lower, constraints, N_e)
    with pytest.raises(ValueError, match="N_e"):
        allocate_event(np.array([5.0, 5.0]), lower, constraints, 0)


def test_allocate_event_single_step_equals_online():
    lower, constraints = identity_setup([9, 6], capacity=11.0, lower=[2, 2])
    requested = np.array([9.0, 6.0])
    assert (allocate_event(requested, lower, constraints, N_e=1).tobytes()
            == allocate_online(requested, lower, constraints).tobytes())


def test_allocate_event_tracks_the_reports():
    # inside the budget the held allocation is the reports, whatever N_e
    lower, constraints = identity_setup([4, 8], capacity=20.0, lower=[1, 1])
    requested = np.array([4.0, 8.0])
    for N_e in (1, 2, 7):
        a = allocate_event(requested, lower, constraints, N_e)
        assert np.array_equal(a, requested)
        assert horizon_cost(a, requested, lower, constraints, N_e) == 0.0
    # over budget, N_e tracking stages outweigh the once-counted penalty
    # more as N_e grows, so the shortfall below the floors grows with it
    lower, constraints = identity_setup([9, 1], capacity=6.0, lower=[1, 1],
                                        rho=40.0)
    shortfall = [float(np.maximum(lower - allocate_event(
        np.array([9.0, 1.0]), lower, constraints, N_e), 0.0).sum())
        for N_e in (1, 4, 16)]
    assert 0.0 < shortfall[0] < shortfall[1] < shortfall[2]


def test_allocate_event_binding_instance_matches_grid():
    lower, constraints = identity_setup(
        [6, 6], capacity=5.0, lower=[3, 3], max_deviation=2.0)
    requested = np.array([6.0, 6.0])
    a = allocate_event(requested, lower, constraints, N_e=2)
    grid = grid_capped_simplex(2, 5.0, 0.01)
    track = 2.0 * np.sum((grid - requested) ** 2, axis=1)
    low = np.sum(np.maximum(lower - grid, 0.0) ** 2, axis=1)
    dev_floor = requested - constraints.max_deviation
    dev = np.sum(np.maximum(dev_floor - grid, 0.0) ** 2, axis=1)
    best = float(np.min(track + 1e3 * (low + dev)))
    assert horizon_cost(a, requested, lower, constraints, N_e=2) <= best + 1e-2


@pytest.mark.parametrize("n", [1, 2, 20, 300])
def test_policies_match_the_forecast_formulation(n):
    # posed on k' itself, the solves give the bytes of the persistence
    # forecast's tile and row mean while N_e k' < 2**53
    rng = np.random.default_rng(4000 + n)
    for trial in range(100):
        N_e = trial % 25 + 1
        high = (46, 2 ** 20, 2 ** 40)[trial % 3]
        k_prime = rng.integers(1, high, n).astype(float)
        lower = np.maximum(np.ceil(k_prime - 10.0), 1.0)
        capacity = float(k_prime.sum() * rng.uniform(0.3, 1.2))
        rho = (1e3, 1.0, 0.0)[trial % 3]
        constraints = AllocationConstraints(capacity, 10.0, rho)
        online = allocate_online(k_prime, lower, constraints)
        event = allocate_event(k_prime, lower, constraints, N_e)
        for got, steps in ((online, 1), (event, N_e)):
            want, _ = hinge_quadratic_solve(*forecast_solve_inputs(
                k_prime, lower, 10.0, rho, capacity, steps))
            assert np.array_equal(got, want), (trial, steps)
        assert (allocate_event(k_prime, lower, constraints, 1).tobytes()
                == online.tobytes())


def test_event_tracks_k_prime_where_the_row_mean_rounded():
    # near 2**62 (float spacing 1024) the mean of 6 rows of this k' rounds
    # to k' - 1024; the event solve now tracks k' itself
    k_prime = np.array([2.0 ** 62 + 2048.0])
    lower = np.ones(1)
    constraints = AllocationConstraints(2.0 ** 64, 10.0, 0.0)
    target = forecast_solve_inputs(k_prime, lower, 10.0, 0.0,
                                   constraints.capacity_b, 6)[0]
    assert target[0] == k_prime[0] - 1024.0
    assert np.array_equal(allocate_event(k_prime, lower, constraints, 6),
                          k_prime)


def test_all_policies_respect_hard_constraints():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n = int(rng.integers(2, 7))
        requested = rng.integers(1, 41, n).astype(float)
        capacity = float(max(requested.sum() * 0.6, 1.0))
        lower, constraints = identity_setup(requested, capacity)
        allocations = [
            allocate_equal(n, capacity),
            allocate_static(requested, capacity),
            allocate_online(requested, lower, constraints),
            allocate_event(requested, lower, constraints, N_e=3),
        ]
        for a in allocations:
            assert np.all(a >= -1e-12)
            assert a.sum() <= capacity + 1e-9


def test_estimate_event_horizon():
    assert estimate_event_horizon([]) == 10
    assert estimate_event_horizon([4]) == 10
    assert estimate_event_horizon([0, 10]) == 5
    assert estimate_event_horizon([3, 4]) == 1
    assert estimate_event_horizon((5, 9, 12)) == 2        # any sequence
    # only the last five ticks count: (36 - 28) // 5, where all six would
    # give (36 - 0) // 6 = 6
    assert estimate_event_horizon([0, 28, 30, 32, 34, 36]) == 1
    # (80 - 40) // 5 = 8; the first five would give 4
    assert estimate_event_horizon([0, 5, 10, 15, 20, 40, 50, 60, 70, 80]) == 8
    # floored, not rounded: 23 // 5 = 4 (4.6), and 64 // 5 = 12 (12.8)
    assert estimate_event_horizon([1, 2, 10, 14, 20, 25]) == 4
    assert estimate_event_horizon([0, 1, 2, 30, 50, 65]) == 12


def test_estimate_event_horizon_matches_float_floor():
    # integer division against the float floor it replaced, over every
    # window of one ascending tick list
    ticks = np.cumsum(np.random.default_rng(4).integers(1, 60, 400)).tolist()
    for end in range(len(ticks) + 1):
        got = estimate_event_horizon(ticks[:end])
        if end < 2:
            assert got == 10
            continue
        recent = ticks[max(end - 5, 0):end]
        want = max(int(np.floor((recent[-1] - recent[0]) / len(recent))), 1)
        assert got == want and type(got) is int


def test_should_trigger():
    eps = np.array([1.0, 1.0])
    assert not should_trigger(np.array([0.5, -0.5]), eps, 3)

    blown = np.array([0.5, 10.0])        # one twin over budget fires
    assert should_trigger(blown, eps, 3)
    assert should_trigger(blown, eps, 1)      # T=0 budget is one epsilon
    assert not should_trigger(blown, eps, 0)  # same tick as the event: never
    assert should_trigger(np.zeros(0), np.zeros(0), 25)  # period cap fires
    assert DEFAULT_MAX_REALLOCATION_PERIOD == 25
    assert should_trigger(np.zeros(1), np.ones(1), 26)
    assert not should_trigger(np.zeros(1), np.ones(1), 24)
    assert not should_trigger(np.array([3.0]), np.array([1.0]), 3)  # boundary

