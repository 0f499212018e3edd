"""Allocation policy, trigger and horizon-estimate tests."""

import numpy as np
import pytest

from tests.oracles import grid_capped_simplex, penalized_tracking_objective
from twinalloc.core import AllocationConstraints
from twinalloc.manager import (EventHistory, PolicyKind,
                               allocate_equal, allocate_event, allocate_online,
                               allocate_static, estimate_event_horizon,
                               should_trigger)
from twinalloc.solver import project_capped_simplex


def identity_setup(requested, capacity, lower=None, max_deviation=10.0,
                   rho=1e3):
    requested = np.asarray(requested, dtype=float)
    if lower is None:
        lower = np.maximum(requested - 10.0, 1.0)
    return AllocationConstraints(
        capacity_b=capacity, lower_bounds=lower, requested=requested,
        max_deviation=max_deviation, slack_penalty_rho=rho)


def persistence(requested, steps):
    return np.tile(np.asarray(requested, dtype=float), (steps + 1, 1))


def horizon_cost(points, fc, constraints, N_e=1):
    """Tracking cost against forecast rows 1..N_e plus one slack penalty:
    the event objective, and with N_e=1 the online one."""
    lower = constraints.lower_bounds
    dev_floor = constraints.requested - constraints.max_deviation
    cost = penalized_tracking_objective(
        points, 0.0, lower, dev_floor, constraints.slack_penalty_rho,
        weight=0.0)
    for row in fc[1:N_e + 1]:
        cost = cost + penalized_tracking_objective(points, row, lower,
                                                   dev_floor, 0.0)
    return cost


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
    constraints = identity_setup([5, 7, 3], capacity=20.0)
    fc = persistence([5, 7, 3], 1)
    a = allocate_online(fc, constraints)
    assert np.array_equal(a, [5.0, 7.0, 3.0])
    assert horizon_cost(a, fc, constraints) == 0.0


def test_allocate_online_binding_instance_matches_grid():
    constraints = identity_setup([4, 4], capacity=5.0, lower=[3, 3])
    fc = persistence([4, 4], 1)
    a = allocate_online(fc, constraints)
    assert np.allclose(a, [2.5, 2.5], atol=1e-6)
    objective = horizon_cost(a, fc, constraints)
    assert objective == pytest.approx(504.5, abs=1e-6)
    grid = grid_capped_simplex(2, 5.0, 0.01)
    dev_floor = constraints.requested - constraints.max_deviation
    best = float(np.min(penalized_tracking_objective(
        grid, np.array([4.0, 4.0]), constraints.lower_bounds, dev_floor,
        rho=1e3)))
    assert objective <= best + 1e-2


def test_allocate_online_zero_penalty_is_projection():
    rng = np.random.default_rng(59)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        requested = rng.integers(5, 30, n).astype(float)
        constraints = identity_setup(
            requested, capacity=float(requested.sum() * 0.7), rho=0.0)
        a = allocate_online(persistence(requested, 1), constraints)
        expect = project_capped_simplex(requested, np.zeros(n),
                                        constraints.capacity_b)
        assert np.allclose(a, expect, atol=1e-6)


def test_allocate_online_input_validation():
    constraints = identity_setup([5, 5], capacity=20.0)
    good = persistence([5, 5], 1)
    with pytest.raises(ValueError):
        allocate_online(good[:, :1], constraints)
    with pytest.raises(ValueError):
        allocate_online(good[:1], constraints)
    with pytest.raises(ValueError):
        allocate_online(good * np.nan, constraints)


def test_policies_reject_a_one_dimensional_forecast():
    # a forecast is (steps, n) with row 0 the current report; a bare report
    # vector is refused by its shape, not lifted to one row
    constraints = identity_setup([5, 5], capacity=20.0)
    flat = np.array([5.0, 5.0])
    with pytest.raises(ValueError, match=r"\(steps, n\) array"):
        allocate_online(flat, constraints)
    for N_e in (1, 3):
        with pytest.raises(ValueError, match=r"\(steps, n\) array"):
            allocate_event(flat, constraints, N_e)


def test_allocate_event_single_step_equals_online():
    constraints = identity_setup([9, 6], capacity=11.0, lower=[2, 2])
    fc = persistence([9, 6], 1)
    assert np.array_equal(allocate_event(fc, constraints, N_e=1),
                          allocate_online(fc, constraints))


def test_allocate_event_tracks_window_mean():
    constraints = identity_setup([4, 8], capacity=20.0, lower=[1, 1])
    fc = np.array([[4.0, 8.0], [2.0, 4.0], [4.0, 8.0]])
    a = allocate_event(fc, constraints, N_e=2)
    assert np.array_equal(a, [3.0, 6.0])
    # honest cost at the mean: the two tracking stages do not vanish
    expect = (1.0 + 4.0) + (1.0 + 4.0)
    assert horizon_cost(a, fc, constraints, N_e=2) == pytest.approx(expect)


def test_allocate_event_binding_instance_matches_grid():
    constraints = identity_setup(
        [6, 6], capacity=5.0, lower=[3, 3], max_deviation=2.0)
    fc = np.array([[6.0, 6.0], [4.0, 4.0], [6.0, 6.0]])
    a = allocate_event(fc, constraints, N_e=2)
    grid = grid_capped_simplex(2, 5.0, 0.01)
    track = (np.sum((grid - fc[1]) ** 2, axis=1)
             + np.sum((grid - fc[2]) ** 2, axis=1))
    low = np.sum(np.maximum(constraints.lower_bounds - grid, 0.0) ** 2, axis=1)
    dev_floor = constraints.requested - constraints.max_deviation
    dev = np.sum(np.maximum(dev_floor - grid, 0.0) ** 2, axis=1)
    best = float(np.min(track + 1e3 * (low + dev)))
    assert horizon_cost(a, fc, constraints, N_e=2) <= best + 1e-2


def test_all_policies_respect_hard_constraints():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n = int(rng.integers(2, 7))
        requested = rng.integers(1, 41, n).astype(float)
        capacity = float(max(requested.sum() * 0.6, 1.0))
        constraints = identity_setup(requested, capacity)
        fc = persistence(requested, 3)
        allocations = [
            allocate_equal(n, capacity),
            allocate_static(requested, capacity),
            allocate_online(fc[:2], constraints),
            allocate_event(fc, constraints, N_e=3),
        ]
        for a in allocations:
            assert np.all(a >= -1e-12)
            assert a.sum() <= capacity + 1e-9


def test_estimate_event_horizon():
    def hist(ticks, window_m=5):
        return EventHistory(event_ticks=list(ticks), window_m=window_m)

    assert estimate_event_horizon(hist([])) == 10
    assert estimate_event_horizon(hist([4])) == 10
    assert estimate_event_horizon(hist([5, 9, 12], window_m=3)) == 2
    assert estimate_event_horizon(hist([0, 10])) == 5
    assert estimate_event_horizon(hist([3, 4])) == 1
    assert estimate_event_horizon(
        hist([0, 10, 30, 32, 34, 36], window_m=3)) == 1


def test_event_history_validation():
    with pytest.raises(ValueError):
        EventHistory(event_ticks=[3, 3])
    with pytest.raises(ValueError):
        EventHistory(window_m=0)
    history = EventHistory()
    history.record(4)
    history.record(9)
    assert history.event_ticks == [4, 9]
    with pytest.raises(ValueError):
        history.record(9)


def test_should_trigger():
    eps = np.array([1.0, 1.0])
    assert not should_trigger(np.array([0.5, -0.5]), eps, 3)

    blown = np.array([0.5, 10.0])        # one twin over budget fires
    assert should_trigger(blown, eps, 3)
    assert should_trigger(blown, eps, 1)      # T=0 budget is one epsilon
    assert not should_trigger(blown, eps, 0)  # same tick as the event: never
    assert should_trigger(np.zeros(0), np.zeros(0), 25)  # period cap fires
    assert not should_trigger(np.array([3.0]), np.array([1.0]), 3)  # boundary

