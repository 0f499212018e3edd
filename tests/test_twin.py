"""Digital twin requirement, control and regret tests."""

import numpy as np
import pytest

from tests.oracles import step_control_reference
from twinalloc.solver import (BoxSet, PGAConfig, SmoothConvexProblem,
                              iterations_for_delta, pga_solve)
from twinalloc.twin import (DEFAULT_EPSILON_FACTOR, DigitalTwin,
                            PerformanceSample, RegretTracker,
                            check_satisfaction, compute_requirement,
                            forecast_requirements, step_control, update_regret)


def make_twin(**kwargs):
    return DigitalTwin(0, **kwargs)


def test_constructor_validation():
    with pytest.raises(ValueError):
        DigitalTwin(0, requirement_gap=-1.0)
    with pytest.raises(ValueError):
        DigitalTwin(0, box_low=5.0, box_high=5.0)
    with pytest.raises(ValueError):
        DigitalTwin(0, curvature=0.0)
    with pytest.raises(ValueError):
        DigitalTwin(0, curvature=2.0, step_alpha=0.6)


def test_requirement_from_tolerance():
    twin = DigitalTwin(0, requirement_gap=10.0, step_alpha=0.1, box_low=0.0,
                       box_high=2.0)
    twin.assign_task(0, 20, 1.0)
    assert compute_requirement(twin) == (20, 10)


def test_requirement_floor_at_one():
    twin = make_twin()
    twin.assign_task(0, 8, 5.0)
    k_prime, k_lower = compute_requirement(twin)
    assert k_prime == 8
    assert k_lower == 1


def test_requirement_bridge_is_exact():
    # k' = required_iterations is what the descent certificate returns for
    # the matching tolerance D^2 / (2 alpha k')
    for twin in (make_twin(),
                 DigitalTwin(0, step_alpha=0.3, box_low=-0.7, box_high=2.9)):
        diam = twin.diameter
        for k in range(1, 10_001):
            twin.assign_task(k, k, twin.box_low)
            delta = diam * diam / (2.0 * twin.step_alpha * k)
            assert compute_requirement(twin)[0] == k
            assert iterations_for_delta(diam, twin.step_alpha, delta) == k


def test_box_diameter_matches_box_set():
    for low, high in ((0.0, 10.0), (-0.7, 2.9), (1e-3, 7.3e5), (-3.1, -0.2)):
        twin = DigitalTwin(0, box_low=low, box_high=high)
        assert twin.diameter == BoxSet([low], [high]).diameter()


def test_no_task_yet_raises():
    twin = make_twin()
    with pytest.raises(RuntimeError):
        compute_requirement(twin)
    with pytest.raises(RuntimeError):
        step_control(twin, 5)
    with pytest.raises(ValueError):
        twin.assign_task(0, 0, 5.0)
    with pytest.raises(TypeError):      # k' drives range(); no silent rounding
        twin.assign_task(0, 5.5, 5.0)
    twin.assign_task(0, np.int64(5), 5.0)
    assert compute_requirement(twin) == (5, 1)


def test_assign_task_rejects_target_outside_box():
    # step_control measures against x* = target, which needs target in box
    for low, high in ((0.0, 10.0), (-0.7, 2.9)):
        twin = DigitalTwin(0, box_low=low, box_high=high)
        for bad in (float("nan"), float("inf"), -float("inf"),
                    np.nextafter(low, -np.inf), np.nextafter(high, np.inf)):
            with pytest.raises(ValueError):
                twin.assign_task(0, 5, bad)
        with pytest.raises(RuntimeError):   # a rejected task is not kept
            step_control(twin, 5)
        for edge in (low, high):
            twin.assign_task(0, 5, edge)
            assert step_control(twin, 5).regret_increment == 0.0


def test_single_step_reaches_setpoint():
    # curvature 1 with alpha = 1/L lands on an interior setpoint in one step
    twin = DigitalTwin(0, step_alpha=1.0)
    twin._action = 0.0
    twin.assign_task(0, 1, 3.0)
    out = step_control(twin, 1)
    want = step_control_reference(0.0, 3.0, 1, 1, alpha=1.0)
    assert (twin.action, out.achieved, out.requested_baseline) == want
    assert twin.action == 3.0
    assert out.achieved == 0.0
    assert out.regret_increment == 0.0


def test_full_grant_meets_baseline_exactly():
    # a grant a rounding error below k' is the full grant
    for shortfall in (0.0, 1e-12):
        twin, exact = make_twin(), make_twin()
        targets = np.random.default_rng(123).uniform(0.0, 10.0, 12)
        for tick in range(12):
            for tw in (twin, exact):
                tw.assign_task(tick, int(5 + 3 * (tick % 4)), targets[tick])
            k_prime, _ = compute_requirement(twin)
            out = step_control(twin, k_prime - shortfall)
            assert out == step_control(exact, k_prime)
            assert twin.action == exact.action
            assert out.achieved == out.requested_baseline
            assert out.regret_increment == 0.0


def test_over_grant_beats_baseline():
    twin = make_twin()
    twin.assign_task(0, 5, 9.0)
    out = step_control(twin, 9)
    assert out.regret_increment < 0.0


def test_under_grant_trails_baseline():
    twin = make_twin()
    twin.assign_task(0, 9, 9.0)
    out = step_control(twin, 3)
    want = step_control_reference(5.0, 9.0, 9, 3)
    assert (twin.action, out.achieved, out.requested_baseline) == want
    assert out.regret_increment > 0.0


def test_grant_is_floored_and_validated():
    # a fractional grant runs exactly the floor of it, and never less than 1
    for grant, whole in ((0.5, 1), (7.9, 7)):
        twin, floored, ceiled = make_twin(), make_twin(), make_twin()
        for tw in (twin, floored, ceiled):
            tw.assign_task(0, 6, 2.5)
        sample = step_control(twin, grant)
        assert sample == step_control(floored, whole)
        assert sample != step_control(ceiled, whole + 1)
        assert twin.action == floored.action
    with pytest.raises(ValueError):
        step_control(twin, float("inf"))
    with pytest.raises(ValueError):
        step_control(twin, -1.0)


def test_step_control_matches_single_loop_reference():
    # the two-phase descent against the single loop that records the
    # iterates at steps g and k' as it passes them: exact float equality
    rng = np.random.default_rng(2024)
    boxes = ((dict(), 0.0, 10.0, 1.0, 0.2),
             (dict(step_alpha=0.3, box_low=-0.7, box_high=2.9), -0.7, 2.9,
              1.0, 0.3),
             (dict(step_alpha=0.5, curvature=2.0), 0.0, 10.0, 2.0, 0.5))
    seen = set()
    for kwargs, lo, hi, kappa, alpha in boxes:
        for case in range(400):
            k_prime = int(rng.integers(1, 46))
            x0 = float(rng.uniform(lo, hi))
            c = (lo, hi)[case] if case < 2 else float(rng.uniform(lo, hi))
            for grant in (0, 0.5, 7.9, k_prime - 1e-12, k_prime,
                          k_prime - 1, k_prime + 3,
                          float(rng.uniform(0, 60))):
                twin = DigitalTwin(0, **kwargs)
                twin._action = x0
                twin.assign_task(case, k_prime, c)
                out = step_control(twin, grant)
                want = step_control_reference(x0, c, k_prime, grant, lo, hi,
                                              kappa, alpha)
                assert (twin.action, out.achieved,
                        out.requested_baseline) == want
                assert out.tick == case
                seen.add(np.sign(max(int(np.floor(grant + 1e-9)), 1)
                                 - k_prime))
    assert seen == {-1, 0, 1}

    # a chain of ticks, each starting from the previous tick's action
    twin = make_twin()
    x = twin.action
    for tick in range(50):
        k_prime = int(rng.integers(1, 46))
        c = 0.0 if tick % 7 == 0 else float(rng.uniform(0.0, 10.0))
        grant = float(rng.uniform(0, 50))
        twin.assign_task(tick, k_prime, c)
        out = step_control(twin, grant)
        want = step_control_reference(x, c, k_prime, grant)
        assert (twin.action, out.achieved, out.requested_baseline) == want
        x = want[0]


def test_action_stays_in_box_and_gap_nonnegative():
    twin = make_twin()
    rng = np.random.default_rng(9)
    targets = np.random.default_rng(123)
    for tick in range(60):
        twin.assign_task(tick, int(rng.integers(1, 40)),
                         targets.uniform(0.0, 10.0))
        out = step_control(twin, float(rng.uniform(0, 50)))
        assert 0.0 <= twin.action <= 10.0
        assert out.achieved >= -1e-12
        assert out.requested_baseline >= -1e-12


def test_step_control_agrees_with_generic_solver():
    # the twin's scalar loop and the generic projected descent must walk the
    # same trajectory when given identical iteration budgets
    twin = make_twin()
    twin.assign_task(0, 30, 7.25)
    start = twin.action
    step_control(twin, 13)
    problem = SmoothConvexProblem(
        objective=lambda x: float(0.5 * np.sum((x - 7.25) ** 2)),
        gradient=lambda x: x - 7.25, lipschitz_l=1.0,
        feasible_set=BoxSet([0.0], [10.0]))
    result = pga_solve(problem, [start],
                       PGAConfig(step_alpha=twin.step_alpha,
                                 max_iterations=13, stall_tolerance=0.0))
    assert float(result.x[0]) == twin.action


def test_update_regret_accumulates():
    tracker = RegretTracker(threshold_epsilon_per_step=1.0)
    increments = [1.0, -0.5, 0.5]
    for t, inc in enumerate(increments):
        update_regret(tracker, PerformanceSample(tick=t, achieved=inc,
                                                 requested_baseline=0.0))
    assert tracker.cumulative_regret_R == pytest.approx(1.0)
    stale = PerformanceSample(tick=2, achieved=0.0, requested_baseline=0.0)
    tracker.reset(5)
    assert tracker.cumulative_regret_R == 0.0
    with pytest.raises(ValueError):
        update_regret(tracker, stale)


def test_regret_telescopes():
    rng = np.random.default_rng(31)
    tracker = RegretTracker(threshold_epsilon_per_step=1.0)
    total = 0.0
    for t in range(200):
        achieved = float(rng.uniform(0, 4))
        baseline = float(rng.uniform(0, 4))
        update_regret(tracker, PerformanceSample(t, achieved, baseline))
        total += achieved - baseline
    assert tracker.cumulative_regret_R == total


def test_over_granted_twin_never_builds_positive_regret():
    twin = make_twin()
    tracker = None
    rng = np.random.default_rng(77)
    targets = np.random.default_rng(123)
    for tick in range(40):
        twin.assign_task(tick, int(rng.integers(1, 30)),
                         targets.uniform(0.0, 10.0))
        if tracker is None:
            tracker = twin.make_tracker()
        k_prime, _ = compute_requirement(twin)
        out = step_control(twin, k_prime + 5)
        update_regret(tracker, out)
        assert tracker.cumulative_regret_R <= 0.0


def test_check_satisfaction_budget():
    tracker = RegretTracker(threshold_epsilon_per_step=1.0)
    assert check_satisfaction(tracker, 0)
    tracker.cumulative_regret_R = 5.0
    assert not check_satisfaction(tracker, 2)   # budget 3
    tracker.cumulative_regret_R = 3.0
    assert check_satisfaction(tracker, 2)       # boundary counts as satisfied
    tracker.cumulative_regret_R = -5.0
    assert not check_satisfaction(tracker, 2)   # magnitude, not sign
    with pytest.raises(ValueError):
        check_satisfaction(tracker, -1)
    with pytest.raises(ValueError):
        RegretTracker(threshold_epsilon_per_step=0.0)


def test_forecast_is_persistence():
    twin = make_twin()
    twin.assign_task(0, 20, 5.0)
    assert np.array_equal(forecast_requirements(twin, 1), [20.0, 20.0])
    assert np.array_equal(forecast_requirements(twin, 5), np.full(6, 20.0))
    with pytest.raises(ValueError):
        forecast_requirements(twin, 0)


def test_epsilon_defaults_to_initial_tolerance_fraction():
    twin = make_twin()
    with pytest.raises(RuntimeError):
        _ = twin.epsilon_per_step
    twin.assign_task(0, 10, 5.0)
    delta0 = 10.0 * 10.0 / (2.0 * twin.step_alpha * 10)
    assert twin.epsilon_per_step == pytest.approx(DEFAULT_EPSILON_FACTOR * delta0)
    twin.assign_task(1, 40, 5.0)   # later tasks must not move the budget
    assert twin.epsilon_per_step == pytest.approx(DEFAULT_EPSILON_FACTOR * delta0)

    explicit = make_twin(epsilon_per_step=0.7)
    assert explicit.epsilon_per_step == 0.7
    tracker = explicit.make_tracker(event_tick=4)
    assert tracker.threshold_epsilon_per_step == 0.7
    assert tracker.last_event_tick_tau == 4
