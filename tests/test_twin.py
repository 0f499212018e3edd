"""Digital twin requirement, control and regret tests."""

from math import ceil

import numpy as np
import pytest

from tests.oracles import step_control_reference
from twinalloc.solver import (BoxSet, PGAConfig, SmoothConvexProblem,
                              iterations_for_delta, pga_solve)
from twinalloc.twin import (DEFAULT_EPSILON_FACTOR, DigitalTwin,
                            PerformanceSample, check_satisfaction,
                            compute_requirement, forecast_requirements,
                            regret_budgets, step_control, update_regret)

# closed form against the clamped loop: 1.4e-14 at most over 72k random cases
STEP_TOL = 1e-12


def make_twin(**kwargs):
    return DigitalTwin(0, **kwargs)


def test_constructor_validation():
    with pytest.raises(ValueError):
        DigitalTwin(0, box_low=5.0, box_high=5.0)
    with pytest.raises(ValueError):
        DigitalTwin(0, curvature=0.0)
    with pytest.raises(ValueError):
        DigitalTwin(0, curvature=2.0, step_alpha=0.6)


def test_requirement_from_tolerance():
    k_prime, k_lower = compute_requirement(np.array([20, 25]), 10.0)
    assert k_prime.tolist() == [20.0, 25.0]
    assert k_lower.tolist() == [10.0, 15.0]


def test_requirement_floor_at_one():
    k_prime, k_lower = compute_requirement(np.array([8, 1, 11]), 10.0)
    assert k_prime.tolist() == [8.0, 1.0, 11.0]
    assert k_lower.tolist() == [1.0, 1.0, 1.0]


def test_requirement_floor_matches_scalar_expression():
    # the array floor against the per-twin expression it replaced
    ks = np.arange(1, 10_001)
    for gap in (0.0, 0.5, 4.0, 10.0, 10.5, 1e4):
        k_prime, k_lower = compute_requirement(ks, gap)
        assert k_prime.tolist() == ks.tolist()
        assert k_lower.tolist() == [max(int(ceil(k - gap)), 1)
                                    for k in ks.tolist()]


def test_regret_budgets_match_scalar_expression():
    # the default budget against the per-twin expression it replaced:
    # 0.1 x the first task's solve tolerance D^2 / (2 alpha k')
    ks = np.arange(1, 10_001)
    want = [DEFAULT_EPSILON_FACTOR * (10.0 * 10.0 / (2.0 * 0.2 * k))
            for k in ks.tolist()]
    assert regret_budgets(ks, None).tolist() == want


def test_requirement_bridge_is_exact():
    # k' = required_iterations is what the descent certificate returns for
    # the matching tolerance D^2 / (2 alpha k')
    ks = np.arange(1, 10_001)
    assert compute_requirement(ks, 10.0)[0].tolist() == ks.tolist()
    for twin in (make_twin(),
                 DigitalTwin(0, step_alpha=0.3, box_low=-0.7, box_high=2.9)):
        diam = twin.diameter
        for k in ks.tolist():
            delta = diam * diam / (2.0 * twin.step_alpha * k)
            assert iterations_for_delta(diam, twin.step_alpha, delta) == k


def test_box_diameter_matches_box_set():
    for low, high in ((0.0, 10.0), (-0.7, 2.9), (1e-3, 7.3e5), (-3.1, -0.2)):
        twin = DigitalTwin(0, box_low=low, box_high=high)
        assert twin.diameter == BoxSet([low], [high]).diameter()


def test_no_task_yet_raises():
    twin = make_twin()
    with pytest.raises(RuntimeError):
        step_control(twin, 5)
    with pytest.raises(ValueError):
        twin.assign_task(0, 5.0)
    with pytest.raises(TypeError):      # k' is a count; no silent rounding
        twin.assign_task(5.5, 5.0)
    with pytest.raises(RuntimeError):   # a rejected task is not kept
        step_control(twin, 5)
    twin.assign_task(np.int64(5), 5.0)
    assert twin._k_prime == 5 and type(twin._k_prime) is int


def test_assign_task_rejects_target_outside_box():
    # step_control measures against x* = target, which needs target in box
    for low, high in ((0.0, 10.0), (-0.7, 2.9)):
        twin = DigitalTwin(0, box_low=low, box_high=high)
        for bad in (float("nan"), float("inf"), -float("inf"),
                    np.nextafter(low, -np.inf), np.nextafter(high, np.inf)):
            with pytest.raises(ValueError):
                twin.assign_task(5, bad)
        with pytest.raises(RuntimeError):   # a rejected task is not kept
            step_control(twin, 5)
        for edge in (low, high):
            twin.assign_task(5, edge)
            assert step_control(twin, 5).regret_increment == 0.0


def test_single_step_reaches_setpoint():
    # curvature 1 with alpha = 1/L lands on an interior setpoint in one step
    twin = DigitalTwin(0, step_alpha=1.0)
    twin._action = 0.0
    twin.assign_task(1, 3.0)
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
            k_prime = int(5 + 3 * (tick % 4))
            for tw in (twin, exact):
                tw.assign_task(k_prime, targets[tick])
            out = step_control(twin, k_prime - shortfall)
            assert out == step_control(exact, k_prime)
            assert twin.action == exact.action
            assert out.achieved == out.requested_baseline
            assert out.regret_increment == 0.0


def test_over_grant_beats_baseline():
    twin = make_twin()
    twin.assign_task(5, 9.0)
    out = step_control(twin, 9)
    assert out.regret_increment < 0.0


def test_under_grant_trails_baseline():
    twin = make_twin()
    twin.assign_task(9, 9.0)
    out = step_control(twin, 3)
    want = step_control_reference(5.0, 9.0, 9, 3)
    assert (twin.action, out.achieved, out.requested_baseline) == want
    assert out.regret_increment > 0.0


def test_grant_is_floored_and_validated():
    # a fractional grant runs exactly the floor of it, and never less than 1
    for grant, whole in ((0.5, 1), (7.9, 7)):
        twin, floored, ceiled = make_twin(), make_twin(), make_twin()
        for tw in (twin, floored, ceiled):
            tw.assign_task(6, 2.5)
        sample = step_control(twin, grant)
        assert sample == step_control(floored, whole)
        assert sample != step_control(ceiled, whole + 1)
        assert twin.action == floored.action
    with pytest.raises(ValueError):
        step_control(twin, float("inf"))
    with pytest.raises(ValueError):
        step_control(twin, -1.0)


def _assert_matches_reference(twin, out, want):
    np.testing.assert_allclose(
        (twin.action, out.achieved, out.requested_baseline), want, rtol=0,
        atol=STEP_TOL)


def test_step_control_matches_single_loop_reference():
    # the closed form against the single loop that records the iterates at
    # steps g and k' as it passes them; they round differently, so within
    # STEP_TOL, except that g == k' must meet the baseline exactly
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
                twin.assign_task(k_prime, c)
                out = step_control(twin, grant)
                want = step_control_reference(x0, c, k_prime, grant, lo, hi,
                                              kappa, alpha)
                _assert_matches_reference(twin, out, want)
                side = np.sign(max(int(np.floor(grant + 1e-9)), 1) - k_prime)
                if side == 0:   # criterion 6 needs zero regret, not small
                    assert out.achieved == out.requested_baseline
                seen.add(side)
    assert seen == {-1, 0, 1}

    # a chain of ticks, each starting from the previous tick's action
    twin = make_twin()
    x = twin.action
    for tick in range(50):
        k_prime = int(rng.integers(1, 46))
        c = 0.0 if tick % 7 == 0 else float(rng.uniform(0.0, 10.0))
        grant = float(rng.uniform(0, 50))
        twin.assign_task(k_prime, c)
        out = step_control(twin, grant)
        want = step_control_reference(x, c, k_prime, grant)
        _assert_matches_reference(twin, out, want)
        x = want[0]


def test_reference_descent_never_needs_its_clamp():
    # the closed form's premise: with x0 and c in the box and
    # 0 < alpha * kappa <= 1, each step x - alpha * kappa * (x - c) is a
    # convex combination of x and c. In floating point the iterates stay
    # exactly between x0 and c while alpha * kappa <= 1 - 3u (u = 2**-53); at
    # alpha * kappa == 1 a step can round past c by under 3 ulps of the box
    # bound, where the closed form (q = 0) lands on c exactly
    rng = np.random.default_rng(7)
    for lo, hi in ((0.0, 10.0), (-0.7, 2.9), (-3.1, -0.2), (1e-3, 7.3e5)):
        ulps = 3 * np.spacing(max(abs(lo), abs(hi)))
        for alpha, kappa in ((0.2, 1.0), (0.3, 1.0), (0.999, 1.0),
                             (1e-3, 1.0), (0.5, 2.0), (1.0, 1.0)):
            ak = alpha * kappa
            slack = ulps if ak == 1.0 else 0.0
            for case in range(200):
                x0 = (lo, hi)[case % 2] if case < 4 else rng.uniform(lo, hi)
                c = ((lo, hi)[case // 2 % 2] if case % 3
                     else rng.uniform(lo, hi))
                x0, c = float(x0), float(c)
                x = x0
                for _ in range(60):
                    x = x - ak * (x - c)    # the reference step, no clamp
                    assert min(x0, c) - slack <= x <= max(x0, c) + slack
                action = step_control_reference(x0, c, 60, 60, lo, hi, kappa,
                                                alpha)[0]
                if ak < 1.0:
                    assert action == x      # its clamp never fired
                    continue
                twin = DigitalTwin(0, step_alpha=alpha, curvature=kappa,
                                   box_low=lo, box_high=hi)
                twin._action = x0
                twin.assign_task(1, c)
                step_control(twin, 1)
                assert twin.action == c


def test_huge_grant_lands_on_target():
    # O(1) in the grant: 1e15 steps reach the setpoint, and regret is the
    # whole baseline; a twin run as a loop of steps would not return
    twin = make_twin()
    for tick, c in enumerate((7.3, 0.0, 10.0, 2.5)):
        twin.assign_task(9, c)
        out = step_control(twin, 1e15)
        assert twin.action == c
        assert out.achieved == 0.0
        assert out.regret_increment == -out.requested_baseline


def test_action_stays_in_box_and_gap_nonnegative():
    twin = make_twin()
    rng = np.random.default_rng(9)
    targets = np.random.default_rng(123)
    for tick in range(60):
        twin.assign_task(int(rng.integers(1, 40)),
                         targets.uniform(0.0, 10.0))
        out = step_control(twin, float(rng.uniform(0, 50)))
        assert 0.0 <= twin.action <= 10.0
        assert out.achieved >= -1e-12
        assert out.requested_baseline >= -1e-12

    # a step so small that q = 1 - alpha * kappa rounds to 1: c + (x - c)
    # can round past a box end, and the clamp must hold the action inside
    for x0 in (-0.7, 2.9):
        for c in np.random.default_rng(5).uniform(-0.7, 2.9, 200):
            twin = DigitalTwin(0, step_alpha=1e-20, box_low=-0.7,
                               box_high=2.9)
            twin._action = x0
            twin.assign_task(3, float(c))
            step_control(twin, 3)
            assert -0.7 <= twin.action <= 2.9


def test_step_control_agrees_with_generic_solver():
    # the twin's closed form and the generic projected descent must land on
    # the same iterate when given identical iteration budgets
    twin = make_twin()
    twin.assign_task(30, 7.25)
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
    regret = np.zeros(2)
    for achieved in ([1.0, 2.0], [-0.5, 0.0], [0.5, -3.0]):
        out = update_regret(regret, [PerformanceSample(a, 0.0)
                                     for a in achieved])
        assert out is regret                        # in place
    assert regret.tolist() == [1.0, -1.0]
    update_regret(regret, [PerformanceSample(0.25, 1.0),
                           PerformanceSample(1.0, 0.25)])
    assert regret.tolist() == [0.25, -0.25]         # achieved - baseline


def test_regret_telescopes():
    rng = np.random.default_rng(31)
    regret = np.zeros(3)
    totals = [0.0] * 3
    for t in range(200):
        achieved = rng.uniform(0, 4, 3).tolist()
        baseline = rng.uniform(0, 4, 3).tolist()
        update_regret(regret, [PerformanceSample(a, b)
                               for a, b in zip(achieved, baseline)])
        totals = [r + (a - b) for r, a, b in zip(totals, achieved, baseline)]
    assert regret.tolist() == totals


def test_over_granted_twin_never_builds_positive_regret():
    twin = make_twin()
    regret = np.zeros(1)
    rng = np.random.default_rng(77)
    targets = np.random.default_rng(123)
    for tick in range(40):
        k_prime = int(rng.integers(1, 30))
        twin.assign_task(k_prime, targets.uniform(0.0, 10.0))
        update_regret(regret, [step_control(twin, k_prime + 5)])
        assert regret[0] <= 0.0


def test_check_satisfaction_budget():
    eps = np.array([1.0])
    assert check_satisfaction(np.array([0.0]), eps, 0)
    assert not check_satisfaction(np.array([5.0]), eps, 2)    # budget 3
    assert check_satisfaction(np.array([3.0]), eps, 2)  # boundary satisfies
    assert not check_satisfaction(np.array([-5.0]), eps, 2)   # magnitude
    assert check_satisfaction(np.array([-3.0]), eps, 2)       # not sign
    # each twin against its own budget: 3.0 is inside 3 x 1.0, not 3 x 0.5
    assert check_satisfaction(np.array([3.0, 1.5]), np.array([1.0, 0.5]), 2)
    assert not check_satisfaction(np.array([1.5, 3.0]),
                                  np.array([1.0, 0.5]), 2)
    assert check_satisfaction(np.array([0.0]), eps, 0) is True
    with pytest.raises(ValueError):
        check_satisfaction(np.array([0.0]), eps, -1)


def test_forecast_is_persistence():
    k_prime = np.array([20.0, 7.0])
    assert np.array_equal(forecast_requirements(k_prime, 1),
                          [[20.0, 7.0], [20.0, 7.0]])
    assert np.array_equal(forecast_requirements(k_prime, 5),
                          np.tile(k_prime, (6, 1)))
    with pytest.raises(ValueError):
        forecast_requirements(k_prime, 0)


def test_epsilon_defaults_to_initial_tolerance_fraction():
    first = np.array([10, 40])
    delta0 = 10.0 * 10.0 / (2.0 * DigitalTwin(0).step_alpha * first)
    assert regret_budgets(first, None) == pytest.approx(
        DEFAULT_EPSILON_FACTOR * delta0)
    assert regret_budgets(first, 0.7).tolist() == [0.7, 0.7]
