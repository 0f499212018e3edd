"""Digital twin requirement, control and regret tests."""

import hashlib
import itertools
from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from tests.oracles import step_control_pair, step_control_reference
from twinalloc import twin as twin_module
from twinalloc.solver import (BoxSet, SmoothConvexProblem,
                              iterations_for_delta, pga_solve)
from twinalloc.twin import (DEFAULT_BOX_HIGH, DEFAULT_BOX_LOW,
                            DEFAULT_EPSILON_FACTOR, DEFAULT_TWIN_STEP_ALPHA,
                            DigitalTwin, check_grants, check_satisfaction,
                            compute_requirement, forecast_requirements,
                            regret_budgets, step_bank, step_control,
                            update_regret)

# closed form against the clamped loop: 1.4e-14 at most over 72k random cases
STEP_TOL = 1e-12

LO, HI = DEFAULT_BOX_LOW, DEFAULT_BOX_HIGH


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
    ks = np.arange(1, 20_001)
    assert compute_requirement(ks, 10.0)[0].tolist() == ks.tolist()
    diam, alpha = HI - LO, DEFAULT_TWIN_STEP_ALPHA
    assert diam == BoxSet([LO], [HI]).diameter()
    for k in ks.tolist():
        delta = diam * diam / (2.0 * alpha * k)
        assert iterations_for_delta(diam, alpha, delta) == k


def test_no_task_yet_raises():
    twin = DigitalTwin()
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
    twin = DigitalTwin()
    for bad in (float("nan"), float("inf"), -float("inf"),
                np.nextafter(LO, -np.inf), np.nextafter(HI, np.inf),
                LO - 1.0, HI + 1.0, -1e300, 1e300):
        with pytest.raises(ValueError):
            twin.assign_task(5, bad)
    with pytest.raises(RuntimeError):   # a rejected task is not kept
        step_control(twin, 5)
    for edge in (LO, HI, np.nextafter(LO, np.inf), np.nextafter(HI, -np.inf),
                 0.5 * (LO + HI)):
        twin.assign_task(5, edge)
        assert step_control(twin, 5) == 0.0


def test_full_grant_meets_baseline_exactly():
    # a grant a rounding error below k' is the full grant
    for shortfall in (0.0, 1e-12):
        twin, exact = DigitalTwin(), DigitalTwin()
        targets = np.random.default_rng(123).uniform(0.0, 10.0, 12)
        for tick in range(12):
            k_prime = int(5 + 3 * (tick % 4))
            for tw in (twin, exact):
                tw.assign_task(k_prime, targets[tick])
            out = step_control(twin, k_prime - shortfall)
            assert out == step_control(exact, k_prime)
            assert twin.action == exact.action
            assert out == 0.0   # achieved == baseline, bit for bit


def test_over_grant_beats_baseline():
    twin = DigitalTwin()
    twin.assign_task(5, 9.0)
    out = step_control(twin, 9)
    assert out < 0.0


def test_under_grant_trails_baseline():
    twin = DigitalTwin()
    twin.assign_task(9, 9.0)
    out = step_control(twin, 3)
    action, achieved, baseline = step_control_reference(5.0, 9.0, 9, 3)
    assert (twin.action, out) == (action, achieved - baseline)
    assert out > 0.0


def test_grant_is_floored_and_validated():
    # a fractional grant runs exactly the floor of it, and never less than 1
    for grant, whole in ((0.5, 1), (7.9, 7)):
        twin, floored, ceiled = DigitalTwin(), DigitalTwin(), DigitalTwin()
        for tw in (twin, floored, ceiled):
            tw.assign_task(6, 2.5)
        sample = step_control(twin, grant)
        assert sample == step_control(floored, whole)
        assert sample != step_control(ceiled, whole + 1)
        assert twin.action == floored.action
    for bad in (float("inf"), -1.0, float("nan")):
        with pytest.raises(ValueError):
            step_control(twin, bad)
        # the bank's caller checks a block of grants in one array test
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_grants(np.array([[1.0, 1.0, 1.0], [1.0, bad, 2.0]]))
    assert check_grants([[0.0, 1e300], [0.5, 7.0]]).dtype == float


def _assert_matches_reference(twin, out, want):
    action, achieved, baseline = want
    np.testing.assert_allclose((twin.action, out),
                               (action, achieved - baseline), rtol=0,
                               atol=STEP_TOL)


def test_step_control_matches_single_loop_reference():
    # the closed form against the single loop that records the iterates at
    # steps g and k' as it passes them; they round differently, so within
    # STEP_TOL, except that g == k' must meet the baseline exactly
    rng = np.random.default_rng(2024)
    seen = set()
    cases = 0
    for case in range(1200):
        k_prime = int(rng.integers(1, 46))
        # both ends of the box as start and as setpoint, then random points
        x0 = (LO, HI, LO, HI)[case] if case < 4 else float(rng.uniform(LO, HI))
        c = (LO, HI, HI, LO)[case] if case < 4 else float(rng.uniform(LO, HI))
        for grant in (0, 0.5, 7.9, k_prime - 1e-12, k_prime, k_prime - 1,
                      k_prime + 1, k_prime + 3, 1e3,
                      float(rng.uniform(0, 60))):
            twin = DigitalTwin()
            twin._action = x0
            twin.assign_task(k_prime, c)
            out = step_control(twin, grant)
            want = step_control_reference(x0, c, k_prime, grant)
            _assert_matches_reference(twin, out, want)
            side = np.sign(max(int(np.floor(grant + 1e-9)), 1) - k_prime)
            if side == 0:   # criterion 6 needs zero regret, not small
                assert out == 0.0
            seen.add(side)
            cases += 1
    assert seen == {-1, 0, 1}
    assert cases == 12_000

    # a chain of ticks, each starting from the previous tick's action
    twin = DigitalTwin()
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


def test_increment_equals_pair_form_bit_for_bit():
    # step_control returns achieved - baseline of the pair-returning closed
    # form it replaced, with the same action, exactly; the golden cases pin
    # regret's bits per policy (regret_sha256), and this pins them case by
    # case. step_bank, run on every case as one population, matches
    # step_control exactly
    rng = np.random.default_rng(1010)
    cases = []
    points = [LO, HI, 0.5 * (LO + HI)] + rng.uniform(LO, HI, 13).tolist()
    k_primes = (1, 2, 3, 9, 45, 400, int(rng.integers(1, 400)))
    for x0, c, k_prime in itertools.product(points, points, k_primes):
        for grant in (0, 1e-12, k_prime - 1e-10, k_prime, k_prime + 3, 1e15):
            twin = DigitalTwin()
            twin._action = x0
            twin.assign_task(k_prime, c)
            out = step_control(twin, grant)
            action, achieved, baseline = step_control_pair(x0, c, k_prime,
                                                           grant)
            assert type(out) is float
            assert out == achieved - baseline
            assert twin.action == action
            cases.append((x0, c, k_prime, grant, out, action))
    assert len(cases) == 16 * 16 * 7 * 6
    x0, c, k_prime, grant, out, action = np.array(cases).T
    # the same cases as the first row of a two-row block
    block = step_bank(x0.copy(), np.stack([c, c]), np.stack([k_prime] * 2),
                      np.stack([grant] * 2))
    assert np.array_equal(block[0], out)
    increments = step_bank(x0, c[None], k_prime[None], grant[None])
    assert increments.shape == (1, len(cases))
    assert np.array_equal(increments[0], out)
    assert np.array_equal(x0, action)   # moved in place


def test_squares_are_correctly_rounded_on_both_paths():
    # each gap's square is the exact square rounded once, as d * d gives and
    # libm's pow need not: both paths against Fraction over seeded cases,
    # which include every sampled gap whose d ** 2 != d * d on the platform
    # (glibc's pow misrounds some; none need exist for the test to hold)
    rng = np.random.default_rng(4242)
    n = 20_000
    x0 = rng.uniform(LO, HI, n)
    c = rng.uniform(LO, HI, n)
    k_prime = rng.integers(1, 46, n).astype(float)
    grant = rng.uniform(0, 60, n)
    want, actions = [], []
    for start, target, req, g in zip(x0.tolist(), c.tolist(),
                                     k_prime.tolist(), grant.tolist()):
        granted, requested = DigitalTwin(), DigitalTwin()
        for twin in (granted, requested):
            twin._action = start
            twin.assign_task(int(req), target)
        out = step_control(granted, g)
        step_control(requested, req)   # the requested run: a grant of k'
        d_g, d_r = granted.action - target, requested.action - target
        assert out == (0.5 * float(Fraction(d_g) ** 2)
                       - 0.5 * float(Fraction(d_r) ** 2))
        want.append(out)
        actions.append(granted.action)
    increments = step_bank(x0, c[None], k_prime[None], grant[None])
    assert increments[0].tolist() == want
    assert x0.tolist() == actions   # moved in place


@pytest.mark.parametrize("one_row_grant", [False, True],
                         ids=["grant-per-tick", "held-grant"])
def test_block_equals_one_row_calls_bit_for_bit(one_row_grant):
    # step_bank over a (T, n) block, whose only sequential part is the
    # actions, against T one-row calls chained tick by tick, and against
    # step_control twin by twin: actions, increments and cumulative regret
    # all equal, with grants 0, 0.5, k' - 1, k', k' + 1, 1e15 and 1e300
    # (past the power table's end) and k' up to 400
    rng = np.random.default_rng(1919)
    T, n = 40, 96
    k_prime = rng.integers(1, 401, (T, n)).astype(float)
    k_prime[:, :4] = 400.0
    targets = rng.uniform(LO, HI, (T, n))
    targets[::7, ::5] = LO
    targets[3::7, 1::5] = HI
    if one_row_grant:   # equal and static hold one row for every tick
        grant_rows = np.broadcast_to(rng.choice(
            [0.0, 0.5, 12.0, 399.0, 401.0, 1e15, 1e300], n), (T, n))
    else:
        choice = rng.integers(0, 8, (T, n))
        grant_rows = np.choose(choice, [
            np.zeros((T, n)), np.full((T, n), 0.5), k_prime - 1, k_prime,
            k_prime + 1, np.full((T, n), 1e15), np.full((T, n), 1e300),
            rng.uniform(0, 450, (T, n))])
    start = rng.uniform(LO, HI, n)

    block_actions = start.copy()
    increments = step_bank(block_actions, targets, k_prime, grant_rows)
    assert increments.shape == (T, n)
    regret = np.cumsum(increments, axis=0)

    row_actions, row_regret = start.copy(), np.zeros(n)
    twins = [DigitalTwin() for _ in range(n)]
    for twin, x0 in zip(twins, start.tolist()):
        twin._action = x0
    for t in range(T):
        row = step_bank(row_actions, targets[t:t + 1], k_prime[t:t + 1],
                        grant_rows[t:t + 1])
        assert row.shape == (1, n)
        assert np.array_equal(row[0], increments[t]), t
        update_regret(row_regret, row[0])
        assert np.array_equal(row_regret, regret[t]), t
        for twin, req, c in zip(twins, k_prime[t].tolist(),
                                targets[t].tolist()):
            twin.assign_task(int(req), c)
        assert [step_control(twin, g) for twin, g in zip(
            twins, grant_rows[t].tolist())] == row[0].tolist(), t
        assert [twin.action for twin in twins] == row_actions.tolist(), t
    assert np.array_equal(block_actions, row_actions)
    assert (increments == 0.0).any() and (increments != 0.0).any()


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("field", ["granted", "k_prime"])
def test_block_rejects_a_mismatched_block(field, rows):
    # a grant or k' block whose rows are not the targets' raises, and moves
    # no action: against six target rows every other row count is wrong,
    # one row included, since no block broadcasts
    rng = np.random.default_rng(2020)
    T, n = 6, 50
    args = {"targets": rng.uniform(LO, HI, (T, n)),
            "k_prime": rng.integers(1, 50, (T, n)).astype(float),
            "granted": rng.uniform(0, 50, (T, n))}
    args[field] = args[field][:1].repeat(rows, axis=0)
    actions = rng.uniform(LO, HI, n)
    start = actions.copy()
    with pytest.raises(ValueError):
        step_bank(actions, **args)
    assert np.array_equal(actions, start)


@pytest.mark.parametrize("field", ["granted", "k_prime"])
def test_one_row_block_rejects_a_mismatched_block(field):
    # event's one-row step checks its grant and k' blocks too: three rows
    # for one tick raise, and move no action
    rng = np.random.default_rng(2022)
    n = 5
    args = {"targets": rng.uniform(LO, HI, (1, n)),
            "k_prime": rng.integers(1, 50, (1, n)).astype(float),
            "granted": rng.uniform(0, 50, (1, n))}
    args[field] = args[field].repeat(3, axis=0)
    actions = rng.uniform(LO, HI, n)
    start = actions.copy()
    with pytest.raises(ValueError):
        step_bank(actions, **args)
    assert np.array_equal(actions, start)


def test_power_table_is_q_to_the_k():
    # one table of q ** k serves both twin paths: every entry is q ** k in
    # Python and in numpy, and it ends at the first k where q ** k is 0.0
    table, q = twin_module._Q_POWERS, twin_module._Q
    ks = np.arange(len(table))
    assert table == tuple(q ** k for k in range(len(table)))
    assert table == tuple(np.float_power(q, ks.astype(float)).tolist())
    assert table[-1] == 0.0 and all(table[:-1])
    assert len(table) == 3341
    assert twin_module._Q_POWER_ARRAY.tolist() == list(table)
    beyond = [len(table), len(table) + 1, 4000, 10 ** 6, 2 ** 53, 10 ** 300]
    beyond += np.random.default_rng(5).integers(len(table), 2 ** 62,
                                                200).tolist()
    assert all(q ** k == 0.0 for k in beyond)
    assert twin_module._q_power(np.array(beyond, dtype=float)).tolist() == [
        0.0] * len(beyond)
    # no bit moves from the powers step_control used to compute
    assert all(q ** k == np.float_power(q, float(k)) for k in range(4000))


def test_power_table_pins_the_platform_pow():
    # a libm canary: the q ** k table is the one place the outputs still
    # depend on the C library's pow, so this digest pins that pow (recorded
    # with glibc 2.36 on x86-64); if it moves, every fixture moves with it
    digest = hashlib.sha256(twin_module._Q_POWER_ARRAY.tobytes()).hexdigest()
    assert digest == ("e4cbe3e440c7c4de54819f759398522716b9df0c"
                      "5adc3f152e96a93a430057c3")


def test_reference_descent_never_needs_its_clamp():
    # the closed form's premise: with x0 and c in the box and
    # 0 < alpha * kappa < 1 (here 0.2), each step x - alpha * kappa * (x - c)
    # is a convex combination of x and c, and in floating point the iterates
    # stay exactly between x0 and c
    rng = np.random.default_rng(7)
    ak = DEFAULT_TWIN_STEP_ALPHA * 1.0
    for case in range(4800):
        x0 = (LO, HI)[case % 2] if case < 16 else rng.uniform(LO, HI)
        c = (LO, HI)[case // 2 % 2] if case % 3 else rng.uniform(LO, HI)
        x0, c = float(x0), float(c)
        x = x0
        for _ in range(60):
            x = x - ak * (x - c)    # the reference step, no clamp
            assert min(x0, c) <= x <= max(x0, c)
        assert step_control_reference(x0, c, 60, 60)[0] == x  # no clamp
        twin = DigitalTwin()
        twin._action = x0
        twin.assign_task(60, c)
        step_control(twin, 60)
        assert min(x0, c) <= twin.action <= max(x0, c)


def test_huge_grant_lands_on_target():
    # O(1) in the grant: 1e15 steps reach the setpoint, and regret is the
    # whole baseline; a twin run as a loop of steps would not return
    twin = DigitalTwin()
    for tick, c in enumerate((7.3, 0.0, 10.0, 2.5)):
        twin.assign_task(9, c)
        _, achieved, baseline = step_control_pair(twin.action, c, 9, 1e15)
        out = step_control(twin, 1e15)
        assert twin.action == c
        assert achieved == 0.0
        assert out == -baseline


def test_action_stays_in_box_and_gap_nonnegative():
    twin = DigitalTwin()
    rng = np.random.default_rng(9)
    targets = np.random.default_rng(123)
    for tick in range(460):
        # every eleventh setpoint sits on a box end
        c = (LO, HI)[tick // 11 % 2] if tick % 11 == 0 else targets.uniform(
            LO, HI)
        twin.assign_task(int(rng.integers(1, 40)), c)
        out = step_control(twin, float(rng.uniform(0, 50)))
        assert LO <= twin.action <= HI
        achieved = 0.5 * (twin.action - c) ** 2
        assert achieved >= -1e-12
        assert out <= achieved + 1e-12      # baseline >= -1e-12


def test_step_control_agrees_with_generic_solver():
    # the twin's closed form and the generic projected descent must land on
    # the same iterate when given identical iteration budgets
    twin = DigitalTwin()
    twin.assign_task(30, 7.25)
    start = twin.action
    step_control(twin, 13)
    problem = SmoothConvexProblem(
        objective=lambda x: float(0.5 * np.sum((x - 7.25) ** 2)),
        gradient=lambda x: x - 7.25, lipschitz_l=1.0,
        feasible_set=BoxSet([0.0], [10.0]))
    x = pga_solve(problem, [start], DEFAULT_TWIN_STEP_ALPHA, 13)
    assert float(x[0]) == twin.action


def test_update_regret_accumulates():
    regret = np.zeros(2)
    for increments in ([1.0, 2.0], [-0.5, 0.0], [0.5, -3.0]):
        out = update_regret(regret, increments)
        assert out is regret                        # in place
    assert regret.tolist() == [1.0, -1.0]
    update_regret(regret, [0.25 - 1.0, 1.0 - 0.25])
    assert regret.tolist() == [0.25, -0.25]         # achieved - baseline


def test_regret_telescopes():
    rng = np.random.default_rng(31)
    regret = np.zeros(3)
    totals = [0.0] * 3
    for t in range(200):
        achieved = rng.uniform(0, 4, 3).tolist()
        baseline = rng.uniform(0, 4, 3).tolist()
        update_regret(regret, [a - b for a, b in zip(achieved, baseline)])
        totals = [r + (a - b) for r, a, b in zip(totals, achieved, baseline)]
    assert regret.tolist() == totals


def test_over_granted_twin_never_builds_positive_regret():
    twin = DigitalTwin()
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
    delta0 = 10.0 * 10.0 / (2.0 * DEFAULT_TWIN_STEP_ALPHA * first)
    assert regret_budgets(first, None) == pytest.approx(
        DEFAULT_EPSILON_FACTOR * delta0)
    assert regret_budgets(first, 0.7).tolist() == [0.7, 0.7]
