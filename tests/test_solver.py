"""Projection and projected-gradient solver tests against independent oracles."""

import inspect

import numpy as np
import pytest

from tests.oracles import (box_qp_oracle, grid_capped_simplex,
                           hinge_quadratic_solve_bisection,
                           penalized_tracking_objective,
                           project_capped_simplex_sort, sample_capped_simplex)
from twinalloc import solver
from twinalloc.core import InfeasibleSetError
from twinalloc.solver import (_KNOT_BLOCK, BoxSet, SmoothConvexProblem,
                              SolverError, hinge_quadratic_solve,
                              iterations_for_delta, pga_solve,
                              project_capped_simplex)


def quadratic_problem(Q, c, lower, upper):
    """0.5 x'Qx + c'x over a box, with exact Lipschitz constant."""
    Q = np.asarray(Q, dtype=float)
    lipschitz = float(np.linalg.eigvalsh(Q).max())
    return SmoothConvexProblem(
        objective=lambda x: float(0.5 * x @ Q @ x + c @ x),
        gradient=lambda x: Q @ x + c,
        lipschitz_l=lipschitz,
        feasible_set=BoxSet(lower, upper))


# ---------------------------------------------------------------- projections

def test_capped_simplex_examples():
    assert np.allclose(project_capped_simplex([4.0, 4.0], 0.0, 6.0), [3.0, 3.0])
    assert np.array_equal(project_capped_simplex([1.0, 2.0], 0.0, 6.0),
                          [1.0, 2.0])
    assert np.allclose(project_capped_simplex([5.0, 1.0], 0.0, 4.0), [4.0, 0.0])


def test_capped_simplex_feasible_and_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        lower = rng.uniform(0, 3, n)
        capacity = float(lower.sum() + rng.uniform(0.1, 20))
        x = rng.uniform(-10, 30, n)
        p = project_capped_simplex(x, lower, capacity)
        assert np.all(p >= lower - 1e-9)
        assert p.sum() <= capacity + 1e-9
        again = project_capped_simplex(p, lower, capacity)
        assert np.allclose(again, p, atol=1e-9)


def test_capped_simplex_beats_random_feasible_points():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        lower = rng.uniform(0, 2, n)
        capacity = float(lower.sum() + rng.uniform(1, 15))
        x = rng.uniform(-5, 25, n)
        p = project_capped_simplex(x, lower, capacity)
        samples = sample_capped_simplex(rng, n, lower, capacity, 10_000)
        best = float(np.min(np.sum((samples - x) ** 2, axis=1)))
        assert float(np.sum((p - x) ** 2)) <= best + 1e-9


def test_capped_simplex_matches_grid():
    rng = np.random.default_rng(5)
    grid = grid_capped_simplex(2, 4.0, 0.05)
    for _ in range(20):
        x = rng.uniform(-3, 8, 2)
        p = project_capped_simplex(x, 0.0, 4.0)
        best = float(np.min(np.sum((grid - x) ** 2, axis=1)))
        assert float(np.sum((p - x) ** 2)) <= best + 1e-9


def test_capped_simplex_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        lower = rng.uniform(0, 4, n)
        budget = float(rng.uniform(0.5, 12))
        x = rng.uniform(-6, 20, n)
        shifted = project_capped_simplex(x, lower, lower.sum() + budget)
        base = project_capped_simplex(x - lower, 0.0, budget)
        assert np.allclose(shifted, lower + base, atol=1e-10)


def test_capped_simplex_edge_cases():
    with pytest.raises(InfeasibleSetError):
        project_capped_simplex([1.0, 1.0], [3.0, 3.0], 4.0)
    # zero remaining budget pins the result at the lower bounds
    out = project_capped_simplex([9.0, -1.0], [2.0, 3.0], 5.0)
    assert np.array_equal(out, [2.0, 3.0])


def test_capped_simplex_tiny_positive_budget():
    # a budget below the rounding of the knots' sums puts the multiplier at
    # the largest knot, where every coordinate is clipped to zero; zeros
    # are feasible, and within rounding of the budget
    for capacity in (1e-17, 1e-300, 5e-324):
        out = project_capped_simplex([5.0, 7.0, 3.0], 0.0, capacity)
        assert np.all(out >= 0.0)
        assert out.sum() <= capacity


def test_capped_simplex_matches_sort_reference_within_rounding():
    # random floats, with and without lower bounds, and budgets from
    # binding through tiny to zero
    rng = np.random.default_rng(41)
    for i in range(2000):
        n = int(rng.integers(1, 50))
        x = rng.uniform(-10, 30, n)
        lower = rng.uniform(0, 3, n) if i % 2 else np.zeros(n)
        budget = float(rng.uniform(0, 1.2 * np.maximum(x - lower, 0).sum()))
        if i % 7 == 0:
            budget = (1e-17, 1e-300, 5e-324, 0.0)[i // 7 % 4]
        capacity = float(lower.sum()) + budget
        new = project_capped_simplex(x, lower, capacity)
        old = project_capped_simplex_sort(x, lower, capacity)
        tol = 8 * n * 2.0 ** -53 * max(capacity, float(np.abs(x).max()))
        assert np.abs(new - old).max() <= tol


def test_capped_simplex_exact_on_integer_inputs():
    # integer requirements and budgets, as in every workload: where the
    # budget does not bind, or binds at an integer threshold, both the
    # solve and the sort reference give the exact answer, byte for byte
    rng = np.random.default_rng(43)
    for i in range(500):
        n = int(rng.integers(1, 60))
        x = rng.integers(-5, 46, n).astype(float)
        lower = rng.integers(0, 3, n).astype(float) if i % 2 else np.zeros(n)
        z = x - lower
        theta = float(rng.integers(0, max(z.max(), 1))) if i % 3 else 0.0
        expect = lower + np.maximum(z - theta, 0.0)
        capacity = float(expect.sum()) + (rng.integers(0, 5) if i % 3 == 0
                                          else 0)
        assert np.array_equal(project_capped_simplex(x, lower, capacity),
                              expect)
        assert np.array_equal(project_capped_simplex_sort(x, lower, capacity),
                              expect)


def test_constraint_set_geometry():
    box = BoxSet([0.0, 0.0], [3.0, 4.0])
    assert box.diameter() == pytest.approx(5.0)
    assert box.contains([1.0, 2.0]) and not box.contains([5.0, 0.0])
    for lower, upper in (([2.0], [1.0]), ([np.nan], [1.0]), ([0.0], [np.nan])):
        with pytest.raises(InfeasibleSetError):
            BoxSet(lower, upper)


# ------------------------------------------------------------------ pga_solve

def test_pga_one_step_exact_on_unit_curvature():
    problem = quadratic_problem(np.eye(1), np.array([-3.0]), 0.0, 10.0)
    x = pga_solve(problem, [0.0], 1.0, 1)
    assert np.array_equal(x, [3.0])
    assert problem.objective(x) == pytest.approx(-4.5)


def test_pga_boundary_fixed_point():
    # unconstrained minimum sits outside the box, so the boundary is optimal
    problem = quadratic_problem(np.eye(2), np.array([-15.0, 3.0]),
                                [0.0, 0.0], [10.0, 10.0])
    x = pga_solve(problem, [4.0, 4.0], 1.0, 1)
    assert np.array_equal(x, [10.0, 0.0])
    assert np.array_equal(pga_solve(problem, x, 1.0, 50), x)


def test_pga_matches_active_set_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        M = rng.normal(size=(n, n))
        Q = M.T @ M + 0.1 * np.eye(n)
        c = rng.normal(scale=3.0, size=n)
        upper = rng.uniform(1, 4, n)
        problem = quadratic_problem(Q, c, np.zeros(n), upper)
        x = pga_solve(problem, rng.uniform(0, 1, n),
                      1.0 / problem.lipschitz_l, 2000)
        x_ref, obj_ref = box_qp_oracle(Q, c, np.zeros(n), upper)
        assert np.allclose(x, x_ref, atol=1e-5)
        assert problem.objective(x) <= obj_ref + 1e-9


def test_pga_trace_non_increasing():
    rng = np.random.default_rng(29)
    M = rng.normal(size=(4, 4))
    Q = M.T @ M + 0.1 * np.eye(4)
    problem = quadratic_problem(Q, rng.normal(size=4), np.zeros(4),
                                np.full(4, 5.0))
    alpha = 1.0 / problem.lipschitz_l
    x = rng.uniform(0, 5, 4)
    trace = [problem.objective(x)]
    for _ in range(500):
        x = pga_solve(problem, x, alpha, 1)
        trace.append(problem.objective(x))
    assert np.all(np.diff(trace) <= 1e-12)


def test_pga_rejects_oversized_step():
    problem = quadratic_problem(2.0 * np.eye(1), np.array([0.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        pga_solve(problem, [0.5], 0.6, 1)
    # alpha computed exactly as 1/L must pass
    pga_solve(problem, [0.5], 1.0 / problem.lipschitz_l, 2)


def test_pga_certified_iterations_meet_delta():
    # a nearly flat second coordinate keeps the bound from being vacuous
    Q = np.diag([1.0, 0.01])
    problem = quadratic_problem(Q, np.array([-1.0, -0.05]),
                                np.zeros(2), np.full(2, 10.0))
    f_star = problem.objective(np.array([1.0, 5.0]))
    for delta in (5.0, 1.0, 0.1, 0.01):
        k = iterations_for_delta(problem.feasible_set.diameter(), 1.0, delta)
        x = pga_solve(problem, [10.0, 0.0], 1.0, k)
        assert 0.0 <= problem.objective(x) - f_star <= delta


def test_pga_projects_start_point():
    # one step from the projected start 10 gives 7.5; from 99 it gives 52,
    # which the box clips to 10
    problem = quadratic_problem(np.eye(1), np.array([-5.0]), 0.0, 10.0)
    assert np.array_equal(pga_solve(problem, [99.0], 0.5, 1), [7.5])


def test_problem_and_argument_validation():
    box = BoxSet([0.0], [1.0])
    with pytest.raises(ValueError):
        SmoothConvexProblem(lambda x: 0.0, lambda x: x, 0.0, box)
    problem = SmoothConvexProblem(lambda x: 0.0, lambda x: x, 1.0, box)
    for alpha in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            pga_solve(problem, [0.5], alpha, 1)
    with pytest.raises(ValueError):
        pga_solve(problem, [0.5], 1.0, 0)
    blows_up = SmoothConvexProblem(lambda x: 0.0, lambda x: x * np.nan, 1.0,
                                   box)
    with pytest.raises(SolverError, match="iteration 1"):
        pga_solve(blows_up, [0.5], 1.0, 3)


# --------------------------------------------------------- iteration counts

def test_iterations_for_delta_examples():
    assert iterations_for_delta(2.0, 0.1, 1.0) == 20
    assert iterations_for_delta(0.0, 1.0, 1.0) == 1
    assert iterations_for_delta(1.0, 0.5, 0.01) == 100
    with pytest.raises(ValueError):
        iterations_for_delta(-1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        iterations_for_delta(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        iterations_for_delta(1.0, 0.1, 0.0)
    # no diameter that is NaN or infinite, and no count beyond float range
    for args in ((np.nan, 0.1, 1.0), (np.inf, 0.1, 1.0), (10.0, 0.2, 1e-310),
                 (1.0, 1e-200, 1e-200)):
        with pytest.raises(ValueError):
            iterations_for_delta(*args)
    assert iterations_for_delta(0.0, 1e-200, 1e-200) == 1


def test_iterations_for_delta_inverts_exactly():
    # tolerance derived from a target count must reproduce that count even
    # when the float division lands a few ulps above the integer
    diameter, alpha = 10.0, 0.2
    for k in range(1, 61):
        delta = diameter * diameter / (2.0 * alpha * k)
        assert iterations_for_delta(diameter, alpha, delta) == k


# ------------------------------------------------------- allocation solve

def test_hinge_solve_returns_interior_target_exactly():
    target = np.array([1.0, 2.0])
    a, used = hinge_quadratic_solve(target, [0.5, 1.0], [-5.0, -5.0], 1e3,
                                    10.0)
    assert np.array_equal(a, target)
    assert used == 1


def test_hinge_solve_matches_grid_on_binding_instance():
    target = np.array([4.0, 4.0])
    soft_lower = np.array([3.0, 3.0])
    dev_floor = np.array([1.0, 1.0])
    a, _ = hinge_quadratic_solve(target, soft_lower, dev_floor, 1e3, 5.0)
    assert np.allclose(a, [2.5, 2.5], atol=1e-6)
    obj = penalized_tracking_objective(a, target, soft_lower, dev_floor,
                                       rho=1e3)
    grid = grid_capped_simplex(2, 5.0, 0.01)
    best = float(np.min(penalized_tracking_objective(
        grid, target, soft_lower, dev_floor, rho=1e3)))
    assert obj <= best + 1e-2


def test_empty_allocation_is_empty():
    assert hinge_quadratic_solve([], [], [], 1.0, 5.0)[0].size == 0
    assert project_capped_simplex([], 0.0, 1.0).size == 0


def test_hinge_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        hinge_quadratic_solve([1.0], [0.0], [0.0], -1.0, 5.0)
    with pytest.raises(InfeasibleSetError):
        hinge_quadratic_solve([1.0], [0.0], [0.0], 1e3, -1.0)


def _mutant(old, new):
    """hinge_quadratic_solve with its one line old replaced by new."""
    source = inspect.getsource(solver.hinge_quadratic_solve)
    assert source.count(old) == 1
    namespace = dict(vars(solver))
    exec(source.replace(old, new), namespace)
    return namespace["hinge_quadratic_solve"]


_INTERPOLATION = ("s = lo_s + (lo_sum - capacity) * (hi_s - lo_s) "
                  "/ (lo_sum - hi_sum)")


def test_unmutated_copy_matches_solve():
    args = ([5.0, 7.0, -3.0], 0.0, 0.0, 0.0, 5.0)
    a, _ = _mutant(_INTERPOLATION, _INTERPOLATION)(*args)
    assert np.array_equal(a, [1.5, 3.5, 0.0])
    assert np.array_equal(a, hinge_quadratic_solve(*args)[0])


@pytest.mark.parametrize("old, new", [
    (_INTERPOLATION, "s = lo_s"),                    # bracket's lower end
    (_INTERPOLATION, "s = hi_s"),                    # bracket's upper end
    (_INTERPOLATION, "s = -(" + _INTERPOLATION[4:] + ")"),  # sign flipped
    ("return np.maximum(a, 0.0)", "return a"),      # zero clip dropped
])
@pytest.mark.parametrize("args", [
    ([5.0, 7.0, -3.0], 0.0, 0.0, 0.0, 5.0),
    ([5.0, 7.0, -3.0], [4.0, 4.0, 1.0], [-5.0, -3.0, -13.0], 1e3, 5.0),
])
def test_certificate_rejects_mutated_solve(old, new, args):
    # the budget binds (a(0) sums to 12 and about 13, above 5) and the last
    # target is negative, so each mutation breaks a checked KKT condition
    with pytest.raises(SolverError):
        _mutant(old, new)(*args)


def test_certificate_rejects_non_finite_allocation():
    with pytest.raises(SolverError), np.errstate(invalid="ignore"):
        hinge_quadratic_solve([np.inf, 1.0], 0.0, 0.0, 1.0, 5.0)
    with pytest.raises(SolverError):
        hinge_quadratic_solve([np.nan, 1.0], 0.0, 0.0, 0.0, 50.0)


def _check_kkt(a, target, soft_lower, dev_floor, rho, capacity):
    """First-order optimality of a for the hinge-penalized knapsack.

    Half the objective's gradient is h = (a - t) - rho (l - a)+ - rho (f - a)+;
    a minimizer has a multiplier s >= 0 with h + s = 0 where a > 0,
    h + s >= 0 where a = 0, and s (capacity - sum a) = 0.
    """
    scale = 1.0 + float(np.max(np.abs(np.concatenate(
        [target, soft_lower, dev_floor]))))
    tol = 1e-10 * (1.0 + 2.0 * rho) * scale
    assert np.all(a >= 0.0)
    assert a.sum() <= capacity + 1e-12 * scale * a.size
    h = ((a - target) - rho * np.maximum(soft_lower - a, 0.0)
         - rho * np.maximum(dev_floor - a, 0.0))
    free = a > 0.0
    s = float(np.mean(-h[free])) if free.any() else max(0.0, float(np.max(-h)))
    assert s >= -tol
    assert np.all(np.abs(h[free] + s) <= tol)
    assert np.all(h[~free] + s >= -tol)
    assert abs(s * (capacity - a.sum())) <= tol * (1.0 + capacity)


def test_hinge_solve_satisfies_kkt():
    rng = np.random.default_rng(71)
    for trial in range(600):
        n = int(rng.integers(1, 51))
        rho = (0.0, 1.0, 1e3)[trial % 3]
        if trial % 2:
            rho /= int(rng.integers(2, 26))      # event solve: rho / N_e
        target = rng.integers(1, 46, n).astype(float)
        if trial % 5 == 0:
            target += rng.uniform(-0.5, 0.5, n)
        soft_lower = np.maximum(target - rng.uniform(0.0, 12.0, n), 1.0)
        dev_floor = target - rng.uniform(0.0, 50.0, n)   # often negative
        ties = rng.random(n) < 0.3
        dev_floor[ties] = soft_lower[ties]
        unconstrained = np.maximum(target, 0.0).sum()
        capacity = float((unconstrained * rng.uniform(0.05, 0.99),
                          unconstrained * rng.uniform(1.0, 2.0),
                          rng.uniform(0.0, 1e-9), 0.0)[trial % 4])
        a, passes = hinge_quadratic_solve(target, soft_lower, dev_floor, rho,
                                          capacity)
        assert passes >= 1
        _check_kkt(a, target, soft_lower, dev_floor, rho, capacity)


@pytest.mark.parametrize("n", [1, 2, 20, 300, 1000])
def test_knot_block_leaves_the_allocation_unchanged(monkeypatch, n):
    # the bracket, and so every bit of the allocation, does not depend on
    # how many knots a pass tests: from one (bisection) to all of them, on
    # binding instances with repeated knots (integer targets, l = f ties,
    # and in every fourth instance one coordinate copied n times)
    rng = np.random.default_rng(3000 + n)
    cases = []
    for trial in range(24):
        rho = (0.0, 3.5, 1e3)[trial % 3]
        target = rng.integers(1, 46, n).astype(float)
        if trial % 2:
            target += rng.uniform(-0.5, 0.5, n)
        soft_lower = np.maximum(target - rng.integers(0, 13, n), 1.0)
        dev_floor = target - 10.0 * rng.uniform(0.0, 5.0, n)
        ties = rng.random(n) < 0.3
        dev_floor[ties] = soft_lower[ties]
        if trial % 4 == 0:
            target, soft_lower, dev_floor = (
                np.full(n, v[0]) for v in (target, soft_lower, dev_floor))
        # a(0) >= target, so a budget below its sum binds
        capacity = float(target.sum()) * rng.uniform(0.05, 0.999)
        cases.append((target, soft_lower, dev_floor, rho, capacity))
    solved = {}
    for block in (1, 3, 64, 2048, 10 ** 6):
        monkeypatch.setattr(solver, "_KNOT_BLOCK", block)
        solved[block] = [hinge_quadratic_solve(*case) for case in cases]
    for block, results in solved.items():
        for trial, ((a, passes), (want, _)) in enumerate(
                zip(results, solved[2048])):
            assert passes >= 2, (block, trial)   # the knot search ran
            assert np.array_equal(a, want), (block, trial)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 17, 20, 33, 100, 300, 1000,
                               2500])
def test_blocked_knot_search_matches_bisection(n):
    # 240 instances per size: the blocked search must find the bisection's
    # bracket, so the allocation bytes agree exactly
    rng = np.random.default_rng(1000 + n)
    for trial in range(240):
        rho = (0.0, 1.0, 1e3, 1e3 / int(rng.integers(2, 26)))[trial % 4]
        target = rng.integers(1, 46, n).astype(float)
        if trial % 3 == 0:
            target += rng.uniform(-0.5, 0.5, n)
        soft_lower = np.maximum(target - rng.integers(0, 13, n), 1.0)
        dev_floor = target - 10.0 * rng.uniform(0.0, 5.0, n)
        ties = rng.random(n) < 0.3
        dev_floor[ties] = soft_lower[ties]
        unconstrained = float(np.maximum(target, 0.0).sum())
        capacity = (0.0, 1e-9, unconstrained * rng.uniform(1.0, 2.0),
                    unconstrained * rng.uniform(0.05, 0.99),
                    unconstrained * rng.uniform(0.9, 0.999))[trial % 5]
        a, passes = hinge_quadratic_solve(target, soft_lower, dev_floor, rho,
                                          capacity)
        want, bisection_passes = hinge_quadratic_solve_bisection(
            target, soft_lower, dev_floor, rho, capacity)
        assert a.tobytes() == want.tobytes(), (trial, rho, capacity)
        if n >= _KNOT_BLOCK:   # one knot per pass: bisection
            assert abs(passes - bisection_passes) <= 1
        else:
            assert passes <= bisection_passes
        if 3 * n <= _KNOT_BLOCK // n:
            assert passes <= 3    # every knot in one pass
