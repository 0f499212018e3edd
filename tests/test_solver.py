"""Projection and projected-gradient solver tests against independent oracles."""

import numpy as np
import pytest

from tests.oracles import (box_qp_oracle, grid_capped_simplex,
                           penalized_tracking_objective, sample_capped_simplex)
from twinalloc.core import InfeasibleSetError
from twinalloc.solver import (BoxSet, CappedSimplexSet, PGAConfig,
                              SmoothConvexProblem, hinge_quadratic_objective,
                              hinge_quadratic_solve, iterations_for_delta,
                              pga_solve, project_box, project_capped_simplex)


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

def test_project_box_clips():
    out = project_box([-1.0, 5.0, 0.5], 0.0, 1.0)
    assert np.array_equal(out, [0.0, 1.0, 0.5])
    with pytest.raises(InfeasibleSetError):
        project_box([0.0], 2.0, 1.0)


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


def test_constraint_set_geometry():
    box = BoxSet([0.0, 0.0], [3.0, 4.0])
    assert box.diameter() == pytest.approx(5.0)
    assert box.contains([1.0, 2.0]) and not box.contains([5.0, 0.0])
    simplex = CappedSimplexSet([1.0, 1.0], 7.0)
    assert simplex.diameter() == pytest.approx(5.0 * np.sqrt(2.0))
    assert CappedSimplexSet([0.0], 4.0).diameter() == pytest.approx(4.0)
    assert simplex.contains([2.0, 2.0]) and not simplex.contains([6.0, 6.0])
    with pytest.raises(InfeasibleSetError):
        CappedSimplexSet([5.0, 5.0], 4.0)
    with pytest.raises(InfeasibleSetError):
        BoxSet([2.0], [1.0])


# ------------------------------------------------------------------ pga_solve

def test_pga_one_step_exact_on_unit_curvature():
    problem = quadratic_problem(np.eye(1), np.array([-3.0]), 0.0, 10.0)
    config = PGAConfig(step_alpha=1.0, max_iterations=1, stall_tolerance=0.0)
    result = pga_solve(problem, [0.0], config)
    assert result.iterations == 1
    assert np.array_equal(result.x, [3.0])
    assert result.objective_trace[0] == pytest.approx(0.0)
    assert result.objective_trace[-1] == pytest.approx(-4.5)


def test_pga_stalls_at_boundary_fixed_point():
    # unconstrained minimum sits outside the box, so the boundary is optimal
    problem = quadratic_problem(np.eye(2), np.array([-15.0, 3.0]),
                                [0.0, 0.0], [10.0, 10.0])
    result = pga_solve(problem, [4.0, 4.0], PGAConfig(step_alpha=1.0))
    assert result.stop_reason == "stall"
    assert np.allclose(result.x, [10.0, 0.0], atol=1e-9)


def test_pga_matches_active_set_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        M = rng.normal(size=(n, n))
        Q = M.T @ M + 0.1 * np.eye(n)
        c = rng.normal(scale=3.0, size=n)
        upper = rng.uniform(1, 4, n)
        problem = quadratic_problem(Q, c, np.zeros(n), upper)
        config = PGAConfig(step_alpha=1.0 / problem.lipschitz_l,
                           max_iterations=60_000, stall_tolerance=1e-14)
        result = pga_solve(problem, rng.uniform(0, 1, n), config)
        x_ref, obj_ref = box_qp_oracle(Q, c, np.zeros(n), upper)
        assert np.allclose(result.x, x_ref, atol=1e-5)
        assert problem.objective(result.x) <= obj_ref + 1e-9


def test_pga_trace_non_increasing():
    rng = np.random.default_rng(29)
    M = rng.normal(size=(4, 4))
    Q = M.T @ M + 0.1 * np.eye(4)
    problem = quadratic_problem(Q, rng.normal(size=4), np.zeros(4),
                                np.full(4, 5.0))
    config = PGAConfig(step_alpha=1.0 / problem.lipschitz_l,
                       max_iterations=500, stall_tolerance=0.0)
    trace = pga_solve(problem, rng.uniform(0, 5, 4), config).objective_trace
    assert trace.size == 501
    assert np.all(np.diff(trace) <= 1e-12)


def test_pga_rejects_oversized_step():
    problem = quadratic_problem(2.0 * np.eye(1), np.array([0.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        pga_solve(problem, [0.5], PGAConfig(step_alpha=0.6))
    # alpha computed exactly as 1/L must pass
    pga_solve(problem, [0.5], PGAConfig(step_alpha=0.5, max_iterations=2))


def test_pga_stop_reasons():
    problem = quadratic_problem(2.0 * np.eye(2), np.array([-4.0, -4.0]),
                                np.zeros(2), np.full(2, 10.0))
    cert = pga_solve(problem, [0.0, 0.0],
                     PGAConfig(step_alpha=0.5, max_iterations=10_000,
                               tolerance_delta=10.0, stall_tolerance=0.0))
    expected = iterations_for_delta(problem.feasible_set.diameter(), 0.5, 10.0)
    assert cert.stop_reason == "certificate"
    assert cert.iterations == expected
    assert cert.objective_trace.size == expected + 1

    capped = pga_solve(problem, [9.0, 9.0],
                       PGAConfig(step_alpha=0.25, max_iterations=7,
                                 stall_tolerance=0.0))
    assert capped.stop_reason == "max_iterations"
    assert capped.iterations == 7

    stalled = pga_solve(problem, [9.0, 9.0], PGAConfig(step_alpha=0.5))
    assert stalled.stop_reason == "stall"
    assert np.allclose(stalled.x, [2.0, 2.0], atol=1e-9)


def test_pga_projects_start_point():
    problem = quadratic_problem(np.eye(1), np.array([-20.0]), 0.0, 10.0)
    result = pga_solve(problem, [99.0],
                       PGAConfig(step_alpha=1.0, max_iterations=3))
    assert problem.feasible_set.contains(result.x)
    assert result.objective_trace[0] == pytest.approx(0.5 * 100 - 200)


def test_problem_and_config_validation():
    box = BoxSet([0.0], [1.0])
    with pytest.raises(ValueError):
        SmoothConvexProblem(lambda x: 0.0, lambda x: x, 0.0, box)
    with pytest.raises(ValueError):
        PGAConfig(step_alpha=0.0)
    with pytest.raises(ValueError):
        PGAConfig(step_alpha=1.0, tolerance_delta=0.0)
    with pytest.raises(ValueError):
        PGAConfig(step_alpha=1.0, max_iterations=0)
    with pytest.raises(ValueError):
        PGAConfig(step_alpha=1.0, stall_tolerance=-1.0)


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


def test_iterations_for_delta_inverts_exactly():
    # tolerance derived from a target count must reproduce that count even
    # when the float division lands a few ulps above the integer
    diameter, alpha = 10.0, 0.2
    for k in range(1, 61):
        delta = diameter * diameter / (2.0 * alpha * k)
        assert iterations_for_delta(diameter, alpha, delta) == k


# ------------------------------------------------------- allocation solve

def test_hinge_objective_matches_reference():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = rng.uniform(0, 10, n)
        target = rng.uniform(0, 10, n)
        soft_lower = rng.uniform(0, 8, n)
        dev_floor = rng.uniform(-4, 8, n)
        w, rho = 2.5, 300.0
        ours = hinge_quadratic_objective(a, target, soft_lower, dev_floor,
                                         w, rho)
        ref = penalized_tracking_objective(a, target, soft_lower, dev_floor,
                                           rho=w * rho, weight=w)
        assert ours == pytest.approx(ref, rel=1e-12)


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
    obj = hinge_quadratic_objective(a, target, soft_lower, dev_floor, 1.0, 1e3)
    grid = grid_capped_simplex(2, 5.0, 0.01)
    best = float(np.min(penalized_tracking_objective(
        grid, target, soft_lower, dev_floor, rho=1e3)))
    assert obj <= best + 1e-2


def test_hinge_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        hinge_quadratic_solve([1.0], [0.0], [0.0], -1.0, 5.0)
    with pytest.raises(InfeasibleSetError):
        hinge_quadratic_solve([1.0], [0.0], [0.0], 1e3, -1.0)


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
