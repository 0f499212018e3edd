"""Projected gradient descent with worst-case iteration certificates.

For a convex objective with L-Lipschitz gradient minimized over a convex set
of diameter D with step size alpha <= 1/L, the iterate after k steps is
within D^2 / (2 alpha k) of optimal. Inverting that bound gives the number
of iterations that certifies a target suboptimality (iterations_for_delta),
which is what the digital twins report to the network manager as their
compute requirement; pga_solve runs exactly that many steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from typing import Callable

import numpy as np

from .core import InfeasibleSetError

# Pulls a certificate count sitting a few ulps above an integer back down
# before ceil; real fractional parts are never this small.
_CEIL_GUARD = 1.0 - 4e-12
# Relative slack when checking alpha <= 1/L, so alpha computed as 1/L passes.
_STEP_SLACK = 1.0 + 1e-9
# Elements of a(s) one pass of the hinge solve's knot search evaluates: up
# to _KNOT_BLOCK // n knots at once.
_KNOT_BLOCK = 2048
# Budget residual a binding hinge solve may leave, per coordinate, in units
# of 2**-53 times the largest capacity, |target| or upper floor: at most 1.62
# was measured (rho 0 to 1e3, budgets down to 5e-324), 0.34 on the workloads.
_BUDGET_SLACK = 8 * 2.0 ** -53


class SolverError(RuntimeError):
    """Iterates became non-finite, the solve could not proceed, or its
    result failed its certificate."""


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box constraint set."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape:
            raise InfeasibleSetError("box bound shapes differ")
        if not np.all(lower <= upper):
            raise InfeasibleSetError("box needs lower <= upper, without NaN")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def project(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True)
class SmoothConvexProblem:
    """Objective/gradient pair with a known gradient Lipschitz constant,
    minimized over an attached feasible set."""

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz_l: float
    feasible_set: BoxSet

    def __post_init__(self):
        if not self.lipschitz_l > 0:
            raise ValueError("lipschitz_l must be positive")


def iterations_for_delta(diameter: float, step_alpha: float, delta: float) -> int:
    """Iterations certifying suboptimality <= delta: ceil(D^2 / (2 alpha delta)).

    Never less than 1. The guard factor keeps counts that are an integer up
    to float rounding from ceiling one step too high.
    """
    if not 0 <= diameter < inf:
        raise ValueError("diameter must be finite and nonnegative")
    if not step_alpha > 0:
        raise ValueError("step_alpha must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")
    scale = 2.0 * step_alpha * delta          # 0 only by underflow
    raw = diameter * diameter / scale if scale else (inf if diameter else 0.0)
    if raw == inf:
        raise ValueError("certificate count exceeds the float range")
    return max(int(ceil(raw * _CEIL_GUARD)), 1)


def pga_solve(problem: SmoothConvexProblem, x0, step_alpha: float,
              iterations: int) -> np.ndarray:
    """Project x0, run exactly `iterations` steps of
    x <- project(x - step_alpha * grad f(x)) and return the last iterate.

    step_alpha must lie in (0, 1/L]; iterations_for_delta gives the count
    that certifies a target suboptimality.
    """
    if not 0 < step_alpha <= _STEP_SLACK / problem.lipschitz_l:
        raise ValueError(f"step_alpha {step_alpha:g} is not in "
                         f"(0, 1/L = {1.0 / problem.lipschitz_l:g}]")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    feasible_set = problem.feasible_set
    x = feasible_set.project(np.atleast_1d(np.asarray(x0, dtype=float)))
    for k in range(1, iterations + 1):
        x = feasible_set.project(x - step_alpha * problem.gradient(x))
        if not np.all(np.isfinite(x)):
            raise SolverError(f"non-finite iterate at iteration {k}")
    return x


# ---------------------------------------------------------------------------
# The network manager's allocation subproblem:
#
#   min_a  ||a - target||^2
#          + rho * sum max(soft_lower - a, 0)^2
#          + rho * sum max(dev_floor - a, 0)^2
#   s.t.   a >= 0, sum(a) <= capacity
#
# A weight on the whole objective does not move the minimizer, so only rho,
# the penalty relative to tracking, enters the solve.
# ---------------------------------------------------------------------------

def hinge_quadratic_solve(target, soft_lower, dev_floor, rho: float,
                          capacity: float):
    """Minimize the hinge-penalized tracking objective over the capped simplex.

    The problem is separable, convex and piecewise quadratic with one
    knapsack row (a continuous quadratic knapsack), so a breakpoint search
    solves it exactly (Helgason, Kennington & Lall 1980; Kiwiel 2008). With
    p1 <= p2 the two hinge floors of a coordinate and s >= 0 the budget
    multiplier, the coordinate's minimizer is

        a(s) = max(0, t - s, (t + rho p2 - s) / (1 + rho),
                   (t + rho (p1 + p2) - s) / (1 + 2 rho)),

    the inverse of its concave piecewise-linear stationarity map, clipped
    at zero. sum a(s) is continuous, piecewise linear and non-increasing,
    with breakpoints at t - p2, t - p1 + rho (p2 - p1) and
    t + rho (max(p1, 0) + max(p2, 0)). If a(0) fits the budget it is the
    minimizer; otherwise a blocked search over the sorted breakpoints finds
    the linear piece on which sum a(s) = capacity, solved there in closed
    form. Each pass evaluates sum a(s) at up to _KNOT_BLOCK // n knots
    spread evenly over the current bracket, as one (m, n) array with row
    sums, and keeps the two neighbouring knots whose sums straddle the
    capacity: at n = 20 one pass covers every knot, and from
    n >= _KNOT_BLOCK on each pass tests one knot, which is bisection. The
    computed sums are monotone in s, so the bracket, and with it the
    result, does not depend on how many knots a pass tests.

    Before returning, the solve certifies the KKT conditions that do not
    hold by construction: a is finite and >= 0, and where the budget binds,
    s >= 0 and |sum a - capacity| <= _BUDGET_SLACK * n * max(capacity,
    max |target|, max p2). A failure raises SolverError.

    Returns (a, passes): passes counts the vectorised evaluations of a(s),
    >= 1: the one at s = 0, one per block of knots and the final one.
    """
    target = np.atleast_1d(np.asarray(target, dtype=float))
    soft_lower = np.asarray(soft_lower, dtype=float)
    dev_floor = np.asarray(dev_floor, dtype=float)
    if soft_lower.shape != target.shape or dev_floor.shape != target.shape:
        soft_lower = np.broadcast_to(soft_lower, target.shape)
        dev_floor = np.broadcast_to(dev_floor, target.shape)
    rho = float(rho)
    capacity = float(capacity)
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    if not capacity >= 0:
        raise InfeasibleSetError("capacity must be nonnegative")
    p1 = np.minimum(soft_lower, dev_floor)
    p2 = np.maximum(soft_lower, dev_floor)
    one_hinge = target + rho * p2
    two_hinges = target + rho * (p1 + p2)

    def shifted(t, h1, h2):  # a(s) from t - s, h1 - s and h2 - s
        a = np.maximum(t, h1 / (1.0 + rho))
        a = np.maximum(a, h2 / (1.0 + 2.0 * rho))
        return np.maximum(a, 0.0)

    def allocation(s):
        return shifted(target - s, one_hinge - s, two_hinges - s)

    a = shifted(target, one_hinge, two_hinges)  # a(0): x - 0.0 is x
    passes = 1
    lo_sum = float(a.sum())
    if lo_sum > capacity:
        knots = np.concatenate([
            target - p2, target - p1 + rho * (p2 - p1),
            target + rho * (np.maximum(p1, 0.0) + np.maximum(p2, 0.0))])
        knots = np.sort(knots[knots > 0.0])
        # invariant: sum a(lo_s) > capacity >= sum a(knots[hi]); at the
        # last knot every coordinate is clipped to zero
        lo, hi = -1, knots.size - 1
        lo_s, hi_sum = 0.0, 0.0
        per_pass = max(_KNOT_BLOCK // target.size, 1)
        while hi - lo > 1:
            # the knots lo + stride, lo + 2 stride, ... strictly inside the
            # bracket: at most per_pass of them, every one when they fit
            stride = -(-(hi - lo) // (per_pass + 1))
            sums = allocation(knots[lo + stride:hi:stride, None]).sum(axis=1)
            passes += 1
            above = int(np.count_nonzero(sums > capacity))
            if above < sums.size:
                hi, hi_sum = lo + stride * (above + 1), float(sums[above])
            if above:
                lo, lo_sum = lo + stride * above, float(sums[above - 1])
                lo_s = float(knots[lo])
        hi_s = float(knots[hi])
        s = lo_s + (lo_sum - capacity) * (hi_s - lo_s) / (lo_sum - hi_sum)
        a = allocation(s)
        passes += 1
    if not (0.0 <= a.min(initial=0.0) and a.max(initial=0.0) < np.inf):
        raise SolverError("allocation is not finite and nonnegative")
    if lo_sum > capacity:  # binding: the search kept lo_sum above it
        residual = abs(float(a.sum()) - capacity)
        slack = _BUDGET_SLACK * a.size  # the wider scale only when needed
        if not (s >= 0.0 and (residual <= slack * capacity or residual <= (
                slack * float(np.maximum(np.abs(target), p2).max())))):
            raise SolverError(f"budget multiplier {s:g} leaves a budget "
                              f"residual of {residual:g}")
    return a, passes


def project_capped_simplex(x, lower, capacity: float) -> np.ndarray:
    """Euclidean projection onto {y >= lower, sum(y) <= capacity}.

    Shifted to z = x - lower this is the projection of z onto {w >= 0,
    sum(w) <= capacity - sum(lower)}: the hinge solve at rho = 0, where
    a(s) = max(z - s, 0).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lower = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
    budget = float(capacity) - float(lower.sum())
    if budget < -1e-9:
        raise InfeasibleSetError(
            f"lower bounds sum exceeds capacity by {-budget:g}")
    return lower + hinge_quadratic_solve(x - lower, 0.0, 0.0, 0.0,
                                         max(budget, 0.0))[0]
