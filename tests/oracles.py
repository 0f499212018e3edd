"""Independent reference implementations used to check the solvers.

Everything here is deliberately brute force: dense grids, exhaustive
active-set enumeration, rejection sampling, a step-by-step descent, a
breakpoint search one knot at a time. None of it shares code with the
package under test. Four exceptions are earlier forms kept to check their
successors: step_control_pair, the twin's control step, and
forecast_solve_inputs, the allocation policies' persistence-forecast inputs,
both bit-exact; metrics_csv_writer, the metrics table as csv.writer
rendered it, byte-exact; and project_capped_simplex_sort, the projection
before it became the hinge solve at rho = 0, within rounding.
"""

import csv
import io
import itertools
import math

import numpy as np


def box_qp_oracle(Q, c, lower, upper):
    """Minimize 0.5 x'Qx + c'x over a box by trying all clamp patterns.

    Each coordinate is either at its lower bound, free, or at its upper
    bound; the free block is solved exactly. Ties break toward the lowest
    objective, then the earliest pattern in lexicographic order.
    """
    n = c.size
    best_obj, best_x = np.inf, None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        x = np.empty(n)
        free = [i for i, p in enumerate(pattern) if p == 1]
        fixed = [i for i, p in enumerate(pattern) if p != 1]
        for i in fixed:
            x[i] = lower[i] if pattern[i] == 0 else upper[i]
        if free:
            rhs = -c[free].astype(float)
            if fixed:
                rhs -= Q[np.ix_(free, fixed)] @ x[fixed]
            try:
                x[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if (np.any(x[free] < lower[free] - 1e-9)
                    or np.any(x[free] > upper[free] + 1e-9)):
                continue
        obj = 0.5 * x @ Q @ x + c @ x
        if obj < best_obj - 1e-15:
            best_obj, best_x = obj, x.copy()
    return best_x, best_obj


def grid_capped_simplex(n, capacity, step):
    """All grid points of spacing `step` inside {a >= 0, sum a <= capacity}."""
    axis = np.arange(0.0, capacity + step / 2, step)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[pts.sum(axis=1) <= capacity + 1e-12]


def sample_capped_simplex(rng, n, lower, capacity, count):
    """Rejection-sample feasible points of {y >= lower, sum y <= capacity}."""
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    budget = capacity - lower.sum()
    out = np.empty((count, n))
    have = 0
    while have < count:
        cand = lower + rng.uniform(0.0, budget, size=(2 * count, n))
        keep = cand[cand.sum(axis=1) <= capacity + 1e-12]
        take = min(count - have, keep.shape[0])
        out[have:have + take] = keep[:take]
        have += take
    return out


def project_capped_simplex_sort(x, lower, capacity):
    """Projection onto {y >= lower, sum(y) <= capacity} by sort and threshold.

    Shifts to z = x - lower and projects z onto {w >= 0, sum(w) <= budget},
    budget = capacity - sum(lower): the clamp at zero when it fits the
    budget, else max(z - theta, 0) with theta from the sorted cumulative
    sums, in O(n log n).
    """
    x = np.asarray(x, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), x.shape).astype(float)
    budget = max(float(capacity) - float(lower.sum()), 0.0)
    z = x - lower
    w = np.maximum(z, 0.0)
    if w.sum() <= budget:
        return lower + w
    if budget == 0.0:
        return lower.copy()
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    thetas = (css - budget) / ks
    # in exact arithmetic the largest coordinate is always active; a budget
    # below the rounding of css can leave u > thetas all false
    k = int(np.nonzero(u > thetas)[0].max(initial=0)) + 1
    theta = (css[k - 1] - budget) / k
    return lower + np.maximum(z - theta, 0.0)


def penalized_tracking_objective(a, target, soft_lower, dev_floor, rho,
                                 weight=1.0):
    """Reference evaluation of the slack-penalized tracking cost."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    track = np.sum((a - target) ** 2, axis=1)
    low = np.sum(np.maximum(soft_lower - a, 0.0) ** 2, axis=1)
    dev = np.sum(np.maximum(dev_floor - a, 0.0) ** 2, axis=1)
    vals = weight * track + rho * (low + dev)
    return vals if vals.size > 1 else float(vals[0])


def step_control_reference(x0, c, k_prime, granted, lo=0.0, hi=10.0,
                           kappa=1.0, alpha=0.2):
    """The twin's descent as one loop over max(g, k') clamped steps.

    Records the iterate at step g (the grant, floored after a 1e-9 lift)
    and at step k' (the request) as it passes them, and measures both
    against the clamped minimizer. Returns (action, achieved, baseline).
    """
    g = max(int(math.floor(granted + 1e-9)), 1)
    # analytic minimizer of the clamped 1-dim quadratic
    x_star = min(max(c, lo), hi)
    f_star = 0.5 * kappa * (x_star - c) ** 2

    x = x0
    x_granted = x
    x_requested = x
    for k in range(1, max(g, k_prime) + 1):
        x = x - alpha * kappa * (x - c)
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
        if k == g:
            x_granted = x
        if k == k_prime:
            x_requested = x

    achieved = 0.5 * kappa * (x_granted - c) ** 2 - f_star
    baseline = 0.5 * kappa * (x_requested - c) ** 2 - f_star
    return x_granted, achieved, baseline


def step_control_pair(x0, c, k_prime, granted, lo=0.0, hi=10.0, kappa=1.0,
                      alpha=0.2):
    """The twin's closed-form step that returned achieved and baseline apart.

    Evaluates c + q^k (x0 - c), q = 1 - alpha * kappa, for the grant g (the
    floor after a 1e-9 lift, at least 1) and for k', clamps each end to the
    box once, and measures both against x* = c. Returns (action, achieved,
    baseline); step_control's increment must equal achieved - baseline.
    """
    g = math.floor(granted + 1e-9) or 1
    q = 1.0 - alpha * kappa
    d0 = x0 - c
    x_granted = c + q ** g * d0
    x_requested = c + q ** k_prime * d0
    x_granted = lo if x_granted < lo else hi if x_granted > hi else x_granted
    x_requested = (lo if x_requested < lo else hi if x_requested > hi
                   else x_requested)
    half_kappa = 0.5 * kappa
    return (x_granted, half_kappa * (x_granted - c) ** 2,
            half_kappa * (x_requested - c) ** 2)


def hinge_quadratic_solve_bisection(target, soft_lower, dev_floor, rho,
                                    capacity):
    """The hinge solve's breakpoint search one knot per pass, by bisection.

    The same a(s), knots and closed-form last step as
    twinalloc.solver.hinge_quadratic_solve; each pass evaluates sum a(s) at
    the middle knot of the bracket. Returns (a, passes).
    """
    target = np.atleast_1d(np.asarray(target, dtype=float))
    soft_lower = np.broadcast_to(np.asarray(soft_lower, dtype=float),
                                 target.shape)
    dev_floor = np.broadcast_to(np.asarray(dev_floor, dtype=float),
                                target.shape)
    rho = float(rho)
    capacity = float(capacity)
    p1 = np.minimum(soft_lower, dev_floor)
    p2 = np.maximum(soft_lower, dev_floor)
    one_hinge = target + rho * p2
    two_hinges = target + rho * (p1 + p2)

    def allocation(s):
        a = np.maximum(target - s, (one_hinge - s) / (1.0 + rho))
        a = np.maximum(a, (two_hinges - s) / (1.0 + 2.0 * rho))
        return np.maximum(a, 0.0)

    a = allocation(0.0)
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
        while hi - lo > 1:
            mid = (lo + hi) // 2
            total = float(allocation(knots[mid]).sum())
            passes += 1
            if total > capacity:
                lo, lo_s, lo_sum = mid, float(knots[mid]), total
            else:
                hi, hi_sum = mid, total
        hi_s = float(knots[hi])
        s = lo_s + (lo_sum - capacity) * (hi_s - lo_s) / (lo_sum - hi_sum)
        a = allocation(s)
        passes += 1
    return a, passes


def forecast_solve_inputs(k_prime, lower_bounds, max_deviation, rho,
                          capacity, N_e):
    """The hinge-solve arguments of the event policy (the online policy at
    N_e = 1) as posed on a persistence forecast.

    The reports k' are tiled into N_e + 1 rows; row 0 is the request the
    deviation floor hangs from, the target is the mean of rows 1..N_e, and
    the penalty is rho / N_e. Returns (target, soft_lower, dev_floor, rho,
    capacity) for hinge_quadratic_solve.
    """
    forecast = np.tile(np.asarray(k_prime, dtype=float), (N_e + 1, 1))
    return (forecast[1:N_e + 1].mean(axis=0), lower_bounds,
            forecast[0] - max_deviation, rho / N_e, capacity)


def metrics_csv_writer(result):
    """The CSV body of one run's metrics table as csv.writer wrote it from
    per-tick row tuples, before the report rendered the lines itself."""
    regret = result.regret_series
    realloc = np.zeros(result.n_ticks, dtype=np.int64)
    realloc[list(result.reallocation_ticks)] = 1
    rows = zip(range(result.n_ticks), itertools.repeat(result.policy.value),
               result.residual_inf_series.tolist(),
               regret.mean(axis=1).tolist(),
               np.abs(regret).max(axis=1).tolist(),
               np.cumsum(realloc).tolist())
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
