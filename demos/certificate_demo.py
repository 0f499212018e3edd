"""Worst-case iteration certificates on a box-constrained quadratic.

Shows the contract the digital twins rely on: ask iterations_for_delta for a
count, run exactly that many projected-gradient steps, and the suboptimality
never exceeds the requested tolerance. The second coordinate is nearly flat,
so plain descent converges slowly and the bound is not vacuous.
"""

import numpy as np

from twinalloc import (BoxSet, SmoothConvexProblem, iterations_for_delta,
                       pga_solve)


def main():
    Q = np.diag([4.0, 0.02])
    c = np.array([-4.0, -0.07])
    upper = np.full(2, 4.0)
    lipschitz = 4.0
    alpha = 1.0 / lipschitz
    box = BoxSet(np.zeros(2), upper)

    problem = SmoothConvexProblem(
        objective=lambda x: float(0.5 * x @ Q @ x + c @ x),
        gradient=lambda x: Q @ x + c,
        lipschitz_l=lipschitz,
        feasible_set=box)

    x_star = np.linalg.solve(Q, -c)        # interior, so unclamped
    f_star = problem.objective(x_star)
    x0 = np.zeros(2)

    print(f"minimize 0.5 x'Qx + c'x on [0,4]^2, Q=diag(4, 0.02), alpha=1/L")
    print(f"optimum at {x_star} with value {f_star:.4f}\n")
    print(f"{'delta':>8} {'certified k':>12} {'actual gap':>12} {'gap<=delta':>11}")
    for delta in (2.0, 1.0, 0.5, 0.2, 0.1, 0.05):
        k = iterations_for_delta(box.diameter(), alpha, delta)
        gap = problem.objective(pga_solve(problem, x0, alpha, k)) - f_star
        print(f"{delta:>8.2f} {k:>12d} {gap:>12.5f} {str(gap <= delta):>11}")


if __name__ == "__main__":
    main()
