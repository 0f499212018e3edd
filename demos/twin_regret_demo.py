"""One digital twin under three grant regimes: starved, exact, generous.

The twin reports an iteration requirement each tick; its cumulative regret
measures how far its achieved control quality trails the counterfactual run
that received everything it asked for. Exact grants pin the regret at zero,
generous grants drive it negative, and hard starvation blows the per-tick
budget, which is what fires the reallocation trigger.
"""

import numpy as np

from twinalloc import (DigitalTwin, check_satisfaction, regret_budgets,
                       step_control, update_regret)

TICKS = 25


def run(grant_offset: int, seed: int = 11):
    twin = DigitalTwin(0)
    setpoints = np.random.default_rng(seed).uniform(0.0, 10.0, TICKS)
    loads = np.random.default_rng(99).integers(8, 30, TICKS)
    regret = np.zeros(1)
    for tick in range(TICKS):
        k_prime = int(loads[tick])
        twin.assign_task(k_prime, float(setpoints[tick]))
        sample = step_control(twin, max(k_prime + grant_offset, 1))
        update_regret(regret, [sample])
    return regret, regret_budgets(loads[:1], None)


def main():
    for label, offset in (("starved (k'-20)", -20), ("exact (k')", 0),
                          ("generous (k'+8)", +8)):
        regret, epsilon = run(offset)
        budget = epsilon[0] * TICKS
        ok = check_satisfaction(regret, epsilon, TICKS - 1)
        print(f"{label:>16}: cumulative regret {regret[0]:>9.4f}"
              f"  budget {budget:>7.2f}  within budget: {ok}")


if __name__ == "__main__":
    main()
