"""One digital twin under three grant regimes: starved, exact, generous.

The twin reports an iteration requirement each tick; the cumulative regret
tracker measures how far its achieved control quality trails the
counterfactual run that received everything it asked for. Exact grants pin
the regret at zero, generous grants drive it negative, and hard starvation
blows the per-tick budget, which is what fires the reallocation trigger.
"""

import numpy as np

from twinalloc import (DigitalTwin, check_satisfaction, compute_requirement,
                       step_control, update_regret)

TICKS = 25


def run(grant_offset: int, seed: int = 11):
    twin = DigitalTwin(0)
    setpoints = np.random.default_rng(seed).uniform(0.0, 10.0, TICKS)
    loads = np.random.default_rng(99).integers(8, 30, TICKS)
    tracker = None
    for tick in range(TICKS):
        twin.assign_task(tick, int(loads[tick]), float(setpoints[tick]))
        if tracker is None:
            tracker = twin.make_tracker(0)
        k_prime, _ = compute_requirement(twin)
        sample = step_control(twin, max(k_prime + grant_offset, 1))
        update_regret(tracker, sample)
    return tracker


def main():
    for label, offset in (("starved (k'-20)", -20), ("exact (k')", 0),
                          ("generous (k'+8)", +8)):
        tracker = run(offset)
        budget = tracker.threshold_epsilon_per_step * TICKS
        ok = check_satisfaction(tracker, TICKS - 1)
        print(f"{label:>16}: cumulative regret {tracker.cumulative_regret_R:>9.4f}"
              f"  budget {budget:>7.2f}  within budget: {ok}")


if __name__ == "__main__":
    main()
