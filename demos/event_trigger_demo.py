"""Anatomy of the event-triggered policy on one seed.

Prints where the regret trigger fired, what the inter-event horizon
estimator predicted at each event, and how the post-prefix residual compares
against re-solving every tick.
"""

from twinalloc import (PolicyKind, ScenarioConfig, compare_policies,
                       estimate_event_horizon)


def main():
    config = ScenarioConfig()
    results = compare_policies(config, seed=7)
    event = results[PolicyKind.EVENT_TRIGGERED]
    online = results[PolicyKind.ONLINE_DYNAMIC]

    ticks = list(event.reallocation_ticks)
    print(f"reallocation ticks: {ticks}")
    for i, tick in enumerate(ticks):
        # each re-solve's estimate sees only the events before it
        horizon = estimate_event_horizon(ticks[:i])
        print(f"  tick {tick:>3}: horizon used for this re-solve = {horizon}")

    print(f"\nmean residual after tick {config.stationary_prefix}:")
    print(f"  event-triggered: {event.mean_residual_after_prefix:8.4f} "
          f"({len(event.reallocation_ticks)} re-solves)")
    print(f"  online dynamic:  {online.mean_residual_after_prefix:8.4f} "
          f"({len(online.reallocation_ticks)} re-solves)")


if __name__ == "__main__":
    main()
