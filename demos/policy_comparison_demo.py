"""Four allocation policies on one scenario, identical load trajectories.

Runs equal split, static, event-triggered and online dynamic allocation on
the same random-walk requirement process and prints the comparison table.
Pass an output directory to also write the per-tick CSV and the SVG chart.
"""

import sys

from twinalloc import (PolicyKind, ScenarioConfig, compare_policies,
                       render_comparison_svg, summarize, write_metrics_csv)
from twinalloc.report import metrics_rows


def main(argv):
    config = ScenarioConfig()
    results = compare_policies(config, seed=config.master_seed)
    print(summarize(results), end="")
    online = results[PolicyKind.ONLINE_DYNAMIC]
    event = results[PolicyKind.EVENT_TRIGGERED]
    solves_saved = len(online.reallocation_ticks) - len(event.reallocation_ticks)
    print(f"\nevent-triggered used {solves_saved} fewer re-solves than online"
          f" (ticks: {list(event.reallocation_ticks)})")

    if len(argv) > 1:
        out = argv[1]
        import os
        os.makedirs(out, exist_ok=True)
        write_metrics_csv(os.path.join(out, "comparison.csv"),
                          [row for k in PolicyKind
                           for row in metrics_rows(results[k])])
        with open(os.path.join(out, "comparison.svg"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(render_comparison_svg(results, config))
        print(f"wrote comparison.csv and comparison.svg to {out}")


if __name__ == "__main__":
    main(sys.argv)
