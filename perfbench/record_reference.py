"""Record the event-policy figures the benchmark checks compare-long against.

    python3 perfbench/record_reference.py

For the compare-long scenario instances of each workload seed below SEEDS,
runs ``twinalloc simulate --policy event`` in process and stores the
reallocation count, tick-mean and maximum of residual_inf, keyed by the
instance's master seed, in event_reference.json. Run it only on a commit
whose event behaviour is known to be right: later runs are held to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys

import run
import oracle

SEEDS = 128


def write_reference(reference: dict) -> None:
    """JSON with one line per recorded instance, so diffs stay readable."""
    text = json.dumps(reference, indent=1, sort_keys=True)
    # fold each [count, mean, max] triple onto its key's line
    text = re.sub(r"\[\s+([^\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def main() -> int:
    sys.path.insert(0, run.SRC)
    from twinalloc.cli import main as cli_main

    name = "compare-long"
    workload = run.WORKLOADS[name]
    work_dir = os.path.join(run.OUT, "reference")
    os.makedirs(work_dir, exist_ok=True)
    scenario_path = os.path.join(work_dir, "scenario.json")
    out_dir = os.path.join(work_dir, "out")
    figures = {}
    try:
        for seed in range(SEEDS):
            for master in workload.instance_seeds(seed):
                scenario = workload.scenario(master)
                with open(scenario_path, "w", encoding="utf-8") as fh:
                    json.dump(scenario, fh)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli_main(["simulate", "--policy", "event",
                                   "--scenario", scenario_path,
                                   "--seed", str(master), "--out", out_dir])
                if rc != 0:
                    raise SystemExit(f"seed {seed}: event run exited {rc}")
                table = oracle.read_metrics_csv(
                    os.path.join(out_dir, "metrics.csv"))
                figures[str(master)] = oracle.event_figures(table["event"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    write_reference({name: {"commit": run.git_commit(),
                            "workload_seeds": SEEDS,
                            "instances_per_seed": workload.instances,
                            "figures": figures}})
    print(f"recorded {len(figures)} event instances for {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
