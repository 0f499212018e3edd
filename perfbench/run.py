"""twinalloc benchmark: the real CLI on generated scenarios, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. From the workload seed the
benchmark draws a fixed set of scenario instances (master seeds); each
command runs ``twinalloc.cli.main`` in a fresh interpreter, one after
another, with one thread. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run beside an untraced one.
Every command's outputs are checked by oracle.py. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. The environment
record and the numbers go to ``.perfbench-out/results/``; per-layer data is
kept in its own file there. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
REFERENCE = os.path.join(HERE, "event_reference.json")

# a run must end within 180 s: no command starts or keeps running past this
RUN_BUDGET_S = 170
SETUP_PROBES = 10
# a "binding" workload keeps instances whose requirement sum exceeds the
# capacity on at least this share of the ticks after the stationary prefix
BINDING_SHARE = 0.9


@dataclass(frozen=True)
class Workload:
    command: str            # "compare" or a policy for "simulate --policy"
    n_resources: int
    n_ticks: int
    stationary_prefix: int
    instances: int          # scenario instances per run
    trace_instances: int    # of those, how many a traced run covers
    binding: bool = False   # keep only instances where the budget binds

    @property
    def policies(self) -> tuple[str, ...]:
        return oracle.POLICIES if self.command == "compare" else (self.command,)

    def scenario(self, master_seed: int) -> dict:
        return {"n_resources": self.n_resources, "n_ticks": self.n_ticks,
                "stationary_prefix": self.stationary_prefix,
                "capacity_b": None, "requirement_step_bound": 1,
                "requirement_range": [1, 45],
                "initial_requirement_range": [2, 38], "gap": 10.0,
                "epsilon_per_step": None, "rho": 1000.0,
                "master_seed": master_seed}

    def instance_seeds(self, seed: int) -> list[int]:
        """Master seeds of a run's scenario instances, drawn from its seed.

        A binding workload takes, in order, the candidates whose walked
        requirements sum to more than the capacity on BINDING_SHARE of the
        ticks after the stationary prefix: the regime where the online and
        event solves iterate and the regret trigger fires often.
        """
        if not self.binding:
            return instance_seeds(seed, self.instances)
        chosen = []
        for master in instance_seeds(seed, 64 * self.instances):
            walk = oracle.requirement_walk(self.scenario(master), master)
            total = walk.sum(axis=1)
            after_prefix = total[self.stationary_prefix:]
            if np.mean(after_prefix > total[0]) >= BINDING_SHARE:
                chosen.append(master)
                if len(chosen) == self.instances:
                    return chosen
        raise RuntimeError(f"seed {seed}: too few binding instances")

    def cli_args(self, scenario_path: str, seed: int, out_dir: str) -> list:
        head = (["compare", "--workers", "1"] if self.command == "compare"
                else ["simulate", "--policy", self.command])
        return head + ["--scenario", scenario_path, "--seed", str(seed),
                       "--out", out_dir]


# Why each workload exists is in README.md and BENCHMARK.json. Instance
# counts fill a ~30 s run on a 2-core machine: one pass where the work
# differs between instances, several passes where it does not.
WORKLOADS = {
    "compare-long": Workload("compare", 20, 1000, 10, instances=4,
                             trace_instances=2, binding=True),
    "online-wide": Workload("online", 1000, 15, 3, instances=16,
                            trace_instances=6, binding=True),
    "static-wide": Workload("static", 1000, 50, 10, instances=5,
                            trace_instances=2),
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("twin_ticks_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# every name layer_metrics emits, plus the overhead a traced run adds
PER_LAYER = tuple(sorted([*tracer.layer_metrics([], 0, 0),
                          "trace.overhead_frac"]))


def instance_seeds(seed: int, count: int) -> list[int]:
    """Master seeds of a run's scenario instances, drawn from its seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Bench:
    """One benchmark run: instances, commands, checks and tallies."""

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env = {}
        self.samples = {}
        self.missing_sites = []
        self.budget_end = time.monotonic() + RUN_BUDGET_S
        self.instances = []
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        ref_figures = reference.get(name, {}).get("figures", {})
        for i, master in enumerate(self.workload.instance_seeds(seed)):
            scenario = self.workload.scenario(master)
            path = os.path.join(work_dir, f"scenario-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
            self.instances.append({
                "seed": master, "scenario": scenario, "path": path,
                "expected": None, "event_got": None,
                "event_ref": ref_figures.get(str(master))})
        self.child_env = dict(os.environ, PYTHONHASHSEED="0",
                              OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                              MKL_NUM_THREADS="1")

    def _child(self, mode: str, inst: dict, cli_args=()) -> dict | None:
        result_path = os.path.join(self.work_dir, "child.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path,
               mode, SRC, inst["path"], *cli_args]
        remaining = self.budget_end - time.monotonic()
        if remaining <= 0:
            self.failures.append(f"{mode}: run budget of {RUN_BUDGET_S} s spent")
            return None
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.child_env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{mode}: killed at the {RUN_BUDGET_S} s "
                                 "run budget")
            return None
        if proc.returncode != 0 or not os.path.isfile(result_path):
            tail = proc.stderr.strip().splitlines()[-3:]
            self.failures.append(f"{mode} exited {proc.returncode}: "
                                 + " | ".join(tail))
            return None
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
        record["setup_s"] = (record["ready_ns"] - spawned) / 1e9
        return record

    def setup_probe(self) -> dict | None:
        record = self._child("setup", self.instances[0])
        if record is not None:
            self.env = record["env"]
        return record

    def command(self, index: int, traced: bool) -> dict | None:
        """Run one CLI command on instance index and check its outputs."""
        inst = self.instances[index]
        out_dir = os.path.join(self.work_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        record = self._child("trace" if traced else "run", inst,
                             self.workload.cli_args(inst["path"], inst["seed"],
                                                    out_dir))
        if record is None:
            self.failed += 1
            return None
        try:
            if record["rc"] != 0:
                raise oracle.CheckFailed(f"exit code {record['rc']}")
            if inst["expected"] is None:
                inst["expected"] = oracle.expected_series(
                    inst["scenario"], inst["seed"], self.workload.policies)
            table = oracle.check_outputs(
                out_dir, self.workload.command, self.workload.policies,
                inst["scenario"], inst["expected"])
        except oracle.CheckFailed as exc:
            self.failures.append(f"instance {index} (seed {inst['seed']}): {exc}")
            self.failed += 1
            return None
        if "event" in table:
            inst["event_got"] = oracle.event_figures(table["event"])
        # ticks the program ran, as the CSV rows the checks just accepted
        record["ticks"] = sum(len(cols["tick"]) for cols in table.values())
        return record

    def check_event_reference(self) -> None:
        """Compare event figures with the recorded ones, over the run."""
        pairs = [(inst["event_got"], inst["event_ref"])
                 for inst in self.instances
                 if inst["event_ref"] is not None and inst["event_got"]]
        if not pairs:
            return
        try:
            oracle.check_event_reference(*zip(*pairs))
        except oracle.CheckFailed as exc:
            self.failures.append(str(exc))
            self.failed += len(pairs)

    def ticks_per_command(self) -> int:
        w = self.workload
        return w.n_resources * w.n_ticks * len(w.policies)

    # -- the two kinds of run -----------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        records = [r for r in (self.setup_probe() for _ in range(SETUP_PROBES))
                   if r is not None]
        per_instance = [[] for _ in self.instances]
        deadline = time.monotonic() + seconds
        while True:
            round_start = time.monotonic()
            for i in range(len(self.instances)):
                record = self.command(i, traced=False)
                if record is not None:
                    records.append(record)
                    per_instance[i].append(record)
            now = time.monotonic()
            if now + (now - round_start) > deadline:
                break
        if not all(per_instance) or not records:
            return {}
        # one median per instance, then the mean over instances, so every
        # instance weighs the same whatever its own run-to-run noise
        run_s = statistics.fmean(
            statistics.median(r["run_ns"] for r in runs) / 1e9
            for runs in per_instance)
        self.samples = {
            "setup": len(records), "rounds": min(map(len, per_instance)),
            "instances": len(per_instance),
            "setup_s": [r["setup_s"] for r in records],
            "run_s": [[r["run_ns"] / 1e9 for r in runs]
                      for runs in per_instance],
            "cpu_s": [[r["cpu_ns"] / 1e9 for r in runs]
                      for runs in per_instance]}
        return {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "run_s": run_s,
            "twin_ticks_per_s": self.ticks_per_command() / run_s,
            "peak_rss_mb": statistics.median(
                r["maxrss_kb"] / 1024 for r in records if "maxrss_kb" in r),
        }

    def layers(self, seconds: float) -> dict:
        self.setup_probe()
        subset = range(self.workload.trace_instances)
        rounds = []
        deadline = time.monotonic() + seconds
        while True:
            round_start = time.monotonic()
            plain, traced = [], []
            for i in subset:
                plain.append(self.command(i, traced=False))
                traced.append(self.command(i, traced=True))
            if all(plain) and all(traced):
                run_ns = sum(r["run_ns"] for r in traced)
                metrics = tracer.layer_metrics(
                    [r["trace"] for r in traced], run_ns,
                    sum(r["ticks"] for r in traced))
                metrics["trace.overhead_frac"] = (
                    run_ns / sum(r["run_ns"] for r in plain) - 1.0)
                rounds.append(metrics)
                self.missing_sites = traced[0].get("missing_sites", [])
            now = time.monotonic()
            if now + (now - round_start) > deadline:
                break
        if not rounds:
            return {}
        self.samples = {"rounds": len(rounds),
                        "instances": len(subset)}
        for name in tracer.COUNT_METRICS:
            if len({r[name] for r in rounds}) != 1:
                self.failures.append(f"count {name} differs between rounds")
        return {name: rounds[0][name] if name in tracer.COUNT_METRICS
                else statistics.median(r[name] for r in rounds)
                for name in PER_LAYER}


def environment_record(bench: Bench, trace: int) -> dict:
    return {
        "workload": bench.name, "seed": bench.seed, "trace": trace,
        "instance_seeds": [inst["seed"] for inst in bench.instances],
        "scenario": bench.workload.scenario("per instance"),
        "cli": " ".join(bench.workload.cli_args("SCENARIO", "SEED", "OUT")),
        "python": platform.python_version(),
        "numpy": bench.env.get("numpy"),
        "numba_imports": bench.env.get("numba_imports"),
        "twinalloc_have_numba": bench.env.get("have_numba"),
        "event_reference_instances": sum(
            inst["event_ref"] is not None for inst in bench.instances),
        "cores": os.cpu_count(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twinalloc", "cli.py")):
        print(f"error: no twinalloc sources under {SRC}", file=sys.stderr)
        return 2
    work_dir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        # the first interpreter also compiles bytecode; it is not timed
        if bench.setup_probe() is None:
            print("error: " + "; ".join(bench.failures), file=sys.stderr)
            return 1
        if args.trace:
            values = bench.layers(args.seconds)
            names = PER_LAYER
            units = {name: tracer.metric_unit(name) for name in names}
        else:
            values = bench.end_to_end(args.seconds)
            names = [name for name, _ in END_TO_END]
            units = dict(END_TO_END)
        bench.check_event_reference()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = bench.failed
    attempted = max(bench.attempted, 1)
    correct = not bench.failures and bool(values)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names if name in values}
    env = environment_record(bench, args.trace)
    kind = "layers" if args.trace else "e2e"
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"environment": env, "samples": bench.samples,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "failures": bench.failures,
              "metrics": metrics}
    if args.trace:
        record["missing_sites"] = bench.missing_sites
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                                        f"{kind}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env)}")
    counts = {k: v for k, v in bench.samples.items() if not isinstance(v, list)}
    print(f"samples: {json.dumps(counts)}")
    for failure in bench.failures:
        print(f"FAILED: {failure}")
    for name in names:
        value = values.get(name, math.nan)
        print(f"{args.workload:<13} {name:<32} {value:>16.6g} {units[name]}")
    print(f"{args.workload:<13} {'failed_frac':<32} "
          f"{failed / attempted:>16.6g} fraction ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
