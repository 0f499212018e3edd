"""Command-line front end: single-policy runs and the four-way comparison.

Exit codes: 0 success, 1 invalid scenario/config or command line, 2 I/O
failure, 3 solver failure. The scenario file is read and validated before
any output path is touched, and publish lands a command's files together,
so failed invocations leave no partial files but in the windows it names.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .core import ScenarioValidationError
from .engine import (SimulationError, compare_policies, load_scenario,
                     run_scenario, write_text)
from .manager import PolicyKind
from .report import (build_manifest, metrics_csv, render_comparison_svg,
                     summarize, write_manifest, write_metrics_csv)
from .solver import SolverError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_SOLVER = 3


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**64), got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, so not argparse's 2 (EXIT_IO)
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twinalloc",
        description="Controller-aware network resource allocation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy on a scenario")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--policy", required=True,
                     choices=[k.value for k in PolicyKind])
    sim.add_argument("--seed", type=_seed_value, default=None,
                     help="master seed (default: scenario's master_seed)")
    sim.add_argument("--out", default=".", help="output directory")

    cmp_ = sub.add_parser("compare", help="run all four policies")
    cmp_.add_argument("--scenario", required=True, help="scenario JSON file")
    cmp_.add_argument("--seed", type=_seed_value, default=None,
                      help="master seed (default: scenario's master_seed)")
    cmp_.add_argument("--out", default=".", help="output directory")
    # the policies always run one after another; the flag stays so command
    # lines that pin it to 1 still parse
    cmp_.add_argument("--workers", type=int, choices=[1], default=1,
                      help=argparse.SUPPRESS)
    return parser


def _has_solver_cause(exc: BaseException | None) -> bool:
    while exc is not None:
        if isinstance(exc, SolverError):
            return True
        exc = exc.__cause__
    return False


@contextlib.contextmanager
def publish(out_dir):
    """Yield stage(name), the staging path of output name; stage.outputs maps
    its manifest key to its final path. Once every target is checked, files
    are renamed into place in staging order; only a rename failing after
    others, or a killed process (leaving .twinalloc-<pid>-<hex>), splits."""
    made, head = [], os.path.abspath(out_dir)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    staging = os.path.join(
        out_dir, f".twinalloc-{os.getpid()}-{os.urandom(4).hex()}")

    def stage(name):
        stage.outputs[name.replace(".", "_")] = os.path.join(out_dir, name)
        return os.path.join(staging, name)
    stage.outputs = {}
    try:
        os.makedirs(out_dir, exist_ok=True)
        os.mkdir(staging)
        yield stage
        for target in stage.outputs.values():
            if os.path.exists(target) and not os.path.isfile(target):
                raise IsADirectoryError(f"{target} is not a regular file")
        for target in stage.outputs.values():
            os.replace(os.path.join(staging, os.path.basename(target)),
                       target)
        made.clear()
    finally:  # staged files always go, made directories on a failure
        for target in stage.outputs.values():
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(staging, os.path.basename(target)))
        for path in [staging] + made:
            with contextlib.suppress(OSError):
                os.rmdir(path)


def cmd_simulate(args, command: str) -> int:
    config = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else config.master_seed
    policy = PolicyKind(args.policy)
    result = run_scenario(config, policy, seed)

    with publish(args.out) as stage:
        write_metrics_csv(stage("metrics.csv"), metrics_csv(result))
        manifest = build_manifest(command, config, seed, dict(stage.outputs),
                                  {policy: result})
        write_manifest(stage("manifest.json"), manifest)
    print(f"{policy.value}: mean residual after prefix "
          f"{result.mean_residual_after_prefix:.6f}, "
          f"{len(result.reallocation_ticks)} reallocations "
          f"(seed {seed})")
    return EXIT_OK


def cmd_compare(args, command: str) -> int:
    config = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else config.master_seed
    results = compare_policies(config, seed)
    summary = summarize(results)
    with publish(args.out) as stage:
        # each table is rendered once, for its own file and the joint one
        bodies = [metrics_csv(results[kind]) for kind in PolicyKind]
        for kind, body in zip(PolicyKind, bodies):
            write_metrics_csv(stage(f"metrics_{kind.value}.csv"), body)
        write_metrics_csv(stage("comparison.csv"), "".join(bodies))
        write_text(stage("comparison.svg"),
                   render_comparison_svg(results, config))
        write_text(stage("summary.txt"), summary)
        manifest = build_manifest(command, config, seed, dict(stage.outputs),
                                  results)
        write_manifest(stage("manifest.json"), manifest)
    print(summary, end="")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(["twinalloc", *argv])
    try:
        if args.command == "simulate":
            return cmd_simulate(args, command)
        return cmd_compare(args, command)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioValidationError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SolverError) or _has_solver_cause(exc.__cause__):
            return EXIT_SOLVER
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
