"""Command-line front end: single-policy runs and the four-way comparison.

Exit codes: 0 success, 1 invalid scenario/config or command line, 2 I/O
failure, 3 solver failure. The scenario file is read and validated before
any output path is touched, so failed invocations leave no partial files.
"""

from __future__ import annotations

import argparse
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


def _command_string(argv) -> str:
    return " ".join(["twinalloc"] + list(argv))


def _has_solver_cause(exc: BaseException | None) -> bool:
    while exc is not None:
        if isinstance(exc, SolverError):
            return True
        exc = exc.__cause__
    return False


def cmd_simulate(args, argv) -> int:
    config = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else config.master_seed
    policy = PolicyKind(args.policy)
    result = run_scenario(config, policy, seed)

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "metrics.csv")
    manifest_path = os.path.join(args.out, "manifest.json")
    write_metrics_csv(csv_path, metrics_csv(result))
    manifest = build_manifest(_command_string(argv), config, seed,
                              outputs={"metrics_csv": csv_path},
                              results={policy: result})
    write_manifest(manifest_path, manifest)
    print(f"{policy.value}: mean residual after prefix "
          f"{result.mean_residual_after_prefix:.6f}, "
          f"{len(result.reallocation_ticks)} reallocations "
          f"(seed {seed})")
    return EXIT_OK


def cmd_compare(args, argv) -> int:
    config = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else config.master_seed
    results = compare_policies(config, seed)

    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    # each policy's table is rendered once, for its own file and the joint one
    bodies = [metrics_csv(results[kind]) for kind in PolicyKind]
    for kind, body in zip(PolicyKind, bodies):
        path = os.path.join(args.out, f"metrics_{kind.value}.csv")
        write_metrics_csv(path, body)
        outputs[f"metrics_{kind.value}_csv"] = path

    combined_path = os.path.join(args.out, "comparison.csv")
    write_metrics_csv(combined_path, "".join(bodies))
    outputs["comparison_csv"] = combined_path

    svg_path = os.path.join(args.out, "comparison.svg")
    write_text(svg_path, render_comparison_svg(results, config))
    outputs["comparison_svg"] = svg_path

    summary = summarize(results)
    summary_path = os.path.join(args.out, "summary.txt")
    write_text(summary_path, summary)
    outputs["summary_txt"] = summary_path

    manifest = build_manifest(_command_string(argv), config, seed,
                              outputs=outputs, results=results)
    write_manifest(os.path.join(args.out, "manifest.json"), manifest)
    print(summary, end="")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args, argv)
        return cmd_compare(args, argv)
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
