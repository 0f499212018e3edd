"""One benchmark command in a fresh interpreter.

    python3 child.py RESULT MODE SRC SCENARIO [CLI ARGS...]

MODE is ``setup`` (import the package and load the scenario, then stop),
``run`` (also call ``twinalloc.cli.main`` on the CLI arguments) or ``trace``
(the same call with every layer boundary wrapped in a span). The moment the
scenario is loaded is stamped on the system-wide monotonic clock, so the
parent can time set-up from the moment it spawned this process. Results go
to the JSON file RESULT; the CLI's own stdout is swallowed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time


def _environment() -> dict:
    import numpy
    solver = sys.modules.get("twinalloc.solver")
    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"numpy": numpy.__version__, "numba_imports": numba_imports,
            "have_numba": getattr(solver, "HAVE_NUMBA", None)}


def main(argv) -> int:
    result_path, mode, src, scenario = argv[:4]
    cli_argv = argv[4:]
    sys.path.insert(0, os.path.abspath(src))
    cli = importlib.import_module("twinalloc.cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        print(f"twinalloc imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 1
    load = getattr(cli, "load_scenario", None)
    if load is not None:
        load(scenario)
    record = {"ready_ns": time.monotonic_ns()}

    if mode == "setup":
        record["env"] = _environment()
    else:
        entry, recorder = cli.main, None
        if mode == "trace":
            from tracer import ROOT_KEY, SpanRecorder
            recorder = SpanRecorder()
            record["missing_sites"] = recorder.install()
            entry = recorder.wrap(cli.main, ROOT_KEY)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter_ns()
                cpu_start = time.process_time_ns()
                rc = entry(cli_argv)
                record["run_ns"] = time.perf_counter_ns() - start
                record["cpu_ns"] = time.process_time_ns() - cpu_start
        finally:
            if recorder is not None:
                recorder.restore()
        record["rc"] = rc
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            record["trace"] = recorder.table()

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
