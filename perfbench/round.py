"""One round of a benchmark workload, in a process of its own.

    python3 perfbench/round.py WORKLOAD SEED [--check] [--spans PATH]

Imports gradedorbits from ``src/`` and runs the workload's operations for
the seed through ``gradedorbits.cli.run`` with ``--json``, one after
another, timing each call in seconds and in host-adjusted seconds (see
``pace.py``).  Prints one JSON object with both times and the sha256 of
the stdout of every call that exited 0, and the calls that failed.  With ``--check`` every answer also goes through the independent
checks of ``workloads.py``, and the number of results each verified
answer stands for is returned.  With ``--spans`` the timed calls
are traced, the spans are written to PATH and the per-layer counts and
times are returned; such a round samples no pace and gives seconds only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from pace import Pace
from workloads import CheckFailed, operations

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gradedorbits import cli  # noqa: E402


def execute(run, argv, pace):
    """(seconds, adjusted seconds, exit code, stdout) of one in-process CLI
    call; adjusted seconds are None without ``pace``."""
    out = io.StringIO()
    gc.collect()  # start every call from the same collector state
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        if pace:
            code, elapsed, adjusted = pace.timed(lambda: run([*argv, "--json"]))
        else:
            t0 = perf_counter()
            code = run([*argv, "--json"])
            elapsed, adjusted = perf_counter() - t0, None
    return elapsed, adjusted, code, out.getvalue()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    tracer = None
    pace = Pace()
    run = cli.run
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        pace = None  # samples would land inside the spans
        run = tracer.wrap(cli.run, "cli.run", "benchmark")

    record = {"ops": [], "failures": [], "problems": [], "verified": {}}
    answers = []
    for op in operations(args.workload, args.seed):
        label = " ".join(op.argv)
        if tracer:
            tracer.install()
        try:
            elapsed, adjusted, code, out = execute(run, op.argv, pace)
        except Exception as exc:  # a crash of the program is a failed operation
            record["failures"].append(f"{label}: raised {exc!r}")
            continue
        finally:
            if tracer:
                tracer.uninstall()
        if code:
            record["failures"].append(f"{label}: exit code {code}")
            continue
        digest = hashlib.sha256(out.encode()).hexdigest()
        record["ops"].append([list(op.argv), elapsed, adjusted, digest])
        if args.check:
            answers.append((op, label, out))
    # measured before the checks run, and checked after the last call, so
    # that no check runs between timed calls or adds to the peak
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, label, out in answers:
        try:
            record["verified"][label] = op.check(json.loads(out))
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            record["problems"].append(f"{label}: {exc}")

    if tracer:
        record["layer_metrics"] = tracer.layer_metrics()
        tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
