"""Benchmark of the gradedorbits CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed fixes the workload's operations.  Rounds of all of
them run one after another, each in a fresh single-threaded process
(``round.py``), until the next round would end after ``--seconds``; at
least two rounds run, so every operation's output is produced at least
twice.  Each round's outputs must equal round 0's byte for byte, and round
0's answers are checked against independent computations.

``--trace 0`` prints the end-to-end metrics.  Their times are
host-adjusted seconds (see ``pace.py``); the unadjusted wall time is
printed as a line of text and kept in ``.bench_out/``.  ``--trace 1``
spends half the time on untraced rounds, then runs one traced round and
prints the per-layer metrics.  The last stdout line is the JSON result.  The sha256
digest of every output, and the spans of a traced round, are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from pace import adjusted, sample
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_REPEATS = 9
P90_MIN_OPS = 100
SETUP_COMMAND = ("orbits", "--type", "sl", "--n", "3", "--json")
SETUP_EXPECTED = [([3], 6), ([2, 1], 4), ([1, 1, 1], 0)]  # sl_3 orbits: regular, minimal, zero


class BenchmarkError(Exception):
    pass


def measure_setup():
    """Median host-adjusted wall time of a fresh interpreter running a
    trivial command, with the host's pace sampled before and after each.

    One untimed start first writes the bytecode caches, as a user's first
    start does once."""
    cmd = [sys.executable, "-m", "gradedorbits.cli", *SETUP_COMMAND]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = sample()
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up command exited {proc.returncode}: {proc.stderr.strip()}")
        got = [(o["partition"], o["dim"]) for o in json.loads(proc.stdout)["orbits"]]
        if got != SETUP_EXPECTED:
            raise BenchmarkError(f"set-up command printed {got}")
        if i:
            times.append(adjusted(elapsed, (before, sample())))
    return statistics.median(times)


def run_round(workload, seed, start, check=False, spans=None):
    cmd = [sys.executable, str(HERE / "round.py"), workload, str(seed)]
    if check:
        cmd.append("--check")
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = max(DEADLINE_S - (perf_counter() - start), 1)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"a round did not end within the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchmarkError(f"a round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def run_rounds(workload, seed, budget, minimum, start):
    """Untraced rounds, the first one checked, while the next one is
    expected to end within ``budget`` seconds of ``start``; at least
    ``minimum``."""
    rounds = []
    while True:
        t0 = perf_counter()
        rounds.append(run_round(workload, seed, start, check=not rounds))
        now = perf_counter()
        if len(rounds) >= minimum and now - start + (now - t0) > budget:
            return rounds


def wall(rnd):
    """Host-adjusted seconds of a round's operations."""
    return sum(seconds for _, _, seconds, _ in rnd["ops"])


def raw_wall(rnd):
    return sum(seconds for _, seconds, _, _ in rnd["ops"])


def compare_with_first(rounds):
    """Per round, the number of verified results it reproduced byte for
    byte; and a problem for every output that differs from round 0's."""
    first = rounds[0]
    reference = {" ".join(argv): digest for argv, _, _, digest in first["ops"]}
    results, problems = [], []
    for index, rnd in enumerate(rounds):
        count = 0
        for argv, _, _, digest in rnd["ops"]:
            label = " ".join(argv)
            if digest != reference.get(label):
                problems.append(f"{label}: round {index} printed other output than round 0")
            else:
                count += first["verified"].get(label, 0)
        results.append(count)
    return results, problems


def end_to_end_metrics(rounds, results, setup_s):
    """Every round runs the same operations; ``op_p50_s`` is the median,
    over the operations, of each one's median time over the rounds."""
    per_op = {}
    for rnd in rounds:
        for argv, _, seconds, _ in rnd["ops"]:
            per_op.setdefault(" ".join(argv), []).append(seconds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.mean(map(wall, rounds)), "s"),
        "op_p50_s": (statistics.median(map(statistics.median, per_op.values())), "s"),
        "results_per_s": (sum(results) / sum(map(wall, rounds)), "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def layer_metrics(rounds, results):
    traced = rounds[-1]
    untraced = rounds[:-1]
    metrics = {k: tuple(v) for k, v in traced["layer_metrics"].items()}
    calls = metrics["liegrade.graded_component.calls"][0]
    metrics["liegrade.graded_component_per_result"] = (
        calls / results[-1] if results[-1] else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        raw_wall(traced) - statistics.median(map(raw_wall, untraced)), "s")
    return metrics


def combined_digest(ops):
    lines = "".join(f"{json.dumps(argv)} {digest}\n" for argv, _, _, digest in ops)
    return hashlib.sha256(lines.encode()).hexdigest()


def measure(args, start):
    """(rounds, problems, metrics) of one benchmark run."""
    if args.trace:
        rounds = run_rounds(args.workload, args.seed, args.seconds / 2, 1, start)
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        rounds.append(run_round(args.workload, args.seed, start, spans=spans))
        results, problems = compare_with_first(rounds)
        return rounds, problems, layer_metrics(rounds, results)
    setup_s = measure_setup()
    rounds = run_rounds(args.workload, args.seed, args.seconds, 2, start)
    results, problems = compare_with_first(rounds)
    return rounds, problems, end_to_end_metrics(rounds, results, setup_s)


def main(argv=None):
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gradedorbits" / "cli.py").is_file():
        print(f"error: no gradedorbits sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        rounds, problems, metrics = measure(args, start)
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in rounds for f in r["failures"]]
    problems = [p for r in rounds for p in r["problems"]] + problems
    for line in failures[:10] + problems[:10]:
        print(f"problem: {line}", file=sys.stderr)
    op_seconds = [seconds for r in rounds for _, _, seconds, _ in r["ops"]]
    print(f"{args.workload}: {len(rounds)} rounds, {len(op_seconds)} timed operations, "
          f"outputs sha256 {combined_digest(rounds[0]['ops'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace and len(op_seconds) >= P90_MIN_OPS:
        print(f"op_p90_s = {statistics.quantiles(op_seconds, n=10)[-1]:.6g} s "
              f"(of {len(op_seconds)} operations)")
    if not args.trace:
        print(f"unadjusted wall_s = {statistics.mean(map(raw_wall, rounds)):.6g} s "
              f"(rounds: {', '.join(f'{raw_wall(r):.4g}' for r in rounds)})")

    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "op_seconds": [[seconds for _, seconds, _, _ in r["ops"]] for r in rounds],
        "op_adjusted_seconds": [[seconds for _, _, seconds, _ in r["ops"]] for r in rounds],
        "outputs": [{"argv": argv, "sha256": digest} for argv, _, _, digest in rounds[0]["ops"]],
        "metrics": result, "failures": failures, "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(op_seconds) + len(failures),
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
