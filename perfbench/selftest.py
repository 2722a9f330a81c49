"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

Runs the CLI on small inputs from the source checkout, requires each
checker to accept the real answer, then plants one wrong answer per
checker (an orbit dimension plus 1, a fiber count plus 1, an extra prime,
a perturbed h, a parity break) and requires the checker to reject it.
Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

from workloads import (
    CheckFailed,
    check_fibers,
    check_graded_orbits,
    check_parabolic,
    check_primes,
    check_stalks,
    check_triple,
    parse_matrix,
    piece_basis,
    random_element,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gradedorbits.cli import run  # noqa: E402


def payload(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run([*argv, "--json"])
    if code:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def plus_one_dim(p):
    p["orbits"][1]["dim"] += 1


def plus_one_count(p):
    p["rows"][-1]["count"] += 1
    p["rows"][-1]["predicted"] += 1


def extra_prime(p):
    p["torsion"] = sorted(p["torsion"] + [7])


def perturbed_h(p):
    h = parse_matrix(p["h"])
    h[0][0] += 1
    h[-1][-1] -= 1
    p["h"] = ";".join(",".join(str(x) for x in row) for row in h)


def parity_break(p):
    p["columns"]["[4]"] = {"-2": 1, "-1": 1}


def cases():
    w, n = (1, 1, 0, 0, -1, -1), -1
    yield "graded-orbit dim + 1", check_graded_orbits(w, n), plus_one_dim, payload(
        "graded-orbits", "--cochar", "1,1,0,0,-1,-1", "--degree", "-1")
    yield "fiber count + 1", check_fibers("sp4", 5), plus_one_count, payload(
        "fibers", "--case", "sp4", "--primes", "5")
    yield "sl4 fiber count + 1", check_fibers("sl4", 3), plus_one_count, payload(
        "fibers", "--case", "sl4", "--primes", "3")
    yield "extra torsion prime", check_primes("sp", 4), extra_prime, payload(
        "primes", "--type", "sp", "--n", "4")
    yield "extra SL prime", check_primes("sl", 4), extra_prime, payload(
        "primes", "--type", "sl", "--n", "4")
    yield "stalk parity break", check_stalks("sp4", 3), parity_break, payload(
        "stalks", "--case", "sp4", "--char", "3")
    for kind, w, n in (("sl", (1, 1, 0, 0, -1, -1), 1), ("sp", (1, 1, 0, -1, -1, 0), 1)):
        x = random_element(piece_basis(kind, w, n), len(w), random.Random(0))
        args = ("--type", kind, "--d", str(len(w)), "--cochar", ",".join(map(str, w)),
                "--x", ";".join(",".join(map(str, r)) for r in x), "--degree", str(n))
        yield (f"{kind} perturbed h", check_triple(kind, w, n, parse_matrix(args[-3])),
               perturbed_h, payload("triple", *args))
        yield (f"{kind} Levi blocks", check_parabolic(len(w)),
               lambda p: p["levi_blocks"].append(1), payload("parabolic", *args))


def main():
    bad = 0
    for name, check, plant, good in cases():
        try:
            check(copy.deepcopy(good))
        except CheckFailed as exc:
            print(f"FAIL {name}: the real answer was rejected: {exc}")
            bad += 1
            continue
        wrong = copy.deepcopy(good)
        plant(wrong)
        try:
            check(wrong)
        except CheckFailed as exc:
            print(f"ok   {name}: rejected ({exc})")
        else:
            print(f"FAIL {name}: the planted wrong answer was accepted")
            bad += 1
    print("selftest " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
