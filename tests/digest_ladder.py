"""The exit code and the sha256 of stdout and of stderr of a fixed ladder of
``gradedorbits`` calls, one line per call, to tell whether two checkouts
print the same bytes:

    python3 tests/digest_ladder.py > before.txt   # in one checkout
    python3 tests/digest_ladder.py > after.txt    # in the other
    diff before.txt after.txt

The ladder is every operation of the four benchmark workloads of
``perfbench/workloads.py`` for seeds 1-10, ``orbits`` for n = 1..12 in sl
and sp, ``graded-orbits`` at and past its bounds, ``fibers`` of sl4 and
sp4 at p = 127 and at every prime up to 127, and the edge and refusal
calls of ``EDGE_CASES``, each with and without ``--json``; then one call of
each subcommand in the spellings that ``spellings`` lists, those that the
reader of ``cli.COMMANDS`` takes and those that go to argparse, with its
errors and help.  Every call runs in-process through
``gradedorbits.cli.run`` of the checkout this file lives in.  Standard
library only; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gradedorbits import cli  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

SEEDS = range(1, 11)

# graded-orbits at its bounds: the one chain of block sizes 2, 2, 5, 4, 5, 5
# (10,000 orbits, the most listed) and 1, 7, 4, 3, 7, 7 (10,080, refused); a
# chain of 201 weights (2^200 orbits); four blocks of 300 in one chain
# (refused); two chains of 89 x 112 = 9,968 orbits (listed) and of
# 60 x 167 = 10,020 (refused), where only the product decides; d = 2300 and
# 2301 in degree 1, at and past the most cells printed; d = 1; and the
# chain of blocks 26,000, 36 and 26,000 (refused), about the longest
# --cochar that one shell argument of 128 KiB holds
BOUND_CASES = (
    ([3] * 2 + [2] * 2 + [1] * 5 + [0] * 4 + [-1] * 5 + [-2] * 5, -1),
    ([3] + [2] * 7 + [1] * 4 + [0] * 3 + [-1] * 7 + [-2] * 7, -1),
    (list(range(100, -101, -1)), -1),
    ([3] * 300 + [1] * 300 + [-1] * 300 + [-3] * 300, -2),
    ([3] * 3000 + [1] * 3000 + [-1] * 3000 + [-3] * 3000, -2),
    (list(range(7, -8, -1)), -1),
    (list(range(13, -14, -2)), -2),
    ([13] * 2 + [12] * 3 + [11] * 4 + [10] * 2 + [-9] * 3 + [-10] * 3 + [-11] * 3 + [-12] * 3, -1),
    ([6] + [5] * 4 + [4] * 3 + [3] * 3 + [-2] * 2 + [-3] * 4 + [-4] * 4 + [-5] * 3, -1),
    ([0] * 2300, 1),
    ([0] * 2301, 1),
    ([0], 1),
    ([1] * 26000 + [0] * 36 + [-1] * 26000, -1),
)

# fibers at its bound: the largest prime, and every prime up to it
FIBER_BOUND_PRIMES = ("127", ",".join(str(p) for p in range(2, 128)
                                      if all(p % q for q in range(2, p))))

# calls that reach what no call above reaches: a zero x with the
# parabolic (the zero triple) and with triple; the self-linked cell of an
# sp grading; stalks at a prime that Miller-Rabin decides and at 1; and the
# refusals of an odd sp dimension, a wrong weight count, an x of the wrong
# shape, ragged rows, weights that do not sum to 0 or are not paired by
# the form, and an x outside g_n
ZERO_2 = ["--type", "sl", "--d", "2", "--cochar", "1,-1", "--x", "0,0;0,0"]
EDGE_CASES = (
    ["parabolic", *ZERO_2, "--degree", "2"],
    ["parabolic", *ZERO_2, "--degree", "0"],
    ["grading", "--type", "sp", "--d", "4", "--cochar", "1,0,-1,0", "--degree", "2"],
    ["stalks", "--case", "sp4", "--char", "1999"],
    ["stalks", "--case", "sp4", "--char", "1"],
    ["grading", "--type", "sp", "--d", "3", "--cochar", "1,0,-1", "--degree", "1"],
    ["grading", "--type", "sl", "--d", "4", "--cochar", "1,0,-1", "--degree", "1"],
    ["triple", "--type", "sl", "--d", "3", "--cochar", "1,0,-1", "--x", "0,1;0,0", "--degree", "1"],
    ["triple", "--type", "sl", "--d", "2", "--cochar", "1,-1", "--x", "0,1;0", "--degree", "2"],
    ["grading", "--type", "sl", "--d", "2", "--cochar", "1,0", "--degree", "1"],
    ["grading", "--type", "sp", "--d", "4", "--cochar", "1,0,1,0", "--degree", "1"],
    ["triple", *ZERO_2, "--degree", "2"],
    ["triple", "--type", "sl", "--d", "2", "--cochar", "1,-1", "--x", "0,0;1,0", "--degree", "2"],
)

SL_X = "0,0,0,0;1,0,0,0;0,0,0,0;0,0,1,0"
# one call of each subcommand: its options with their values, and switches
SPELLED_CALLS = (
    ("orbits", [("--type", "sp"), ("--n", "4")], []),
    ("graded-orbits", [("--cochar", "1,1,0,-1,-1"), ("--degree", "-1")], []),
    ("grading", [("--type", "sp"), ("--d", "4"), ("--cochar", "-1,0,1,0"), ("--degree", "1")], []),
    ("triple", [("--type", "sl"), ("--d", "4"), ("--cochar", "1,0,0,-1"), ("--x", SL_X),
                ("--degree", "-1")], []),
    ("parabolic", [("--type", "sl"), ("--d", "4"), ("--cochar", "1,0,0,-1"), ("--x", SL_X),
                   ("--degree", "-1")], []),
    ("primes", [("--type", "sl"), ("--n", "6")], []),
    ("fibers", [("--case", "sl4"), ("--primes", "2,3")], []),
    ("stalks", [("--case", "sp4"), ("--char", "2")], ["--allow-char-2"]),
)


def ladder():
    """Each argv of the ladder, without ``--json``."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            for op in operations(workload, seed):
                yield list(op.argv)
    for kind in ("sl", "sp"):
        for n in range(1, 13):
            yield ["orbits", "--type", kind, "--n", str(n)]
    for weights, degree in BOUND_CASES:
        yield ["graded-orbits", "--cochar", ",".join(map(str, weights)), "--degree", str(degree)]
    for case in ("sl4", "sp4"):
        for primes in FIBER_BOUND_PRIMES:
            yield ["fibers", "--case", case, "--primes", primes]
    yield from EDGE_CASES


def spellings(command, pairs, switches):
    """The call in canonical form, =-joined and in reverse order, and then
    spelled so that argparse parses it (an abbreviated option, a repeated
    option or switch) or rejects it: a missing option, each value replaced
    by x, an unknown option, a stray token, an option without its value, a
    bare ``--c`` (ambiguous where two options start so), a switch with a
    value, ``--``, and an option before the subcommand; and ``-h`` after
    the options."""
    flat = [token for pair in pairs for token in pair]
    call = [command, *flat, *switches]
    longest = max(range(len(pairs)), key=lambda i: len(pairs[i][0]))
    abbreviated = [(f[:-1] if i == longest else f, v) for i, (f, v) in enumerate(pairs)]
    yield call
    yield [command, *(f"{flag}={value}" for flag, value in pairs), *switches]
    yield [command, *switches, *(token for pair in reversed(pairs) for token in pair)]
    yield [command, *(token for pair in abbreviated for token in pair), *switches]
    yield call + list(pairs[0])
    yield call + ["--json", "--json"]
    yield [command, *flat[:-2], *switches]
    for i in range(len(pairs)):
        yield [command, *flat[: 2 * i + 1], "x", *flat[2 * i + 2 :], *switches]
    yield call + ["--bogus"]
    yield call + ["stray"]
    yield call + [pairs[0][0]]
    yield call + ["--c"]
    yield call + ["--json=1"]
    yield call + ["--", "--json"]
    yield ["--json", *call]
    yield call + ["-h"]


def digest_line(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {sha[0]} {sha[1]} {' '.join(argv)}"


def main() -> None:
    for argv in ladder():
        for extra in ([], ["--json"]):
            print(digest_line(argv + extra), flush=True)
    for spelled in SPELLED_CALLS:
        for argv in spellings(*spelled):
            print(digest_line(argv), flush=True)


if __name__ == "__main__":
    main()
