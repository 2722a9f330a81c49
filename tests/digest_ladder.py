"""The exit code and the sha256 of stdout and of stderr of a fixed ladder of
``gradedorbits`` calls, one line per call, to tell whether two checkouts
print the same bytes:

    python3 tests/digest_ladder.py > before.txt   # in one checkout
    python3 tests/digest_ladder.py > after.txt    # in the other
    diff before.txt after.txt

The ladder is every operation of the four benchmark workloads of
``perfbench/workloads.py`` for seeds 1-10, ``orbits`` for n = 1..12 in sl
and sp, and ``graded-orbits`` at and past its bounds, each with and without
``--json``.  Every call runs in-process through ``gradedorbits.cli.run`` of
the checkout this file lives in.  Standard library only; pytest does not
collect it.
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
# 2301 in degree 1, at and past the most cells printed; and d = 1
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


if __name__ == "__main__":
    main()
