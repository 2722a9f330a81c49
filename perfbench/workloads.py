"""Workload inputs and independent answer checks for the gradedorbits benchmark.

Each workload turns a seed into a list of operations, always in the same
order, so that no operation's time depends on which one ran before it.  An
operation is one ``gradedorbits`` CLI call (argv without ``--json``) plus a
check that receives the parsed ``--json`` payload, raises ``CheckFailed``
when the answer is wrong and otherwise returns how many results it verified.

The checks share no code with the package: ranks, brackets, point counts,
Gaussian binomials and orbit counts are computed here from first principles.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import Callable

CASES_DIR = Path(__file__).resolve().parent.parent / "src" / "gradedorbits" / "cases"


class CheckFailed(Exception):
    """An output of the program contradicts an independent computation."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[dict], int]


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact linear algebra of the benchmark's own


def parse_matrix(text):
    """Matrix text ``a,b;c,d`` (entries may be ``p/q``) as Fraction rows."""
    return [[Fraction(x) for x in row.split(",")] for row in text.split(";")]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scaled(a, c):
    return [[c * x for x in row] for row in a]


def bracket(a, b):
    return matsub(matmul(a, b), matmul(b, a))


def rank(rows):
    """Rank over Q by fraction-free elimination with row content removal."""
    work = []
    for row in rows:
        den = 1
        for x in row:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
        ints = [int(Fraction(x) * den) for x in row]
        if any(ints):
            work.append(ints)
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = work[r]
        for i in range(r + 1, len(work)):
            a = work[i][col]
            if a:
                row = [p[col] * x - a * y for x, y in zip(work[i], p)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                work[i] = [x // g for x in row] if g > 1 else row
        r += 1
    return r


def support(m):
    return {(i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x}


# ---------------------------------------------------------------------------
# graded-orbits: type-A graded pieces over a ladder of cocharacters

# Five entries, so that the median operation time falls inside one entry's
# samples (the d = 7 one) rather than between two entries.
GRADED_LADDER = (
    ((1, 0, 0, 0, 0, -1), -1),
    ((1, 1, 0, 0, -1, -1), -1),
    ((1, 0, 0, 0, 0, 0, -1), -1),
    ((1, 1, 0, 0, 0, 0, -1, -1), -2),
    ((1, 1, 1, 1, -1, -1, -1, -1), -2),
)


def graded_variant(w, n, rng):
    """An isomorphic copy of the degree-n piece: weights and degree scaled by
    k, and the degree negated (the transposed piece) half of the time.  The
    cell pattern, and so the work, is the same for every variant."""
    k = rng.randint(1, 9)
    sign = rng.choice((1, -1))
    return tuple(k * x for x in w), sign * k * n


def chain_dims(w, n):
    """Weight multiplicities along each maximal chain u, u+n, u+2n, ..."""
    mult = {}
    for x in w:
        mult[x] = mult.get(x, 0) + 1
    chains = []
    for u in sorted(mult):
        if u - n in mult:
            continue
        dims = []
        while u in mult:
            dims.append(mult[u])
            u += n
        chains.append(tuple(dims))
    return chains


@lru_cache(maxsize=None)
def interval_multisets(dims, lo=0):
    """Number of multisets of intervals covering position i exactly dims[i]
    times.  Intervals starting at the first nonzero position are chosen with
    non-decreasing right ends, at least ``lo``."""
    a = next((i for i, x in enumerate(dims) if x), None)
    if a is None:
        return 1
    total = 0
    for b in range(a, len(dims)):
        if dims[b] == 0:
            break
        if b < lo:
            continue
        nxt = tuple(x - 1 if a <= i <= b else x for i, x in enumerate(dims))
        total += interval_multisets(nxt, b if nxt[a] else 0)
    return total


def count_graded_orbits(w, n):
    total = 1
    for dims in chain_dims(w, n):
        total *= interval_multisets(dims)
    return total


def orbit_dimension(w, x):
    """Rank of Y -> [Y, x] over block-diagonal Y (cells with w_i = w_j)."""
    d = len(w)
    rows = []
    for a in range(d):
        for b in range(d):
            if w[a] != w[b]:
                continue
            row = [0] * (d * d)
            for j in range(d):  # (E_ab x)_{a j} = x_{b j}
                if x[b][j]:
                    row[a * d + j] += x[b][j]
            for i in range(d):  # (x E_ab)_{i b} = x_{i a}
                if x[i][a]:
                    row[i * d + b] -= x[i][a]
            rows.append(row)
    return rank(rows)


def rank_invariants(w, n, x):
    """Ranks of x^k from weight space u to weight space u + k*n, for all u
    and k >= 1; these classify type-A graded orbits."""
    d = len(w)
    out = []
    power = x
    for k in range(1, d):
        for u in sorted(set(w)):
            src = [j for j in range(d) if w[j] == u]
            dst = [i for i in range(d) if w[i] == u + k * n]
            if dst:
                out.append(rank([[power[i][j] for j in src] for i in dst]))
        power = matmul(power, x)
    return tuple(out)


def check_graded_orbits(w, n):
    d = len(w)
    cells_n = [(i, j) for i in range(d) for j in range(d) if w[i] - w[j] == n]

    def check(payload):
        require(tuple(payload["cochar"]) == w and payload["degree"] == n,
                "echoed cochar/degree differ from the input")
        orbits = payload["orbits"]
        dims, invariants = [], set()
        for rec in orbits:
            x = parse_matrix(rec["representative"])
            require(support(x) <= set(cells_n),
                    f"{rec['label']}: representative has a cell outside degree {n}")
            dim = orbit_dimension(w, x)
            require(rec["dim"] == dim,
                    f"{rec['label']}: dim {rec['dim']} but rank of ad x on g_0 is {dim}")
            inv = rank_invariants(w, n, x)
            require(inv not in invariants,
                    f"{rec['label']}: block-rank invariants repeat an earlier orbit")
            invariants.add(inv)
            require(sum(rec["levi_blocks"]) == d, f"{rec['label']}: Levi blocks do not sum to {d}")
            dims.append(dim)
        expected = count_graded_orbits(w, n)
        require(len(orbits) == expected, f"{len(orbits)} orbits, interval count gives {expected}")
        require(max(dims) == len(cells_n), f"largest orbit dim {max(dims)} != dim g_n {len(cells_n)}")
        require(min(dims) == 0, "no zero orbit")
        return len(orbits)

    return check


def graded_orbits_ops(rng):
    ops = []
    for w, n in GRADED_LADDER:
        wv, nv = graded_variant(w, n, rng)
        argv = ("graded-orbits", "--cochar", ",".join(map(str, wv)), "--degree", str(nv))
        ops.append(Op(argv, check_graded_orbits(wv, nv)))
    return ops


# ---------------------------------------------------------------------------
# fibers: F_p point counts of the shipped fiber descriptions, and stalk tables

FIBER_PRIMES = (2, 3, 5, 7, 11, 13)
STALK_CHARS = (0, 3, 5, 2)
# flag dimension k and the strata every orbit is counted on
FIBER_SHAPE = {"sp4": (1, ("full", "zero", "cuspidal")), "sl4": (2, ("full", "cuspidal"))}


def partitions(n, bound=None):
    bound = n if bound is None else bound
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, bound), 0, -1) for rest in partitions(n - k, k)]


def partition_label(parts):
    pieces = []
    for value in sorted(set(parts), reverse=True):
        c = parts.count(value)
        pieces.append(f"{value}^{c}" if c > 1 else str(value))
    return "[" + ",".join(pieces) + "]"


def orbit_labels(case):
    """Nilpotent orbits of sl_4 (all partitions) or sp_4 (odd parts with even
    multiplicity)."""
    parts = partitions(4)
    if case == "sp4":
        parts = [p for p in parts if all(p.count(v) % 2 == 0 for v in p if v % 2)]
    return [partition_label(p) for p in parts]


def gaussian_binomial(d, k, q):
    """[d, k]_q by the q-Pascal rule."""
    if k == 0 or k == d:
        return 1
    return gaussian_binomial(d - 1, k - 1, q) + q**k * gaussian_binomial(d - 1, k, q)


def space_points(text, p):
    """F_p points of a fixture space expression such as (disjoint (proj 2) (aff 2))."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def read(pos):
        head, pos = tokens[pos + 1], pos + 2
        total, args = 0, []
        while tokens[pos] != ")":
            if tokens[pos] == "(":
                val, pos = read(pos)
                total += val
            else:
                args.append(int(tokens[pos]))
                pos += 1
        value = {
            "pt": lambda: 1,
            "aff": lambda: p ** args[0],
            "proj": lambda: sum(p**i for i in range(args[0] + 1)),
            "torus": lambda: p - 1,
            "projline-minus": lambda: p + 1 - args[0],
            "disjoint": lambda: total,
        }[head]()
        return value, pos + 1

    return read(0)[0]


@lru_cache(maxsize=None)
def fixture(case):
    return json.loads((CASES_DIR / f"{case}.json").read_text())


def predicted_counts(case, p):
    """{(orbit label, stratum): count} from the fixture's space expressions.

    A zero part flagged as a twisted pair is the pair a^2 + b^2 = 0 in P^1:
    1 point at p = 2, else 2 or 0 as p is 1 or 3 mod 4; the cuspidal part
    is the rest of the full fiber."""
    out = {}
    for rec in fixture(case)["orbits"]:
        label = partition_label(tuple(rec["partition"]))
        full = space_points(rec["full_fiber"], p)
        out[label, "full"] = full
        if rec.get("zero_part_twisted_pair"):
            zero = 1 if p == 2 else (2 if p % 4 == 1 else 0)
            out[label, "zero"], out[label, "cuspidal"] = zero, full - zero
            continue
        for stratum in ("zero", "cuspidal"):
            expr = rec.get(f"{stratum}_part")
            out[label, stratum] = space_points(expr, p) if expr else 0
    return out


def check_fibers(case, p):
    k, strata = FIBER_SHAPE[case]
    labels = orbit_labels(case)

    def check(payload):
        require(payload["case"] == case and payload["primes"] == [p], "echoed case/primes differ")
        rows = payload["rows"]
        require(payload["all_match"] is True and all(r["match"] for r in rows),
                f"{case} p={p}: the program reports a mismatch")
        require(len(rows) == len(labels) * len(strata),
                f"{case} p={p}: {len(rows)} rows, expected {len(labels)}x{len(strata)}")
        got = {(r["orbit"], r["stratum"]): r["count"] for r in rows}
        require(set(got) == {(o, s) for o in labels for s in strata},
                f"{case} p={p}: rows do not cover every orbit and stratum")
        expected = predicted_counts(case, p)
        for key, count in got.items():
            require(count == expected[key], f"{case} p={p} {key}: count {count} != {expected[key]}")
        zero_orbit = partition_label((1, 1, 1, 1))
        require(got[zero_orbit, "full"] == gaussian_binomial(4, k, p),
                f"{case} p={p}: zero orbit count is not [4,{k}]_{p}")
        if case == "sp4":
            for o in labels:
                require(got[o, "zero"] + got[o, "cuspidal"] == got[o, "full"],
                        f"sp4 p={p} {o}: zero + cuspidal != full")
        return len(rows)

    return check


def check_stalks(case, char):
    def check(payload):
        columns = payload["columns"]
        require(set(columns) == set(orbit_labels(case)), f"{case}: stalk columns are not the orbits")
        mixed = [label for label, col in columns.items() if len({int(d) % 2 for d in col}) > 1]
        if char == 2:
            require(mixed, f"{case}: no parity anomaly in characteristic 2")
        else:
            require(not mixed, f"{case} char {char}: columns {mixed} break parity")
        return 0

    return check


def fibers_ops(rng):
    """The shipped cases are the inputs; they do not depend on the seed."""
    ops = []
    for case in FIBER_SHAPE:
        for p in FIBER_PRIMES:
            ops.append(Op(("fibers", "--case", case, "--primes", str(p)), check_fibers(case, p)))
        for char in STALK_CHARS:
            extra = ("--allow-char-2",) if char == 2 else ()
            ops.append(Op(("stalks", "--case", case, "--char", str(char)) + extra,
                          check_stalks(case, char)))
    return ops


# ---------------------------------------------------------------------------
# primes: closed forms of Steinberg (torsion) and Herpel (pretty good)

PRIME_LADDER = (("sl", 3), ("sl", 4), ("sl", 5), ("sl", 6), ("sp", 4), ("sp", 6), ("sp", 8))


def prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def check_primes(kind, n):
    if kind == "sl":
        expected = {"good_excluded": [], "torsion": [],
                    "pretty_good_excluded": prime_divisors(n), "rather_good_excluded": prime_divisors(n)}
    else:
        expected = {key: [2] for key in
                    ("good_excluded", "torsion", "pretty_good_excluded", "rather_good_excluded")}

    def check(payload):
        require(payload == expected, f"{kind} {n}: {payload} != closed form {expected}")
        return 1

    return check


def primes_ops(rng):
    """The ladder is the input; it does not depend on the seed."""
    return [Op(("primes", "--type", kind, "--n", str(n)), check_primes(kind, n))
            for kind, n in PRIME_LADDER]


# ---------------------------------------------------------------------------
# triples: sl2-triples and canonical parabolics of random graded elements

TRIPLE_SPECS = (
    ("sl", (1, 0, 0, -1), -1),
    ("sl", (1, 1, 0, 0, -1, -1), 1),
    ("sl", (1, 1, 0, 0, 0, -1, -1), 1),
    ("sl", (2, 1, 1, 0, -1, -1, -2), -1),
    ("sp", (1, 0, -1, 0), 1),
    ("sp", (1, 1, 0, -1, -1, 0), 1),
    ("sp", (2, 1, 0, -2, -1, 0), 1),
    ("sp", (1, 1, 0, 0, -1, -1, 0, 0), 1),
)
ELEMENTS_PER_SPEC = 3


def piece_basis(kind, w, n):
    """Basis of the degree-n piece as lists of (row, col, entry) cells.

    For sp the form is [[0, I], [-I, 0]], so the algebra is
    [[A, B], [C, -A^T]] with B and C symmetric."""
    d = len(w)
    if kind == "sl":
        return [[(i, j, 1)] for i in range(d) for j in range(d) if w[i] - w[j] == n]
    m = d // 2
    out = [[(i, j, 1), (m + j, m + i, -1)] for i in range(m) for j in range(m) if w[i] - w[j] == n]
    for i in range(m):
        for j in range(i, m):
            if w[i] + w[j] == n:
                out.append([(i, m + j, 1), (j, m + i, 1)] if i != j else [(i, m + i, 1)])
            if -w[i] - w[j] == n:
                out.append([(m + i, j, 1), (m + j, i, 1)] if i != j else [(m + i, i, 1)])
    return out


def random_element(basis, d, rng):
    """A combination of the basis with coefficients drawn from {-2, -1, 1, 2}."""
    x = [[0] * d for _ in range(d)]
    for cells in basis:
        c = rng.choice((-2, -1, 1, 2))
        for i, j, s in cells:
            x[i][j] += c * s
    return x


def symplectic_form(d):
    m = d // 2
    return [[(1 if j == i + m else -1 if i == j + m else 0) for j in range(d)] for i in range(d)]


def in_sp(m, form):
    """Whether M^T B + B M = 0."""
    lhs = matmul([list(r) for r in zip(*m)], form)
    rhs = matmul(form, m)
    return all(a + b == 0 for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))


def chi_prime_fits(h, w, chi_prime):
    """Whether a block-diagonal p exists with p^-1 h p = diag(chi_prime):
    on each weight block of w, each value m of chi_prime occurs exactly
    nullity(h_block - m) times."""
    for u in set(w):
        idx = [i for i in range(len(w)) if w[i] == u]
        values = [chi_prime[i] for i in idx]
        for m in set(values):
            shifted = [[h[a][b] - (m if a == b else 0) for b in idx] for a in idx]
            if len(idx) - rank(shifted) != values.count(m):
                return False
    return True


def check_triple(kind, w, n, x):
    d = len(w)

    def check(payload):
        e, h, f = (parse_matrix(payload[k]) for k in ("e", "h", "f"))
        require(e == x, "e differs from the input element")
        require(bracket(h, e) == scaled(e, 2), "[h, e] != 2e")
        require(bracket(h, f) == scaled(f, -2), "[h, f] != -2f")
        require(bracket(e, f) == h, "[e, f] != h")
        for name, mat, deg in (("e", e, n), ("h", h, 0), ("f", f, -n)):
            require(all(w[i] - w[j] == deg for i, j in support(mat)), f"{name} is not in degree {deg}")
            if kind == "sp":
                require(in_sp(mat, symplectic_form(d)), f"{name} is not in sp")
        chi_prime = payload["chi_prime"]
        require(len(chi_prime) == d and chi_prime_fits(h, w, chi_prime),
                f"no block-diagonal p takes h to diag{tuple(chi_prime)}")
        return 0

    return check


def check_parabolic(d):
    def check(payload):
        blocks = payload["levi_blocks"]
        require(all(b > 0 for b in blocks) and sum(blocks) == d, f"Levi blocks {blocks} do not sum to {d}")
        return 1

    return check


def triples_ops(rng):
    elements = []
    for kind, w, n in TRIPLE_SPECS:
        basis = piece_basis(kind, w, n)
        for _ in range(ELEMENTS_PER_SPEC):
            elements.append((kind, w, n, random_element(basis, len(w), rng)))
    ops = []
    for kind, w, n, x in elements:
        args = ("--type", kind, "--d", str(len(w)), "--cochar", ",".join(map(str, w)),
                "--x", ";".join(",".join(map(str, r)) for r in x), "--degree", str(n))
        frac_x = [[Fraction(v) for v in r] for r in x]
        ops.append(Op(("triple",) + args, check_triple(kind, w, n, frac_x)))
        ops.append(Op(("parabolic",) + args, check_parabolic(len(w))))
    return ops


WORKLOADS = {
    "graded-orbits": graded_orbits_ops,
    "fibers": fibers_ops,
    "primes": primes_ops,
    "triples": triples_ops,
}


def operations(workload, seed):
    """The operations of one round; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
