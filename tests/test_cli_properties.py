"""Property test of the CLI contract: any argv of any subcommand either
succeeds (exit 0), is rejected (exit 2) with a message that names one of
the subcommand's options, or reports a fiber mismatch (exit 3), and never
escapes ``cli.run`` as an exception.  Needs Hypothesis (the
``test`` extra); without it this module is skipped.

Each argv is mostly well formed, so that it reaches the computation, with
one option dropped or replaced by junk now and then.  Sizes are drawn from
small values, where an accepted input takes well under 0.1 s, and from the
first value past each documented bound, which is rejected before any work
is done; primes, a closed form, draws every accepted n.  The --json
payload of every exit 0 of orbits, graded-orbits, grading, triple,
parabolic, fibers and stalks is checked from the definitions, and that of
primes from closed forms.
A second property draws only well-formed
triple and parabolic argvs with a nonzero x in g_n: by graded
Jacobson-Morozov each has a graded sl2-triple, so each must exit 0.
A third draws the spellings of each subcommand's options, canonical and
not, and checks the reader of ``cli.COMMANDS`` against argparse."""

import contextlib
import functools
import io
import json
import re
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedorbits import cli, exactlin

from oracles import (
    check_fibers_payload,
    check_graded_orbits_payload,
    fraction_rref,
    is_prime_by_trial_division,
    partition_label,
)

JUNK = ["", "x", "1.5", "1,,2", "0x10", "-", "1;0"]
# past the orbit bound: one chain of block sizes 1, 7, 4, 3, 7, 7 (10,080
# orbits); past the cell bound: one orbit of 2,301 zero weights
PAST_ORBIT_BOUND = [3] + [2] * 7 + [1] * 4 + [0] * 3 + [-1] * 7 + [-2] * 7
PAST_CELL_BOUND = [0] * 2301


def ints(values):
    return ",".join(map(str, values))


def mostly(draw, usual, *rare):
    """A value drawn from the strategy ``usual``, or now and then one of
    ``rare``."""
    if rare and draw(st.integers(0, 9)) == 7:  # not 0, which Hypothesis favours
        return draw(st.sampled_from(rare))
    return draw(usual)


def kind(draw):
    return mostly(draw, st.sampled_from(["sl", "sp"]), "so")


def case(draw):
    return mostly(draw, st.sampled_from(["sp4", "sl4"]), "sp6")


def cochar_weights(draw, kind_, d):
    """d weights in -2..2: weakly decreasing with zero sum for sl, of the
    form (w, -w) for sp, and now and then any d weights."""
    w = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    if kind_ == "sp" and d % 2 == 0:
        return mostly(draw, st.just(w[: d // 2] + [-a for a in w[: d // 2]]), w)
    if kind_ == "sl" and d > 1:
        w[-1] -= sum(w)
        return mostly(draw, st.just(sorted(w, reverse=True)), w)
    return w


def graded_rows(draw, kind_, weights, n, nonzero=False):
    """The rows of a d x d matrix of the algebra that is nonzero only on
    cells of degree n, and when ``nonzero`` on the first of them.  In sp_2m,
    with the form [[0, I], [-I, 0]], it is [[A, B], [C, -A^T]] with B and C
    symmetric."""
    d = len(weights)
    x = [[0] * d for _ in range(d)]
    m = d // 2 if kind_ == "sp" else 0
    for i in range(d):
        for j in range(d):
            if weights[i] - weights[j] != n or x[i][j]:
                continue
            a = draw(st.sampled_from([1, -1, 2] if nonzero else [1, -1, 2, 0]))
            nonzero = False
            if not m:
                x[i][j] = a
            elif i < m and j < m:  # A, and -A^T
                x[i][j], x[m + j][m + i] = a, -a
            elif (i < m) != (j < m):  # B or C, symmetric
                x[i][j] = x[j - m if j >= m else j + m][i + m if i < m else i - m] = a
    return x


def graded_element(draw, kind_, weights, n):
    """``graded_rows`` as matrix text, now and then with its first column
    shifted by one."""
    noise = mostly(draw, st.just(0), 1)
    return ";".join(ints([r[0] + noise, *r[1:]]) for r in graded_rows(draw, kind_, weights, n))


@st.composite
def argv_of(draw, command, pairs, flags=("--json", "--quiet")):
    """command, the options as ``--name=value`` or as ``--name value`` in a
    drawn order (now and then one dropped or given a junk value), and a
    drawn subset of the flags."""
    pairs = list(pairs)
    action = draw(st.sampled_from(["keep"] * 6 + ["drop", "junk"]))
    if action != "keep":
        i = draw(st.integers(0, len(pairs) - 1))
        if action == "drop":
            del pairs[i]
        else:
            pairs[i] = (pairs[i][0], draw(st.sampled_from(JUNK)))
    pairs = draw(st.permutations(pairs))
    chosen = draw(st.lists(st.sampled_from(flags), unique=True))
    if draw(st.booleans()):
        options = [f"{name}={value}" for name, value in pairs]
    else:
        options = [token for pair in pairs for token in pair]
    return [command, *options, *chosen]


@st.composite
def orbits_argv(draw):
    n = mostly(draw, st.integers(1, 12), -2, 0, cli.MAX_ORBITS_N + 1)
    pairs = [("--type", kind(draw)), ("--n", str(n))]
    return draw(argv_of("orbits", pairs))


@st.composite
def graded_orbits_argv(draw):
    if draw(st.integers(0, 4)) == 0:
        weights = draw(st.sampled_from([PAST_ORBIT_BOUND, PAST_CELL_BOUND]))
        n = draw(st.sampled_from([-1, 1]))
    else:
        weights = cochar_weights(draw, "sl", draw(st.integers(1, 6)))
        n = mostly(draw, st.sampled_from([-1, 1, -2, 2, -3, 3]), 0)
    pairs = [("--cochar", ints(weights)), ("--degree", str(n))]
    return draw(argv_of("graded-orbits", pairs))


@st.composite
def piece_argv(draw, command):
    """grading, triple or parabolic on an algebra of dimension d <= 6, with
    now and then a --d or --cochar that does not fit or the first --d past
    its bound, and for triple and parabolic an --x of degree n."""
    kind_ = kind(draw)
    d = 2 * draw(st.integers(1, 3)) if kind_ == "sp" else draw(st.integers(1, 5))
    weights = cochar_weights(draw, kind_, d)
    n = mostly(draw, st.sampled_from([-2, -1, 1, 2]), 0)
    d_value = mostly(draw, st.just(d), -1, 0, d + 1)
    if draw(st.integers(0, 4)) == 0:
        d_value = cli.MAX_GRADING_D + 1
    pairs = [
        ("--type", kind_),
        ("--d", str(d_value)),
        ("--cochar", ints(mostly(draw, st.just(weights), weights[:-1]))),
        ("--degree", str(n)),
    ]
    if command != "grading":
        pairs.append(("--x", graded_element(draw, kind_, weights, n)))
    return draw(argv_of(command, pairs))


@st.composite
def graded_nilpotent_argv(draw, command):
    """triple or parabolic with every option well formed: sl_d (d <= 5) or
    sp_d (d <= 6) under a cocharacter that fits it, a nonzero degree n of
    some cell, and a nonzero x in g_n."""
    kind_ = draw(st.sampled_from(["sl", "sp"]))
    if kind_ == "sl":
        weights = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        weights.append(-sum(weights))
    else:
        half = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        weights = half + [-a for a in half]
    if not any(weights):
        # every cell has degree 0: make one pair of weights differ
        weights[0], weights[len(weights) // 2 if kind_ == "sp" else -1] = 1, -1
    n = draw(st.sampled_from(sorted({a - b for a in weights for b in weights} - {0})))
    x = graded_rows(draw, kind_, weights, n, nonzero=True)
    return [command, f"--type={kind_}", f"--d={len(weights)}", f"--cochar={ints(weights)}",
            f"--x={';'.join(map(ints, x))}", f"--degree={n}"]


@st.composite
def primes_argv(draw):
    # every accepted n, and SL(22) and Sp(28), the first past the bound on n
    kind_ = kind(draw)
    if kind_ == "sl":
        n = mostly(draw, st.integers(2, 21), -1, 1, 22)
    else:
        n = mostly(draw, st.sampled_from(range(2, 27, 2)), -1, 0, 5, 28)
    return draw(argv_of("primes", [("--type", kind_), ("--n", str(n))]))


@st.composite
def fibers_argv(draw):
    primes = [
        mostly(draw, st.sampled_from([2, 3, 5]), -2, 0, 1, 4, 14, 131)
        for _ in range(draw(st.integers(1, 2)))
    ]
    pairs = [("--case", case(draw)), ("--primes", ints(primes))]
    return draw(argv_of("fibers", pairs))


@st.composite
def stalks_argv(draw):
    char = mostly(
        draw, st.sampled_from([0, 2, 3, 5, 7, 13]), -3, 1, 4, 9, exactlin.PRIME_TEST_BOUND
    )
    pairs = [("--case", case(draw)), ("--char", str(char))]
    return draw(argv_of("stalks", pairs, ("--json", "--quiet", "--allow-char-2")))


ARGV = {
    "orbits": orbits_argv(),
    "graded-orbits": graded_orbits_argv(),
    "grading": piece_argv("grading"),
    "triple": piece_argv("triple"),
    "parabolic": piece_argv("parabolic"),
    "primes": primes_argv(),
    "fibers": fibers_argv(),
    "stalks": stalks_argv(),
}


OPTION = re.compile(r"--[a-z][a-z0-9-]*")


def option_values(argv):
    """{name: value} of the options of an argv as ``argv_of`` writes them:
    ``--name=value``, or ``--name`` followed by a value that is not an
    option."""
    values = {}
    for token, after in zip(argv, argv[1:] + [None]):
        if token.startswith("--"):
            name, eq, value = token.partition("=")
            if eq:
                values[name] = value
            elif after is not None and not after.startswith("--"):
                values[name] = after
    return values


def matrix_rows(text):
    return [[Fraction(x) for x in row.split(",")] for row in text.split(";")]


def commutator(a, b):
    d = len(a)
    return [
        [sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(d)) for j in range(d)]
        for i in range(d)
    ]


def in_standard_sp(m):
    """M^T B + B M = 0 for the form B = [[0, I], [-I, 0]] of ``--type sp``."""
    d = len(m)
    b = [[int(j == i + d // 2) - int(i == j + d // 2) for j in range(d)] for i in range(d)]
    return all(
        sum(m[k][i] * b[k][j] + b[i][k] * m[k][j] for k in range(d)) == 0
        for i in range(d)
        for j in range(d)
    )


def chi_prime_fits(h, w, chi_prime):
    """Whether chi' is the spectrum of h, block by block: on each block of
    equal chi-weight, nullity(h_block - m) is the multiplicity of m in chi'
    there, for each m, with the rank of a Fraction RREF.  As these
    multiplicities add up to the block's size, h is diagonalisable inside
    the chi-grading with eigenvalues chi'."""
    assert len(chi_prime) == len(w)
    for u in set(w):
        block = [i for i in range(len(w)) if w[i] == u]
        values = [chi_prime[i] for i in block]
        for m in set(values):
            shifted = [[h[a][b] - (m if a == b else 0) for b in block] for a in block]
            if len(block) - len(fraction_rref(shifted)[1]) != values.count(m):
                return False
    return True


def json_payload(argv):
    """The --json payload of the argv, whichever output flags it has; the
    argv must exit 0."""
    json_argv = [a for a in argv if a not in ("--json", "--quiet")] + ["--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(json_argv) == 0, json_argv
    return json.loads(out.getvalue())


def check_grading_payload(argv, payload):
    """weight_matrix is the differences of --cochar, and dim is the number
    of cells of degree n in sl (the off-diagonal ones, plus d - 1 trace-zero
    diagonals for n = 0), and in sp the number of orbits of
    (k, l) -> (s(l), s(k)), s(k) = k +- d/2, on them.  The basis has dim
    elements, independent by Fraction RREF, each on those cells and in sl
    or sp."""
    options = option_values(argv)
    w = [int(a) for a in options["--cochar"].split(",")]
    n = int(options["--degree"])
    d = len(w)
    assert matrix_rows(payload["weight_matrix"]) == [[a - b for b in w] for a in w]
    assert payload["degree"] == n
    cells = {(i, j) for i in range(d) for j in range(d) if w[i] - w[j] == n}
    if options["--type"] == "sl":
        dim = sum(i != j for i, j in cells) + (d - 1 if n == 0 else 0)
    else:
        s = [(k + d // 2) % d for k in range(d)]
        dim = len({frozenset({(k, l), (s[l], s[k])}) for k, l in cells})
    basis = [matrix_rows(m) for m in payload["basis"]]
    assert payload["dim"] == len(basis) == dim
    flat = [[a for row in m for a in row] for m in basis]
    assert len(fraction_rref(flat)[1]) == dim
    for m in basis:
        assert {(i, j) for i, row in enumerate(m) for j, a in enumerate(row) if a} <= cells
        if options["--type"] == "sl":
            assert sum(m[i][i] for i in range(d)) == 0
        else:
            assert in_standard_sp(m)


def check_triple_payload(argv, payload):
    """e is --x, [h, e] = 2e, [h, f] = -2f, [e, f] = h, e, h and f lie on
    the cells of chi-degree n, 0 and -n, in sp they lie in sp, and chi'
    is the spectrum of h inside the chi-grading."""
    options = option_values(argv)
    w = [int(a) for a in options["--cochar"].split(",")]
    n = int(options["--degree"])
    e, h, f = (matrix_rows(payload[k]) for k in "ehf")
    assert e == matrix_rows(options["--x"])
    assert commutator(h, e) == [[2 * a for a in row] for row in e]
    assert commutator(h, f) == [[-2 * a for a in row] for row in f]
    assert commutator(e, f) == h
    for m, degree in ((e, n), (h, 0), (f, -n)):
        cells = [(i, j) for i, row in enumerate(m) for j, a in enumerate(row) if a]
        assert all(w[i] - w[j] == degree for i, j in cells), (m, degree)
        assert options["--type"] == "sl" or in_standard_sp(m)
    assert chi_prime_fits(h, w, payload["chi_prime"])


def check_parabolic_payload(argv, payload):
    """chi_prime_matrix is the differences of chi', the indicator is
    sign(n) (n dchi' - 2 dchi) per cell, the p, n and l masks are its
    >= 0, > 0 and = 0 cells, levi_blocks are the sizes of the classes of
    coordinates that an indicator 0 joins, by first coordinate, the Levi is
    rigid, and chi' is the spectrum of the h of the triple through --x (0
    for x = 0) inside the chi-grading."""
    options = option_values(argv)
    w = [int(a) for a in options["--cochar"].split(",")]
    n = int(options["--degree"])
    cp = payload["chi_prime"]
    d = len(w)
    assert len(cp) == d
    assert matrix_rows(payload["chi_prime_matrix"]) == [[a - b for b in cp] for a in cp]
    sign = 1 if n > 0 else -1
    indicator = [
        [sign * (n * (cp[i] - cp[j]) - 2 * (w[i] - w[j])) for j in range(d)] for i in range(d)
    ]
    assert matrix_rows(payload["indicator"]) == indicator
    for key, keep in (("p", lambda s: s >= 0), ("n", lambda s: s > 0), ("l", lambda s: s == 0)):
        assert matrix_rows(payload[f"{key}_mask"]) == [[int(keep(s)) for s in r] for r in indicator]
    blocks, seen = [], set()
    for i in range(d):
        if i not in seen:
            block = {j for j in range(d) if indicator[i][j] == 0}
            blocks.append(len(block))
            seen |= block
    assert payload["levi_blocks"] == blocks
    assert payload["levi_rigid"] is True
    x = matrix_rows(options["--x"])
    if any(any(row) for row in x):
        h = matrix_rows(json_payload(["triple", *argv[1:]])["h"])
    else:
        h = [[0] * d for _ in range(d)]
    assert chi_prime_fits(h, w, cp)


def check_primes_payload(argv, payload):
    """The closed forms, not the rootdata search: SL(n) has no bad and no
    torsion primes (Steinberg), and its pretty good and rather good
    exclusions are the primes dividing n (Herpel).  Sp(2m) for m >= 2 has
    2 in every list; Sp(2) is SL(2)."""
    options = option_values(argv)
    n = int(options["--n"])
    if options["--type"] == "sl":
        dividing = [p for p in range(2, n + 1) if n % p == 0 and is_prime_by_trial_division(p)]
        want = [[], [], dividing, dividing]
    else:
        want = [[2]] * 4 if n >= 4 else [[], [], [2], [2]]
    keys = ("good_excluded", "torsion", "pretty_good_excluded", "rather_good_excluded")
    assert [payload[k] for k in keys] == want


def partitions_of(n, largest=None):
    """The partitions of n as lists, in descending lexicographic order."""
    if n == 0:
        return [[]]
    return [
        [first] + rest
        for first in range(min(n, largest or n), 0, -1)
        for rest in partitions_of(n - first, first)
    ]


def orbit_partitions(kind_, n):
    """The Jordan types of the nilpotent orbits: every partition of n for
    sl, and for sp those whose odd parts have even multiplicity."""
    return [
        lam
        for lam in partitions_of(n)
        if kind_ == "sl" or all(lam.count(a) % 2 == 0 for a in lam if a % 2)
    ]


def check_orbits_payload(argv, payload):
    """One row per orbit partition, in descending lexicographic order, with
    its label.  With t the transpose of the partition, dim is
    n^2 - sum t_i^2 for sl and 2m^2 + m - (sum t_i^2 + #{odd parts}) / 2
    for sp, n = 2m.  The component group is Z/gcd(parts) for SL and
    (Z/2)^#{distinct even parts} for Sp, written 1 when trivial."""
    options = option_values(argv)
    kind_, n = options["--type"], int(options["--n"])
    assert (payload["type"], payload["n"]) == (kind_, n)
    parts = orbit_partitions(kind_, n)
    assert [row["partition"] for row in payload["orbits"]] == parts
    for row, lam in zip(payload["orbits"], parts):
        squares = sum(sum(1 for a in lam if a > i) ** 2 for i in range(lam[0]))
        if kind_ == "sl":
            dim = n * n - squares
            order = gcd(*lam)
            group = f"Z/{order}" if order > 1 else "1"
        else:
            dim = Fraction(n * n + n - squares - sum(a % 2 for a in lam), 2)
            k = len({a for a in lam if a % 2 == 0})
            order = 2**k
            group = "1" if k == 0 else "Z/2" if k == 1 else f"(Z/2)^{k}"
        assert row["label"] == partition_label(lam)
        assert row["dim"] == dim
        assert (row["component_group"], row["component_group_order"]) == (group, order)


def check_stalks_payload(argv, payload):
    """The columns are exactly the orbits of the case, those of sl_4 or
    sp_4.  In a characteristic other than 2 the degrees of each column have
    one parity; in characteristic 2 some column has both, the anomaly."""
    options = option_values(argv)
    kind_ = options["--case"][:2]
    columns = payload["columns"]
    assert payload["convention"] == "shift-by-dimC"
    assert set(columns) == set(map(partition_label, orbit_partitions(kind_, 4)))
    mixed = [label for label, col in columns.items() if len({int(d) % 2 for d in col}) > 1]
    assert bool(mixed) == (int(options["--char"]) == 2), mixed


def check_graded_orbits_argv_payload(argv, payload):
    options = option_values(argv)
    weights = [int(a) for a in options["--cochar"].split(",")]
    check_graded_orbits_payload(weights, int(options["--degree"]), payload)


def check_fibers_argv_payload(argv, payload):
    options = option_values(argv)
    primes = [int(p) for p in options["--primes"].split(",")]
    check_fibers_payload(options["--case"], primes, payload)


# an independent check of the --json payload of an exit 0
PAYLOAD_CHECKS = {
    "orbits": check_orbits_payload,
    "graded-orbits": check_graded_orbits_argv_payload,
    "fibers": check_fibers_argv_payload,
    "stalks": check_stalks_payload,
    "grading": check_grading_payload,
    "triple": check_triple_payload,
    "parabolic": check_parabolic_payload,
    "primes": check_primes_payload,
}


@functools.cache
def options_of(command):
    """The options that the subcommand's --help lists."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run([command, "--help"])
    return frozenset(OPTION.findall(out.getvalue()))


@pytest.mark.parametrize("command", sorted(ARGV))
def test_argv_exits_0_2_or_3(command):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ARGV[command])
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 2, 3), argv
        if code == 2:
            assert set(OPTION.findall(err.getvalue())) & options_of(command), (argv, err.getvalue())
        if code == 0 and command in PAYLOAD_CHECKS:
            PAYLOAD_CHECKS[command](argv, json_payload(argv))

    check()


@pytest.mark.parametrize("command", ["parabolic", "triple"])
def test_graded_nilpotent_exits_0_with_a_checked_payload(command):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(graded_nilpotent_argv(command))
    def check(argv):
        PAYLOAD_CHECKS[command](argv, json_payload(argv))

    check()


# per option: values that its type and choices accept, and values they
# reject; a value that starts with '-' and a digit reaches the reader
# joined to its flag by ``_attach_dash_values``
GOOD_BAD = {
    "--type": (["sl", "sp"], ["so", "SL"]),
    "--n": (["3", "12"], ["x", "1.5"]),
    "--degree": (["1", "-1", "-2"], ["1.5", ""]),
    "--cochar": (["1,0,-1", "-1,1", "0"], ["1,x", ""]),
    "--d": (["2", "48"], ["0", "49", "x"]),
    "--x": (["0,1;0,0", "-1,0;0,1"], ["x", "1;;0"]),
    "--case": (["sp4", "sl4"], ["so5"]),
    "--primes": (["2,3", "127"], ["4", "2,2", "131"]),
    "--char": (["0", "3"], ["4", "-3"]),
}
# ways to take an argv out of canonical form
MUTATIONS = ["abbreviate", "repeat", "switch=", "dash", "--", "help", "missing", "bad",
             "before", "command"]


@st.composite
def spelled_argv(draw, command):
    """(argv, canonical): command and each of its required options, with a
    value its type accepts as ``--flag value`` or ``--flag=value``, and a
    drawn subset of its switches, in a drawn order; with up to two
    ``MUTATIONS`` applied, after which the argv is not canonical."""
    _, _, *options = cli.COMMANDS[command]
    switches = {f for f, kwargs in (*cli._COMMON, *options) if kwargs.get("action") == "store_true"}
    flags = [f for f, _ in (*cli._COMMON, *options) if f not in switches or draw(st.booleans())]
    groups = []  # the tokens of each option
    for flag in draw(st.permutations(flags)):
        if flag in switches:
            groups.append([flag])
        else:
            value = draw(st.sampled_from(GOOD_BAD[flag][0]))
            groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    head = [command]
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=2))
    for mutation in mutations:
        valued = [g for g in groups if g[0].partition("=")[0] not in switches]
        group = draw(st.sampled_from(valued))
        flag = group[0].partition("=")[0]
        if mutation == "abbreviate":
            short = flag[: draw(st.integers(3, len(flag) - 1))] if len(flag) > 3 else "--"
            group[0] = group[0].replace(flag, short, 1)
        elif mutation == "repeat":
            groups.insert(draw(st.integers(0, len(groups))), list(group))
        elif mutation == "switch=":
            groups.append([draw(st.sampled_from(sorted(switches))) + "=" + draw(st.sampled_from(["", "1"]))])
        elif mutation in ("dash", "bad"):
            value = "-a" if mutation == "dash" else draw(st.sampled_from(GOOD_BAD[flag][1]))
            group[:] = [flag, value] if mutation == "dash" or draw(st.booleans()) else [f"{flag}={value}"]
        elif mutation in ("--", "help"):
            token = "--" if mutation == "--" else draw(st.sampled_from(["-h", "--help"]))
            groups.insert(draw(st.integers(0, len(groups))), [token])
        elif mutation == "missing":
            groups.remove(group)
        elif mutation == "before":
            head = [draw(st.sampled_from(sorted(switches)))] + head
        else:
            head = [draw(st.sampled_from(["", "orbit", "Primes", "--type"]))]
    return head + [token for group in groups for token in group], not mutations


def parsed_by_argparse(argv):
    """The namespace of the whole parser, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_the_reader_agrees_with_argparse(command):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(spelled_argv(command))
    def check(drawn):
        argv, canonical = drawn
        argv = cli._attach_dash_values(argv)
        read = cli._read(argv)
        assert (read is not None) == canonical, argv
        if read is not None:
            parsed = parsed_by_argparse(argv)
            assert parsed is not None and vars(read) == vars(parsed), argv

    check()
