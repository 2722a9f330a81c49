"""Command-line interface.

Subcommands: orbits, graded-orbits, grading, triple, parabolic, primes,
fibers, stalks.  Every subcommand supports --json; output is deterministic
byte for byte; the text of triple, parabolic and primes is their JSON
payload as ``key: value`` lines.  Exit codes: 0 success; 2 an argument
error that names its option, from argparse or from a ``DomainError`` of a
check here or in the library, which ``run`` alone writes; 3 verification
mismatches reported by ``fibers``; 141 (128 + SIGPIPE, as for a tool
that signal ends) when the reader of stdout closes it early, with nothing
on stderr; 1 any other exception, a defect, reported as one
``internal error: <subcommand>: <type>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# every subcommand runs exactlin; the other layers load where they run
from .exactlin import (
    PRIME_TEST_BOUND,
    Cocharacter,
    DomainError,
    is_prime,
    parse_matrix_text,
)

# ``orbits --n`` enumerates every partition of n: 37,338 for n = 40 take
# about 1 s, and the count grows about 1.5x per step of n beyond
MAX_ORBITS_N = 40
# ``grading`` prints every basis element of the piece as a d x d matrix, so
# its work grows as d^4: degree 0 of sp_48 under the zero cocharacter, the
# worst call accepted, takes about 0.35 s and 62 MB in-process.  ``triple``
# and ``parabolic`` share the bound and solve on cell maps: in sl_48, x = E_12
# of degree 1 under (1, 0, ..., 0, -1) and x = E_1,25 of degree 2 under
# (1^24, (-1)^24) each take about 3 and 6 ms (medians of 7 calls; 2 virtual
# Xeon cores, Python 3.11).
MAX_GRADING_D = 48
# the exit code of a run whose stdout reader went away: 128 + SIGPIPE
EXIT_CLOSED_PIPE = 141


def _bounded_int(low: int, high: int):
    """argparse type: an integer in low..high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _int_list(text: str) -> list:
    """argparse type: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _cochar(text: str):
    """argparse type: a cocharacter as comma-separated integer weights."""
    return Cocharacter.of(_int_list(text))


def _prime_list(text: str) -> list:
    """argparse type: comma-separated distinct primes up to the fiber
    sweep's limit."""
    from .ffgeom import MAX_PRIME

    primes = _int_list(text)
    for k, p in enumerate(primes):
        if p > MAX_PRIME or not is_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not a prime <= {MAX_PRIME}")
        if p in primes[:k]:
            raise argparse.ArgumentTypeError(f"{p} is repeated")
    return primes


def _char(text: str) -> int:
    """argparse type: 0 or a prime below the bound of the primality test."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value >= PRIME_TEST_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be below {PRIME_TEST_BOUND}, where primality is decided, got {value}"
        )
    if value != 0 and not is_prime(value):
        raise argparse.ArgumentTypeError(f"must be 0 or a prime, got {value}")
    return value


def _matrix(text: str):
    """argparse type: a matrix in the ';'/',' text format."""
    try:
        return parse_matrix_text(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected rows of comma-separated integers separated by ';', got {text!r}"
        ) from None


def _checked_cochar(args):
    """The --cochar, checked against --d: one weight per coordinate, and an
    even --d for sp."""
    if args.type == "sp" and args.d % 2:
        raise DomainError("d", f"sp needs an even dimension, got {args.d}")
    if len(args.cochar.weights) != args.d:
        raise DomainError("cochar", f"expected {args.d} weights, got {len(args.cochar.weights)}")
    return args.cochar


def _square_x(args):
    """The --x matrix, checked to be --d by --d."""
    x = args.x
    if (x.rows, x.cols) != (args.d, args.d):
        raise DomainError("x", f"expected a {args.d}x{args.d} matrix, got {x.rows}x{x.cols}")
    return x


def _emit(args, text_lines, payload) -> None:
    """Print the payload as JSON, or the lines that ``text_lines()``
    returns, which is called only then."""
    if args.quiet:
        return
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _lines(payload) -> list:
    """One ``key: value`` line per payload entry, in payload order: a list
    joined by ',', or '-' when empty, and a bool as yes or no."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, list):
            value = ",".join(map(str, value)) or "-"
        lines.append(f"{key}: {value}")
    return lines


def _table(rows, headers):
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())
    return lines


def cmd_orbits(args) -> int:
    from .orbitlib import nilpotent_orbits

    orbits = nilpotent_orbits(args.type, args.n)
    payload = {
        "type": args.type,
        "n": args.n,
        "orbits": [
            {
                "partition": list(o.partition.parts),
                "label": o.partition.label(),
                "dim": o.dimension,
                "component_group": o.component_group.label(),
                "component_group_order": o.component_group.order,
            }
            for o in orbits
        ],
    }

    def lines():
        rows = [(o["label"], o["dim"], o["component_group"]) for o in payload["orbits"]]
        return _table(rows, ("orbit", "dim", "pi1"))

    _emit(args, lines, payload)
    return 0


def cmd_graded_orbits(args) -> int:
    from .orbitlib import graded_orbit_reps_typeA

    chi = args.cochar
    n = args.degree
    recs = [
        {
            "decomposition": [list(seg) for seg in rep.decomposition],
            "label": rep.label(),
            "representative": rep.representative.text(),
            "dim": rep.dimension,
            "levi_blocks": list(rep.levi_shape),
        }
        for rep in graded_orbit_reps_typeA(chi, n)
    ]
    payload = {"cochar": list(chi.weights), "degree": n, "orbits": recs}

    def lines():
        rows = [
            (r["label"], r["representative"], r["dim"], ",".join(map(str, r["levi_blocks"])))
            for r in recs
        ]
        return _table(rows, ("decomposition", "representative", "dim", "levi"))

    _emit(args, lines, payload)
    return 0


def cmd_grading(args) -> int:
    from .liegrade import build_algebra, graded_component, weight_matrix

    chi = _checked_cochar(args)
    alg = build_algebra(args.type, args.d)
    comp = graded_component(alg, chi, args.degree)
    payload = {
        "weight_matrix": weight_matrix(chi).text(),
        "degree": args.degree,
        "dim": comp.dimension,
        "basis": [b.text() for b in comp.basis],
    }

    def lines():
        head = [f"{key}: {payload[key]}" for key in ("weight_matrix", "degree", "dim")]
        return head + [f"basis: {t}" for t in payload["basis"]]

    _emit(args, lines, payload)
    return 0


def cmd_triple(args) -> int:
    from .liegrade import adapted_sl2_triple, build_algebra, chi_prime

    chi = _checked_cochar(args)
    x = _square_x(args)
    alg = build_algebra(args.type, args.d)
    triple = adapted_sl2_triple(alg, chi, args.degree, x)
    weights, _ = chi_prime(triple, chi)
    payload = {
        "e": triple.e.text(),
        "h": triple.h.text(),
        "f": triple.f.text(),
        "chi_prime": list(weights.weights),
    }
    _emit(args, lambda: _lines(payload), payload)
    return 0


def cmd_parabolic(args) -> int:
    from .liegrade import Sl2Triple, adapted_sl2_triple, build_algebra, canonical_parabolic
    from .liegrade import check_n_rigid, weight_matrix

    chi = _checked_cochar(args)
    x = _square_x(args)
    alg = build_algebra(args.type, args.d)
    n = args.degree
    if x.is_zero():
        triple = Sl2Triple.zero(alg.dim_ambient)
    else:
        triple = adapted_sl2_triple(alg, chi, n, x)
    datum = canonical_parabolic(alg, chi, triple, n)
    rigid = check_n_rigid(datum, triple, n, datum.cells("l"))
    payload = {
        "chi_prime": list(datum.chi_prime.weights),
        "chi_prime_matrix": weight_matrix(datum.chi_prime).text(),
        "indicator": datum.indicator.text(),
        **{f"{k}_mask": datum.mask(k).text() for k in "pnl"},
        "levi_blocks": list(datum.levi_block_shape),
        "levi_rigid": rigid.is_rigid,
    }
    _emit(args, lambda: _lines(payload), payload)
    return 0


def cmd_primes(args) -> int:
    from .rootdata import prime_report

    payload = prime_report(args.type, args.n)
    _emit(args, lambda: _lines(payload), payload)
    return 0


def cmd_fibers(args) -> int:
    from .cohom import load_case
    from .ffgeom import verify_fiber_counts

    case = load_case(args.case)
    report = verify_fiber_counts(case, args.primes)
    payload = {
        "case": report.case,
        "primes": args.primes,
        "all_match": report.all_match,
        "rows": [
            {
                "orbit": r.orbit,
                "prime": r.prime,
                "stratum": r.stratum,
                "count": r.count,
                "predicted": r.predicted,
                "match": r.match,
            }
            for r in report.rows
        ],
    }

    def lines():
        rows = [
            (r.orbit, r.prime, r.stratum, r.count, r.predicted, "ok" if r.match else "MISMATCH")
            for r in report.rows
        ]
        return _table(rows, ("orbit", "prime", "stratum", "count", "predicted", "verdict"))

    _emit(args, lines, payload)
    if report.all_match:
        return 0
    bad = next(r for r in report.rows if not r.match)
    print(
        f"mismatch: orbit {bad.orbit} stratum {bad.stratum} prime {bad.prime}: "
        f"count {bad.count}, predicted {bad.predicted}, "
        f"delta {bad.count - bad.predicted:+d}",
        file=sys.stderr,
    )
    return 3


def cmd_stalks(args) -> int:
    from .cohom import load_case, stalk_table

    case = load_case(args.case)
    table = stalk_table(case, args.char, allow_char_two=args.allow_char_2)

    def lines():
        labels = [o.partition.label() for o in case.orbits]
        degrees = sorted({d for col in table.columns.values() for d in col}, reverse=True)
        rows = [(d, *(table.columns[label].get(d, "") for label in labels)) for d in degrees]
        return _table(rows, ("degree", *labels)) if degrees else ["(all columns empty)"]

    _emit(args, lines, table.as_dict())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: each parse
    fills a new namespace, so no option carries over from one call to the
    next."""
    parser = argparse.ArgumentParser(
        prog="gradedorbits",
        description="Exact computations for cocharacter-graded classical Lie algebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--quiet", action="store_true", help="suppress output")
    # the algebra and grading of grading, triple and parabolic
    graded = argparse.ArgumentParser(add_help=False)
    graded.add_argument("--type", required=True, choices=["sl", "sp"])
    graded.add_argument(
        "--d", required=True, type=_bounded_int(1, MAX_GRADING_D), help=f"1 to {MAX_GRADING_D}"
    )
    graded.add_argument("--cochar", required=True, type=_cochar)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p = add_parser("orbits", help="nilpotent orbit table")
    p.add_argument("--type", required=True, choices=["sl", "sp"])
    p.add_argument(
        "--n",
        required=True,
        type=_bounded_int(1, MAX_ORBITS_N),
        help=f"1 to {MAX_ORBITS_N}",
    )
    p.set_defaults(func=cmd_orbits)

    p = add_parser("graded-orbits", help="orbits in a graded piece (type A)")
    p.add_argument("--cochar", required=True, type=_cochar)
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(func=cmd_graded_orbits)

    p = add_parser("grading", graded, help="weight matrix and graded component basis")
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(func=cmd_grading)

    p = add_parser("triple", graded, help="graded sl2-triple through a nilpotent")
    p.add_argument("--x", required=True, type=_matrix, help="matrix in ';'/',' text format")
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(func=cmd_triple)

    p = add_parser("parabolic", graded, help="canonical parabolic of a graded nilpotent")
    p.add_argument("--x", required=True, type=_matrix)
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(func=cmd_parabolic)

    p = add_parser("primes", help="prime classifiers of a root datum")
    p.add_argument("--type", required=True, choices=["sl", "sp"])
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=cmd_primes)

    p = add_parser("fibers", help="finite-field fiber count verification")
    p.add_argument("--case", required=True, choices=["sp4", "sl4"])
    p.add_argument("--primes", required=True, type=_prime_list)
    p.set_defaults(func=cmd_fibers)

    p = add_parser("stalks", help="stalk table of the induced cuspidal system")
    p.add_argument("--case", required=True, choices=["sp4", "sl4"])
    p.add_argument("--char", required=True, type=_char)
    p.add_argument("--allow-char-2", action="store_true")
    p.set_defaults(func=cmd_stalks)

    return parser


def _attach_dash_values(argv) -> list:
    """argv with ``--name -1,0`` written as ``--name=-1,0``.  argparse takes
    a value that starts with '-' and is not a plain negative number, such
    as the cocharacter -1,0,1,0 or the matrix -1,0;0,1, for an option and
    rejects it; no option starts with '-' and a digit."""
    out = []
    for token in argv:
        dash_value = token[:1] == "-" and token[1:2].isdigit()
        if dash_value and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: argument --{exc.param}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return EXIT_CLOSED_PIPE
    except Exception as exc:  # a defect: one line, no traceback
        print(f"internal error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    code = run(argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_CLOSED_PIPE
    if code == EXIT_CLOSED_PIPE:
        # what stdout still buffers would fail again at exit: it goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
else:
    # a library caller pays every import here, not in its first call to run
    from . import cohom, ffgeom, liegrade, orbitlib, rootdata  # noqa: F401
