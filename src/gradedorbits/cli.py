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
An argv in canonical form (see ``_read``) is read straight from the
``COMMANDS`` table that the parser is built from, into the namespace
argparse would give it; every other argv, with each help and error,
goes to the whole argparse parser, built on the first such call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# every subcommand runs exactlin; the other layers load where they run
from .exactlin import PRIME_TEST_BOUND, DomainError, is_prime, parse_matrix_text

# ``orbits --n`` enumerates every partition of n: 37,338 for n = 40 take
# about 0.7 s in-process, and the count grows about 1.5x per step of n beyond
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
    """argparse type: a cocharacter, the tuple of its comma-separated
    integer weights."""
    return tuple(_int_list(text))


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
    if len(args.cochar) != args.d:
        raise DomainError("cochar", f"expected {args.d} weights, got {len(args.cochar)}")
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

    def lines():
        rows = [(o["label"], o["dim"], o["component_group"]) for o in orbits]
        return _table(rows, ("orbit", "dim", "pi1"))

    _emit(args, lines, {"type": args.type, "n": args.n, "orbits": orbits})
    return 0


def cmd_graded_orbits(args) -> int:
    from .orbitlib import graded_orbit_reps_typeA

    orbits = graded_orbit_reps_typeA(args.cochar, args.degree)
    payload = {"cochar": list(args.cochar), "degree": args.degree, "orbits": orbits}

    def lines():
        rows = [
            (r["label"], r["representative"], r["dim"], ",".join(map(str, r["levi_blocks"])))
            for r in orbits
        ]
        return _table(rows, ("decomposition", "representative", "dim", "levi"))

    _emit(args, lines, payload)
    return 0


def cmd_grading(args) -> int:
    from .liegrade import build_algebra, graded_component, weight_matrix

    chi = _checked_cochar(args)
    alg = build_algebra(args.type, args.d)
    basis = graded_component(alg, chi, args.degree)
    payload = {
        "weight_matrix": weight_matrix(chi).text(),
        "degree": args.degree,
        "dim": len(basis),
        "basis": [b.text() for b in basis],
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
    payload = {
        "e": triple.e.text(),
        "h": triple.h.text(),
        "f": triple.f.text(),
        "chi_prime": list(chi_prime(triple, chi)),
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
    payload = {
        "chi_prime": list(datum.chi_prime),
        "chi_prime_matrix": weight_matrix(datum.chi_prime).text(),
        "indicator": datum.indicator.text(),
        **{f"{k}_mask": datum.mask(k).text() for k in "pnl"},
        "levi_blocks": list(datum.levi_block_shape),
        "levi_rigid": check_n_rigid(datum, triple, n, datum.cells("l")) is None,
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

    report = verify_fiber_counts(load_case(args.case), args.primes)

    def lines():
        rows = [
            (r["orbit"], r["prime"], r["stratum"], r["count"], r["predicted"],
             "ok" if r["match"] else "MISMATCH")
            for r in report["rows"]
        ]
        return _table(rows, ("orbit", "prime", "stratum", "count", "predicted", "verdict"))

    _emit(args, lines, report)
    if report["all_match"]:
        return 0
    bad = next(r for r in report["rows"] if not r["match"])
    print(
        f"mismatch: orbit {bad['orbit']} stratum {bad['stratum']} prime {bad['prime']}: "
        f"count {bad['count']}, predicted {bad['predicted']}, "
        f"delta {bad['count'] - bad['predicted']:+d}",
        file=sys.stderr,
    )
    return 3


def cmd_stalks(args) -> int:
    from .cohom import load_case, stalk_table

    table = stalk_table(load_case(args.case), args.char, allow_char_two=args.allow_char_2)
    columns = table["columns"]  # orbit label -> column, in the case's orbit order

    def lines():
        degrees = sorted({int(d) for col in columns.values() for d in col}, reverse=True)
        rows = [(d, *(col.get(str(d), "") for col in columns.values())) for d in degrees]
        return _table(rows, ("degree", *columns)) if degrees else ["(all columns empty)"]

    _emit(args, lines, table)
    return 0


def _required(flag, **kwargs):
    """The (flag, keyword arguments of ``add_argument``) of a required option."""
    return flag, {"required": True, **kwargs}


def _switch(flag, **kwargs):
    """The (flag, keyword arguments) of an on/off option."""
    return flag, {"action": "store_true", **kwargs}


_COMMON = (_switch("--json", help="emit JSON"), _switch("--quiet", help="suppress output"))
_TYPE = _required("--type", choices=["sl", "sp"])
_DEGREE = _required("--degree", type=int)
_COCHAR = _required("--cochar", type=_cochar)
_CASE = _required("--case", choices=["sp4", "sl4"])
# the algebra and grading of grading, triple and parabolic
_GRADED = (
    _TYPE,
    _required("--d", type=_bounded_int(1, MAX_GRADING_D), help=f"1 to {MAX_GRADING_D}"),
    _COCHAR,
)

# subcommand -> (help, handler, *its options after --json and --quiet), in
# the order that the top-level --help lists them
COMMANDS = {
    "orbits": ("nilpotent orbit table", cmd_orbits, _TYPE,
               _required("--n", type=_bounded_int(1, MAX_ORBITS_N), help=f"1 to {MAX_ORBITS_N}")),
    "graded-orbits": ("orbits in a graded piece (type A)", cmd_graded_orbits, _COCHAR, _DEGREE),
    "grading": ("weight matrix and graded component basis", cmd_grading, *_GRADED, _DEGREE),
    "triple": ("graded sl2-triple through a nilpotent", cmd_triple, *_GRADED,
               _required("--x", type=_matrix, help="matrix in ';'/',' text format"), _DEGREE),
    "parabolic": ("canonical parabolic of a graded nilpotent", cmd_parabolic, *_GRADED,
                  _required("--x", type=_matrix), _DEGREE),
    "primes": ("prime classifiers of a root datum", cmd_primes, _TYPE, _required("--n", type=int)),
    "fibers": ("finite-field fiber count verification", cmd_fibers, _CASE,
               _required("--primes", type=_prime_list)),
    "stalks": ("stalk table of the induced cuspidal system", cmd_stalks, _CASE,
               _required("--char", type=_char), _switch("--allow-char-2")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process for the argvs that ``_read``
    leaves to it; each parse fills a new namespace, so no option carries
    over from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="gradedorbits",
        description="Exact computations for cocharacter-graded classical Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, *options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*_COMMON, *options):
            command.add_argument(flag, **kwargs)
        command.set_defaults(command=name, func=handler)
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


def _read(argv):
    """The namespace that the whole parser gives argv, read from ``COMMANDS``
    without argparse when argv is in canonical form, else None.  Canonical:
    argv[0] names a subcommand, and each later token is one of its options
    or of ``_COMMON``, spelled in full and at most once, as ``--flag value``
    with a value that does not start with '-', as ``--flag=value``, or as a
    bare switch; every value passes its option's type and choices, and
    every required option is there.  A type error that argparse reports
    gives None, so argparse prints it."""
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, handler, *options = spec
    table = dict((*_COMMON, *options))
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        kwargs = table.get(flag)
        if kwargs is None or flag in values:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            values[flag] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
        convert = kwargs.get("type")
        try:
            value = text if convert is None else convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[flag] = value
    namespace = argparse.Namespace(command=argv[0], func=handler)
    for flag, kwargs in table.items():
        if flag not in values and kwargs.get("action") != "store_true":
            return None
        setattr(namespace, flag[2:].replace("-", "_"), values.get(flag, False))
    return namespace


def run(argv=None) -> int:
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
