"""Compactly supported cohomology of simple space expressions, rank-1 local
systems on punctured lines, counting polynomials, and stalk tables for
parabolically induced cuspidal local systems.

Space expressions are trees over: point, affine space, projective space,
a projective line minus m points (the 2-punctured case is a torus), and
disjoint unions.  An expression is the tagged tuple that its s-expression
text reads as: ("pt",), ("aff", k), ("proj", k), ("projline-minus", m) or
("disjoint", child, child, ...), so two constructors with the same
argument never compare equal.  Each expression has a counting polynomial
(its number of points over F_q for split forms, as its ascending
coefficient tuple) and a compactly supported cohomology.  Each public
entry checks a hand-built expression once, and raises the ValueError that
``parse_space`` raises for its text.

Stalk convention: the table entry of an orbit at degree d is the rank of
H_c^(d + s) of the cuspidal fiber part, where s is the dimension of the
cuspidal orbit inside the inducing Levi.  The convention tag
"shift-by-dimC" names this shift.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections import namedtuple
from importlib import resources

from .exactlin import DomainError, Partition, is_prime, parse_matrix_text


class UnknownCase(ValueError):
    pass


STALK_CONVENTION = "shift-by-dimC"


# ---------------------------------------------------------------------------
# space expressions

# the constructors of one integer argument: the least value each takes, and
# the message for one below it
_ONE_INTEGER = {
    "aff": (0, "affine dimension must be >= 0"),
    "proj": (0, "projective dimension must be >= 0"),
    "projline-minus": (1, "need at least one removed point"),
}


def _construct(head, args):
    """The space ``(head args...)``, of tokens and parsed expressions, as
    the tuple (head, *args) with integer arguments; (torus) is
    ("projline-minus", 2)."""
    if head in ("pt", "torus"):
        if not args:
            return ("pt",) if head == "pt" else ("projline-minus", 2)
        takes = "no arguments"
    elif head in _ONE_INTEGER:
        if len(args) == 1 and isinstance(args[0], str) and re.fullmatch(r"-?[0-9]+", args[0]):
            least, message = _ONE_INTEGER[head]
            if int(args[0]) < least:
                raise ValueError(message)
            return head, int(args[0])
        takes = "one integer"
    elif head == "disjoint":
        if not any(isinstance(a, str) for a in args):
            if len(args) < 2:
                raise ValueError("disjoint union needs at least two children")
            return (head, *args)
        takes = "space expressions"
    else:
        raise ValueError(f"unknown space constructor {head!r}")
    raise ValueError(f"({head} ...) takes {takes}, got {args}")


def _checked_space(expr):
    """expr, once ``parse_space`` would read it from its own text, such as
    (aff 2) for ("aff", 2); the ValueError it raises there otherwise."""
    head, *args = expr
    parts = [_checked_space(a) if isinstance(a, tuple) else str(a) for a in args]
    if _construct(head, parts) != expr:
        raise ValueError(f"not a space expression: {expr!r}")
    return expr


def parse_space(text: str):
    """Parse an s-expression such as ``(disjoint (proj 2) (aff 2))``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    end = len(tokens)

    def read(pos):
        if pos == end or tokens[pos] != "(":
            raise ValueError(f"expected '(' at token {pos}")
        if pos + 1 == end or tokens[pos + 1] in ("(", ")"):
            raise ValueError(f"expected a constructor name at token {pos + 1}")
        head, args, pos = tokens[pos + 1], [], pos + 2
        while pos < end and tokens[pos] != ")":
            if tokens[pos] == "(":
                child, pos = read(pos)
            else:
                child, pos = tokens[pos], pos + 1
            args.append(child)
        if pos == end:
            raise ValueError(f"unclosed '(' of {head!r}")
        return _construct(head, args), pos + 1

    expr, stop = read(0)
    if stop != end:
        raise ValueError("trailing tokens in space expression")
    return expr


# ---------------------------------------------------------------------------
# counting polynomials


def _polynomial(node) -> tuple:
    head, *args = node
    if head == "pt":
        return (1,)
    if head == "aff":
        return (0,) * args[0] + (1,)
    if head == "proj":
        return (1,) * (args[0] + 1)
    if head == "projline-minus":
        return (1 - args[0], 1)
    return tuple(map(sum, itertools.zip_longest(*map(_polynomial, args), fillvalue=0)))


def counting_polynomial(expr) -> tuple:
    """The number of F_q points of the space as a polynomial in q, by its
    coefficients in ascending degree.  Each constructor's polynomial has
    leading coefficient 1, so a disjoint union's sum has no zero leading
    coefficient."""
    return _polynomial(_checked_space(expr))


# ---------------------------------------------------------------------------
# compactly supported cohomology


def _add_ranks(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in sorted(out.items()) if v}


def _hc_constant(node) -> dict:
    head, *args = node
    if head == "pt":
        return {0: 1}
    if head == "aff":
        return {2 * args[0]: 1}
    if head == "proj":
        return {2 * i: 1 for i in range(args[0] + 1)}
    if head == "projline-minus":
        return {1: args[0] - 1, 2: 1} if args[0] > 1 else {2: 1}
    out: dict = {}
    for c in args:
        out = _add_ranks(out, _hc_constant(c))
    return out


def hc_constant(expr) -> dict:
    """Compactly supported cohomology with constant coefficients."""
    return _hc_constant(_checked_space(expr))


def _scalar_is_one(scalar: int, char_l: int) -> bool:
    if char_l == 0:
        return scalar == 1
    return (scalar - 1) % char_l == 0


def _scalar_is_zero(scalar: int, char_l: int) -> bool:
    if char_l == 0:
        return scalar == 0
    return scalar % char_l == 0


def _hc_punctured_line(points: int, scalars, char_l: int) -> dict:
    """Rank-1 system on a projective line minus ``points`` points, one
    monodromy scalar per free loop (points - 1 of them)."""
    if len(scalars) != points - 1:
        raise ValueError("need one monodromy scalar per free loop")
    if all(_scalar_is_one(s, char_l) for s in scalars):
        return hc_constant(("projline-minus", points))
    out = {}
    if points - 2:
        out[1] = points - 2
    return out


def hc_local_system(expr, monodromy, char_l: int) -> dict:
    """Cohomology of a rank-1 local system; ``monodromy`` supplies one
    scalar per free loop of each non-simply-connected component, in
    traversal order.  Simply connected components force the constant sheaf.
    ``ValueError`` unless ``char_l`` is 0 or prime and every scalar is
    invertible in the field.
    """
    if char_l != 0 and not is_prime(char_l):
        raise ValueError("characteristic must be 0 or prime")
    scalars = list(monodromy)
    if any(_scalar_is_zero(s, char_l) for s in scalars):
        raise ValueError("monodromy scalars must be invertible")

    def walk(node) -> dict:
        if node[0] == "disjoint":
            out: dict = {}
            for c in node[1:]:
                out = _add_ranks(out, walk(c))
            return out
        if node[0] == "projline-minus":
            need = node[1] - 1
            if len(scalars) < need:
                raise ValueError("not enough monodromy scalars")
            mine = [scalars.pop(0) for _ in range(need)]
            return _hc_punctured_line(node[1], mine, char_l)
        return _hc_constant(node)

    out = walk(_checked_space(expr))
    if scalars:
        raise ValueError("unused monodromy scalars")
    return out


# ---------------------------------------------------------------------------
# case data and stalk tables


class FiberDatum(namedtuple(
    "FiberDatum",
    "partition representative full_fiber zero_part cuspidal_part monodromy"
    " zero_part_twisted_pair",
    defaults=(False,),
)):
    """One orbit of a case: its ``Partition``, the ``RatMatrix``
    representative, the space expressions of its full fiber and of the zero
    and cuspidal parts (None when absent), the monodromy scalars, and
    whether the zero part is a stratum pair over a quadratic extension."""

    __slots__ = ()


class CaseData(namedtuple(
    "CaseData",
    "name group ambient_dim form flag_kind levi_label levi_orbit_dim orbits",
)):
    """A shipped case: the group, the ambient dimension, the ``RatMatrix``
    form (None for sl), the flag kind, the inducing Levi with the dimension
    of its cuspidal orbit, and one ``FiberDatum`` per orbit."""

    __slots__ = ()


def load_case(name: str) -> CaseData:
    """The shipped case ``name``, parsed once per process: every part of a
    ``CaseData`` is frozen, so its callers share one."""
    name = name.lower()
    if name not in ("sp4", "sl4"):
        raise UnknownCase(f"unknown case {name!r}")
    return _parsed_case(name)


@functools.cache
def _parsed_case(name: str) -> CaseData:
    raw = json.loads(
        resources.files("gradedorbits.cases").joinpath(f"{name}.json").read_text()
    )
    orbits = []
    for rec in raw["orbits"]:
        orbits.append(
            FiberDatum(
                partition=Partition.of(rec["partition"]),
                representative=parse_matrix_text(rec["representative"]),
                full_fiber=parse_space(rec["full_fiber"]),
                zero_part=parse_space(rec["zero_part"]) if rec.get("zero_part") else None,
                cuspidal_part=(
                    parse_space(rec["cuspidal_part"]) if rec.get("cuspidal_part") else None
                ),
                monodromy=tuple(rec.get("monodromy", ())),
                zero_part_twisted_pair=bool(rec.get("zero_part_twisted_pair", False)),
            )
        )
    return CaseData(
        name=raw["name"],
        group=raw["group"],
        ambient_dim=raw["ambient_dim"],
        form=parse_matrix_text(raw["form"]) if raw.get("form") else None,
        flag_kind=raw["flag_kind"],
        levi_label=raw["levi_label"],
        levi_orbit_dim=raw["levi_orbit_dim"],
        orbits=tuple(orbits),
    )


def stalk_table(case: CaseData, char_l: int, allow_char_two: bool = False) -> dict:
    """Stalk ranks of the induced cuspidal local system, per orbit column:
    the table of ``stalks``, {"convention": ..., "columns": {orbit label:
    {degree as a string: rank}}}, with the columns in the case's orbit
    order and each by increasing degree.

    Degrees follow the shift-by-dimC convention: the entry at degree d is
    the rank of H_c^(d + levi_orbit_dim) of the cuspidal fiber part with
    the recorded monodromy.  Characteristic 2 breaks the standing
    invertibility hypothesis and must be requested explicitly.
    """
    if char_l != 0 and not is_prime(char_l):
        raise ValueError("characteristic must be 0 or prime")
    if char_l == 2 and not allow_char_two:
        raise DomainError(
            "char",
            "characteristic 2 violates the standing hypothesis; "
            "request it explicitly to exhibit the anomaly"
        )
    columns = {}
    for orbit in case.orbits:
        label = orbit.partition.label()
        if orbit.cuspidal_part is None:
            columns[label] = {}
            continue
        ranks = hc_local_system(orbit.cuspidal_part, orbit.monodromy, char_l)
        columns[label] = {
            str(deg - case.levi_orbit_dim): r for deg, r in sorted(ranks.items())
        }
    return {"convention": STALK_CONVENTION, "columns": columns}
