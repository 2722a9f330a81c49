"""Compactly supported cohomology of simple space expressions, rank-1 local
systems on punctured lines, counting polynomials, and stalk tables for
parabolically induced cuspidal local systems.

Space expressions are trees over: point, affine space, projective space,
a projective line minus m points (the 2-punctured case is a torus), and
disjoint unions.  Each expression has a counting polynomial (its number of
points over F_q for split forms) and a compactly supported cohomology.

Stalk convention: the table entry of an orbit at degree d is the rank of
H_c^(d + s) of the cuspidal fiber part, where s is the dimension of the
cuspidal orbit inside the inducing Levi.  The convention tag
"shift-by-dimC" names this shift.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources

from .exactlin import DomainError, Partition, RatMatrix, is_prime, parse_matrix_text


class UnknownCase(ValueError):
    pass


STALK_CONVENTION = "shift-by-dimC"


# ---------------------------------------------------------------------------
# space expressions


@dataclass(frozen=True)
class Pt:
    pass


@dataclass(frozen=True)
class Aff:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("affine dimension must be >= 0")


@dataclass(frozen=True)
class Proj:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("projective dimension must be >= 0")


@dataclass(frozen=True)
class ProjLineMinus:
    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("need at least one removed point")


@dataclass(frozen=True)
class Disjoint:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("disjoint union needs at least two children")


def torus() -> ProjLineMinus:
    return ProjLineMinus(2)


_ONE_INTEGER = {"aff": Aff, "proj": Proj, "projline-minus": ProjLineMinus}


def _construct(head, args):
    """The space ``(head args...)``, of tokens and parsed expressions."""
    if head in ("pt", "torus"):
        if not args:
            return Pt() if head == "pt" else torus()
        takes = "no arguments"
    elif head in _ONE_INTEGER:
        if len(args) == 1 and isinstance(args[0], str) and re.fullmatch(r"-?[0-9]+", args[0]):
            return _ONE_INTEGER[head](int(args[0]))
        takes = "one integer"
    elif head == "disjoint":
        if not any(isinstance(a, str) for a in args):
            return Disjoint(tuple(args))
        takes = "space expressions"
    else:
        raise ValueError(f"unknown space constructor {head!r}")
    raise ValueError(f"({head} ...) takes {takes}, got {args}")


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


@dataclass(frozen=True)
class Poly:
    """Integer polynomial in q, coefficients in ascending degree."""

    coeffs: tuple

    @staticmethod
    def of(coeffs) -> "Poly":
        cs = list(int(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly.of([x + y for x, y in zip(a, b)])

    def __call__(self, q: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * q + c
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                qk = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    terms.append(qk)
                elif c == -1:
                    terms.append(f"-{qk}")
                else:
                    terms.append(f"{c}{qk}")
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


def counting_polynomial(expr) -> Poly:
    if isinstance(expr, Pt):
        return Poly.of([1])
    if isinstance(expr, Aff):
        return Poly.of([0] * expr.k + [1])
    if isinstance(expr, Proj):
        return Poly.of([1] * (expr.k + 1))
    if isinstance(expr, ProjLineMinus):
        return Poly.of([1 - expr.points, 1])
    if isinstance(expr, Disjoint):
        total = Poly.of([])
        for c in expr.children:
            total = total + counting_polynomial(c)
        return total
    raise TypeError(f"not a space expression: {expr!r}")


# ---------------------------------------------------------------------------
# compactly supported cohomology


def _add_ranks(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in sorted(out.items()) if v}


def hc_constant(expr) -> dict:
    """Compactly supported cohomology with constant coefficients."""
    if isinstance(expr, Pt):
        return {0: 1}
    if isinstance(expr, Aff):
        return {2 * expr.k: 1}
    if isinstance(expr, Proj):
        return {2 * i: 1 for i in range(expr.k + 1)}
    if isinstance(expr, ProjLineMinus):
        out = {2: 1}
        if expr.points > 1:
            out[1] = expr.points - 1
        return dict(sorted(out.items()))
    if isinstance(expr, Disjoint):
        out: dict = {}
        for c in expr.children:
            out = _add_ranks(out, hc_constant(c))
        return out
    raise TypeError(f"not a space expression: {expr!r}")


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
        return hc_constant(ProjLineMinus(points))
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
        if isinstance(node, Disjoint):
            out: dict = {}
            for c in node.children:
                out = _add_ranks(out, walk(c))
            return out
        if isinstance(node, ProjLineMinus):
            need = node.points - 1
            if len(scalars) < need:
                raise ValueError("not enough monodromy scalars")
            mine = [scalars.pop(0) for _ in range(need)]
            return _hc_punctured_line(node.points, mine, char_l)
        return hc_constant(node)

    out = walk(expr)
    if scalars:
        raise ValueError("unused monodromy scalars")
    return out


# ---------------------------------------------------------------------------
# case data and stalk tables


@dataclass(frozen=True)
class FiberDatum:
    partition: Partition
    representative: RatMatrix
    full_fiber: object
    zero_part: object | None
    cuspidal_part: object | None
    monodromy: tuple
    zero_part_twisted_pair: bool = False


@dataclass(frozen=True)
class CaseData:
    name: str
    group: str
    ambient_dim: int
    form: RatMatrix | None
    flag_kind: str
    levi_label: str
    levi_orbit_dim: int
    orbits: tuple


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
