"""Root data for the classical types SL(n) and Sp(2m), one closed family
per Weyl-group orbit, and the four prime classifiers (bad, torsion, pretty
good exclusions, rather good exclusions).

Lattice conventions
-------------------
SL(n): the character lattice is Z^n modulo the diagonal copy of Z; it is
presented concretely as Z^n together with the extra relation row (1,...,1),
so quotient torsion is read off a stacked integer matrix.  The cocharacter
lattice is the trace-zero sublattice of Z^n, with basis e_i - e_(i+1).

Sp(2m): characters and cocharacters are both Z^m (the standard maximal
torus diag(t_1..t_m, t_1^-1..t_m^-1)); roots are +-e_i+-e_j and +-2e_i,
coroots +-e_i+-e_j and +-e_i.

Closed families and the Weyl group
----------------------------------
The prime classifiers quantify over every Z-closed family of roots and of
coroots.  The Weyl group W permutes each list and acts linearly on its
lattice, so it maps closed families to closed families and keeps the
torsion of their quotients: one family per W-orbit decides them.  The
orbits have closed-form labels (``_labels``), each a family on
consecutive coordinate blocks (``_family``):

- SL(n): a partition of n; each part k >= 2 is an A_(k-1), every e_i - e_j
  on its block (SL(6) has 11 orbits of its 203 families);
- Sp(2m), roots (type C): C_k's (every +-e_i +- e_j and +-2e_i) and
  A_(k-1)'s (k >= 2) of total size at most m;
- Sp(2m), coroots (type B): at most one B_k (every +-e_i +- e_j and
  +-e_i), then D_k's (k >= 2, every +-e_i +- e_j) and A_(k-1)'s, of total
  size at most m.

A quotient depends only on the lattice that a family spans, so
``prime_report`` takes it from ``_basis``, a Z-basis of that lattice with
at most n rows: on each block e_i - e_(i+1), then e_k for B, 2e_k for C or
e_(k-1) + e_k for D.  The basis of the whole system's label is its simple
roots, and the bad primes are those dividing a coordinate of the highest
root on them.  The tests check the labels against a W-search over every
family, orbit by orbit, each basis against the Hermite form of its family,
and the bad primes against a search for the highest root of each
component.  ``standard_root_datum`` checks n against ``MAX_N`` before any
root is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exactlin import DomainError, _rref, prime_factors, torsion_primes_of_quotient


class UnsupportedType(DomainError):
    pass


class TooLarge(DomainError):
    """A root datum past the size bound of the prime report."""


@dataclass(frozen=True)
class RootDatum:
    kind: str  # "sl" or "sp"
    label: str
    ambient_rank: int
    roots: tuple  # integer vectors in the X presentation
    coroots: tuple  # parallel integer vectors in the Y presentation
    x_relations: tuple  # extra relation rows presenting X as a quotient
    y_basis: tuple  # basis rows of Y inside the ambient lattice


@dataclass(frozen=True)
class PrimeReport:
    good_excluded: tuple  # the bad primes
    torsion: tuple
    pretty_good_excluded: tuple
    rather_good_excluded: tuple

    def as_dict(self) -> dict:
        return {
            "good_excluded": list(self.good_excluded),
            "torsion": list(self.torsion),
            "pretty_good_excluded": list(self.pretty_good_excluded),
            "rather_good_excluded": list(self.rather_good_excluded),
        }


def standard_root_datum(kind: str, n: int) -> RootDatum:
    """The root datum of SL(n) or Sp(n), its roots those of the family of
    the whole system.  n is checked against MAX_N before any root is built,
    so a huge n is refused at once."""
    kind = kind.lower()
    if kind == "sl":
        if n < 2:
            raise UnsupportedType("n", "SL needs n >= 2")
        label = f"SL({n})"
        _check_size(kind, label, n)
        roots = _family(n, (("A", n),))  # e_i - e_j is its own coroot under the dot pairing
        return RootDatum(
            kind=kind,
            label=label,
            ambient_rank=n,
            roots=roots,
            coroots=roots,
            x_relations=((1,) * n,),
            y_basis=tuple(_vec(n, (i, 1), (i + 1, -1)) for i in range(n - 1)),
        )
    if kind == "sp":
        if n < 2 or n % 2 != 0:
            raise UnsupportedType("n", "Sp needs even n >= 2")
        m = n // 2
        label = f"Sp({n})"
        _check_size(kind, label, n)
        # the coroot of +-2e_i is +-e_i, in the same place
        return RootDatum(
            kind=kind,
            label=label,
            ambient_rank=m,
            roots=_family(m, (("C", m),)),
            coroots=_family(m, (("B", m),)),
            x_relations=(),
            y_basis=tuple(_vec(m, (i, 1)) for i in range(m)),
        )
    raise UnsupportedType("type", f"unsupported type {kind!r}")


# ---------------------------------------------------------------------------
# one closed family per W-orbit

# the components of a closed family on each side, as (type, least size, most
# components of that type): the type A roots e_i - e_j of a block, D adds
# +-(e_i + e_j), B adds +-e_i and C adds +-2e_i; two B components would span
# every e_i +- e_j between them, so there is at most one
_COMPONENTS = {
    "sl": ((("A", 2, None),),) * 2,
    "sp": (
        (("C", 1, None), ("A", 2, None)),
        (("B", 1, 1), ("D", 2, None), ("A", 2, None)),
    ),
}


def _partitions(room: int, least: int, count=None, largest=None):
    """Every non-increasing tuple of at most ``count`` parts, each at least
    ``least`` and at most ``largest``, with sum at most ``room``."""
    yield ()
    if count != 0:
        for first in range(least, min(room, largest or room) + 1):
            for rest in _partitions(
                room - first, least, None if count is None else count - 1, first
            ):
                yield (first,) + rest


def _labels(components, room: int):
    """Every orbit label: a partition for each of ``components`` with total
    size at most ``room``, as a tuple of (type letter, size)."""
    if not components:
        yield ()
        return
    (letter, least, count), rest = components[0], components[1:]
    for parts in _partitions(room, least, count):
        for tail in _labels(rest, room - sum(parts)):
            yield tuple((letter, k) for k in parts) + tail


def _vec(rank: int, *terms) -> tuple:
    v = [0] * rank
    for i, c in terms:
        v[i] += c
    return tuple(v)


def _family(rank: int, label) -> tuple:
    """The closed family of a label, its components on consecutive
    coordinate blocks, each in the order e_i - e_j (i != j, row-major),
    +-(e_i + e_j) (i < j), then +-e_i or +-2e_i."""
    out, start = [], 0
    for letter, k in label:
        block = range(start, start + k)
        start += k
        out += [_vec(rank, (i, 1), (j, -1)) for i in block for j in block if i != j]
        if letter != "A":
            out += [
                _vec(rank, (i, s), (j, s))
                for i, j in itertools.combinations(block, 2)
                for s in (1, -1)
            ]
        if letter in "BC":
            c = 1 if letter == "B" else 2
            out += [_vec(rank, (i, c * s)) for i in block for s in (1, -1)]
    return tuple(out)


def _basis(rank: int, label) -> tuple:
    """A Z-basis of the lattice that the family of a label spans: on each
    block e_i - e_(i+1), then e_k for B, 2e_k for C or e_(k-1) + e_k for D,
    k the block's last coordinate."""
    out, start = [], 0
    for letter, k in label:
        last = start + k - 1
        out += [_vec(rank, (i, 1), (i + 1, -1)) for i in range(start, last)]
        if letter in "BC":
            out.append(_vec(rank, (last, 1 if letter == "B" else 2)))
        elif letter == "D":
            out.append(_vec(rank, (last - 1, 1), (last, 1)))
        start = last + 1
    return tuple(out)


# one Smith form per orbit on each side, and the orbit count grows like the
# partition numbers.  Each bound is the largest n for which prime_report takes
# no longer than SL(19) or Sp(24) took with a Smith form on all the vectors of
# each family (medians 0.76 and 0.90 s on one core of an Intel Xeon): about
# 0.5 s for SL(21) (792 orbits a side) and 0.8 s for Sp(26) (1,770).  SL(22)
# took 0.76 s, level with the SL(19) mark and longer in 3 of 9 alternating
# rounds, and Sp(28) 1.3 s.
MAX_N = {"sl": 21, "sp": 26}


def _check_size(kind: str, label: str, n: int) -> None:
    if n > MAX_N[kind]:
        raise TooLarge(
            "n", f"{label} is too large: the prime report is limited to n <= {MAX_N[kind]}"
        )


# ---------------------------------------------------------------------------
# prime classifiers


def _coords_in_basis(basis, vectors) -> tuple:
    """The coordinates of each of ``vectors`` on the independent rows
    ``basis``, from one elimination of the columns of both; ``ValueError``
    if one is not an integer vector."""
    mat, pivots = _rref(list(zip(*basis, *vectors)))
    if pivots and pivots[-1] >= len(basis):
        raise ValueError("vector not in the span of the basis")
    out = []
    for c in range(len(basis), len(basis) + len(vectors)):
        coords = [0] * len(basis)
        for row, pc in zip(mat, pivots):
            coords[pc], rem = divmod(row[c], row[pc])
            if rem:
                raise ValueError("vector not in the integer span of the basis")
        out.append(tuple(coords))
    return tuple(out)


def _bad_primes(rd: RootDatum, simple) -> frozenset:
    """The primes dividing a coordinate of the highest root on the simple
    roots ``simple``: e_1 - e_n of SL(n) is 1, ..., 1 on e_i - e_(i+1), and
    2e_1 of Sp(2m) is 2, ..., 2, 1 on those and 2e_m."""
    n = rd.ambient_rank
    highest = _vec(n, (0, 1), (n - 1, -1)) if rd.kind == "sl" else _vec(n, (0, 2))
    (coords,) = _coords_in_basis(simple, [highest])
    return frozenset().union(*map(prime_factors, coords))


def prime_report(rd: RootDatum) -> PrimeReport:
    """Bad primes, torsion primes, and the pretty-good / rather-good exclusions.

    The X-side quantification runs over subsystems closed inside the root
    list; the Y-side runs over subsystems closed inside the coroot list.
    The two closures differ in general (in Sp(4) the coroots of the short
    roots form a closed set, the short roots do not), and both sides are
    needed to exhaust the quantifier over arbitrary subsets.  An element w
    of W is an automorphism of X and of Y that maps ZA onto Z(wA) and
    ZA^v onto Z(wA^v), so the torsion of X/ZA and of Y/ZA^v is constant
    on a W-orbit of families, and one quotient per orbit label decides it,
    taken from the ``_basis`` of the label's lattice.  When the coroot
    labels equal the root labels, as for SL, both sides share one list.
    """
    rank = rd.ambient_rank
    on_roots, on_coroots = _COMPONENTS[rd.kind]
    root_bases = {label: _basis(rank, label) for label in _labels(on_roots, rank)}
    coroot_bases = root_bases
    if on_coroots != on_roots:
        coroot_bases = {label: _basis(rank, label) for label in _labels(on_coroots, rank)}
    x_primes = {
        label: torsion_primes_of_quotient(basis + rd.x_relations)
        for label, basis in root_bases.items()
    }
    x_side = set().union(*x_primes.values())
    # the Y-basis coordinates of every coroot basis vector, from one elimination
    vectors = list({v for basis in coroot_bases.values() for v in basis})
    coords = dict(zip(vectors, _coords_in_basis(rd.y_basis, vectors)))
    y_side = set()
    for basis in coroot_bases.values():
        y_side |= torsion_primes_of_quotient([coords[v] for v in basis])

    # the whole system's label, A_(n-1) for SL(n) or C_m for Sp(2m): its
    # X-side quotient is the centre's, simple roots over x_relations
    whole = ((on_roots[0][0], rank),)
    bad = _bad_primes(rd, root_bases[whole])
    center = x_primes[whole]
    return PrimeReport(
        good_excluded=tuple(sorted(bad)),
        torsion=tuple(sorted(y_side)),
        pretty_good_excluded=tuple(sorted(x_side | y_side)),
        rather_good_excluded=tuple(sorted(bad | center)),
    )
