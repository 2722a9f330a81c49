"""Root data for the classical types SL(n) and Sp(2m), with closed-subsystem
enumeration and the four prime classifiers (bad, torsion, pretty good
exclusions, rather good exclusions).

Lattice conventions
-------------------
SL(n): the character lattice is Z^n modulo the diagonal copy of Z; it is
presented concretely as Z^n together with the extra relation row (1,...,1),
so quotient torsion is read off a stacked integer matrix.  The cocharacter
lattice is the trace-zero sublattice of Z^n, with basis e_i - e_(i+1).

Sp(2m): characters and cocharacters are both Z^m (the standard maximal
torus diag(t_1..t_m, t_1^-1..t_m^-1)); roots are +-e_i+-e_j and +-2e_i.

Closed families and the Weyl group
----------------------------------
The prime classifiers quantify over every Z-closed family of roots and of
coroots.  The Weyl group W permutes each list and acts linearly on its
lattice, so it maps closed families to closed families and keeps the
torsion of their quotients.  The search therefore keeps one family per
W-orbit, joins it with one vector from each orbit of the simple
reflections that fix it, lists the rest of the orbit by permuting bitmasks
under the simple reflections, and ``prime_report`` takes one torsion
quotient per orbit: SL(6) has 11 orbits of its 203 families.  The search
is bounded at ``MAX_ROOTS`` = 72 roots (SL(9), Sp(12)); the root count is
checked before any root is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exactlin import (
    DomainError,
    _rref,
    hermite_pivots,
    hermite_rows,
    in_hermite_span,
    prime_factors,
    torsion_primes_of_quotient,
)


class UnsupportedType(DomainError):
    pass


class TooLarge(DomainError):
    """Closed-subsystem enumeration guard exceeded."""


@dataclass(frozen=True)
class RootDatum:
    label: str
    ambient_rank: int
    roots: tuple  # integer vectors in the X presentation
    coroots: tuple  # parallel integer vectors in the Y presentation
    x_relations: tuple  # extra relation rows presenting X as a quotient
    y_basis: tuple  # basis rows of Y inside the ambient lattice

    def pairing(self, x, y) -> int:
        return sum(a * b for a, b in zip(x, y))


@dataclass(frozen=True)
class ClosedSubsystem:
    member_indices: tuple


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


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _differences(n):
    """The vectors e_i - e_j, i != j, of Z^n, row-major in (i, j)."""
    return tuple(
        tuple((1 if k == i else 0) - (1 if k == j else 0) for k in range(n))
        for i in range(n)
        for j in range(n)
        if i != j
    )


def standard_root_datum(kind: str, n: int) -> RootDatum:
    """The root datum of SL(n) or Sp(n).  The root count, n(n - 1) for SL(n)
    and n^2 / 2 for Sp(n), is checked against MAX_ROOTS before any root is
    built, so a huge n is refused at once."""
    kind = kind.lower()
    if kind == "sl":
        if n < 2:
            raise UnsupportedType("n", "SL needs n >= 2")
        label = f"SL({n})"
        _check_size(label, n * (n - 1))
        roots = _differences(n)  # e_i - e_j is its own coroot under the dot pairing
        y_basis = tuple(
            tuple(
                (1 if k == i else 0) - (1 if k == i + 1 else 0) for k in range(n)
            )
            for i in range(n - 1)
        )
        return RootDatum(
            label=label,
            ambient_rank=n,
            roots=roots,
            coroots=roots,
            x_relations=((1,) * n,),
            y_basis=y_basis,
        )
    if kind == "sp":
        if n < 2 or n % 2 != 0:
            raise UnsupportedType("n", "Sp needs even n >= 2")
        m = n // 2
        label = f"Sp({n})"
        _check_size(label, 2 * m * m)
        roots = list(_differences(m))
        coroots = list(roots)
        for i, j in itertools.combinations(range(m), 2):
            for s in (1, -1):
                vec = tuple(
                    s * ((1 if k == i else 0) + (1 if k == j else 0)) for k in range(m)
                )
                roots.append(vec)
                coroots.append(vec)
        for i in range(m):
            for s in (1, -1):
                roots.append(tuple(2 * s * (1 if k == i else 0) for k in range(m)))
                coroots.append(tuple(s * (1 if k == i else 0) for k in range(m)))
        return RootDatum(
            label=label,
            ambient_rank=m,
            roots=tuple(roots),
            coroots=tuple(coroots),
            x_relations=(),
            y_basis=tuple(_unit(m, i) for i in range(m)),
        )
    raise UnsupportedType("type", f"unsupported type {kind!r}")


# ---------------------------------------------------------------------------
# closed subsystems


def _support(vec) -> int:
    return sum(1 << j for j, x in enumerate(vec) if x)


def _close(vectors, supports, rows, members) -> tuple:
    """(members, Hermite rows) of the closed family of the span of ``rows``,
    members as a bitmask of vector indices.

    ``members`` are indices already known to lie in the span; of the other
    vectors only those supported on the span's columns can lie in it.
    """
    hnf = hermite_rows(rows)
    pivots = hermite_pivots(hnf)
    columns = 0
    for row in hnf:
        columns |= _support(row)
    for k, vec in enumerate(vectors):
        if not (members >> k & 1 or supports[k] & ~columns) and in_hermite_span(
            hnf, vec, pivots
        ):
            members |= 1 << k
    return members, hnf


def _byte_tables(perm) -> tuple:
    """The index permutation ``perm`` as an action on bitmasks: for each
    byte of a mask, the table of the images of its 256 values, so that
    permuting a mask of 72 indices takes nine lookups.  Each table doubles
    once per bit of its byte."""
    tables = []
    for start in range(0, len(perm), 8):
        table = [0]
        for k in perm[start : start + 8]:
            table += [image | 1 << k for image in table]
        tables.append(table)
    return tuple(tables)


def _walk(mask: int, generators) -> tuple:
    """(orbit, representative, fixing): the orbit of a bitmask under the
    group generated by index permutations given by their ``_byte_tables``,
    its first member fixed by the most generators, and those generators."""
    orbit = {mask}
    work = [mask]
    best = mask, []
    while work:
        current = work.pop()
        fixing = []
        for tables in generators:
            image = 0
            rest = current
            for table in tables:
                image |= table[rest & 255]
                rest >>= 8
            if image == current:
                fixing.append(tables)
            elif image not in orbit:
                orbit.add(image)
                work.append(image)
        if len(fixing) > len(best[1]):
            best = current, fixing
    return (orbit,) + best


def _closed_families(vectors, reflections=()) -> tuple:
    """(families, representatives), as sets of bitmasks of vector indices:
    all subsets closed under 'every listed vector in the span belongs', and
    one family from each orbit of them under the group W generated by
    ``reflections``, index permutations of ``vectors`` that act on their
    lattice linearly (the simple reflections of the Weyl group).

    Every nonempty closed family is cl(F u {v}) for a smaller closed family
    F and a vector v.  Closure commutes with a linear map that permutes the
    vectors: cl(wF u {v}) = w cl(F u {w^-1 v}), and cl(F u {sv}) =
    s cl(F u {v}) for s fixing F.  So, by induction on the vectors joined,
    joining each representative F with one vector from each orbit of any
    subgroup H of its stabilizer reaches every W-orbit; H is generated by
    the simple reflections that fix F's bitmask.  A new family's orbit is
    listed by permuting bitmasks, and its member fixed by the most simple
    reflections becomes the representative, its Hermite rows recomputed if
    it is not the family found.  A closure depends only on the lattice
    joined, which holds -v with v, so each union of F with +-v is closed
    once, and one that is already a family needs no work.
    """
    supports = [_support(v) for v in vectors]
    index = {v: k for k, v in enumerate(vectors)}
    negated = [index.get(tuple(-x for x in v), k) for k, v in enumerate(vectors)]
    generators = [_byte_tables(perm) for perm in reflections]
    seen, representatives, tried = {0}, {0}, set()
    work = [(0, (), generators)]
    while work:
        base, base_rows, subgroup = work.pop()
        reached = base  # H fixes F, so it permutes F's members among themselves
        for k in range(len(vectors)):
            if reached >> k & 1:
                continue
            reached |= sum(_walk(1 << k, subgroup)[0])
            union = base | 1 << k | 1 << negated[k]
            if union in seen or union in tried:
                continue
            tried.add(union)
            members, rows = _close(vectors, supports, base_rows + (vectors[k],), union)
            if members not in seen:
                orbit, rep, fixing = _walk(members, generators)
                seen |= orbit
                if rep != members:
                    rows = hermite_rows([vectors[j] for j in _indices(rep)])
                representatives.add(rep)
                work.append((rep, rows, fixing))
    return seen, representatives


def _indices(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _sorted_families(masks) -> tuple:
    """Bitmasks as index tuples, sorted by size, then by indices."""
    return tuple(sorted(map(_indices, masks), key=lambda t: (len(t), t)))


# closed-family enumeration grows about exponentially in the root count:
# prime_report takes about 0.3 s for SL(9) and Sp(12), 72 roots each, the
# largest accepted, and about 2 s for SL(10), 90 roots
MAX_ROOTS = 72


def _check_size(label: str, roots: int) -> None:
    if roots > MAX_ROOTS:
        raise TooLarge(
            "n",
            f"{label} has {roots} roots; closed-subsystem "
            f"enumeration is limited to {MAX_ROOTS}"
        )


def closed_subsystems(rd: RootDatum) -> tuple:
    """Every closed family of roots, sorted by size, then by indices.
    Raises ``ValueError`` if a simple reflection does not permute the
    roots."""
    _check_size(rd.label, len(rd.roots))
    families, _ = _closed_families(rd.roots, _simple_reflections(rd)[0])
    return tuple(ClosedSubsystem(f) for f in _sorted_families(families))


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


def x_quotient_rows(rd: RootDatum, indices) -> tuple:
    """Rows presenting X / (Z * selected roots) as a cokernel."""
    return tuple(rd.roots[i] for i in indices) + rd.x_relations


def y_quotient_rows(rd: RootDatum, indices) -> tuple:
    """Rows presenting Y / (Z * selected coroots), in Y-basis coordinates."""
    return _coords_in_basis(rd.y_basis, [rd.coroots[i] for i in indices])


def _height(rd: RootDatum):
    """A linear form that is nonzero on every root: the roots where it is
    positive form a positive system."""
    n = rd.ambient_rank
    big = 2 * max((abs(x) for v in rd.roots for x in v), default=0) * n + 1
    weights = [big ** (n - 1 - i) for i in range(n)]
    return lambda v: sum(w * x for w, x in zip(weights, v))


def _simple_roots(rd: RootDatum) -> tuple:
    """Indices of the simple roots of the positive system of ``_height``:
    the positive roots that are not the sum of two positive roots."""
    height = _height(rd)
    positives = {v for v in rd.roots if height(v) > 0}

    def is_sum(alpha):
        return any(
            tuple(a - b for a, b in zip(alpha, beta)) in positives for beta in positives
        )

    return tuple(
        k
        for k, alpha in enumerate(rd.roots)
        if alpha in positives and not is_sum(alpha)
    )


def _reflection(vectors, alpha, pair) -> tuple:
    """v -> v - pair(v) * alpha on the list ``vectors``, as the index of
    each image; ``ValueError`` if an image is not in the list."""
    index = {v: k for k, v in enumerate(vectors)}
    perm = []
    for v in vectors:
        c = pair(v)
        image = tuple(x - c * a for x, a in zip(v, alpha))
        if image not in index:
            raise ValueError(f"reflection maps {v} to {image}, which is not listed")
        perm.append(index[image])
    return tuple(perm)


def _simple_reflections(rd: RootDatum, simple=None) -> tuple:
    """(on roots, on coroots): the simple reflections of W as index
    permutations, s(v) = v - <v, a^v> a on the roots and
    s(y) = y - <a, y> a^v on the coroots, for each simple root a, given by
    its index in ``simple`` (default ``_simple_roots(rd)``)."""
    on_roots, on_coroots = [], []
    for k in _simple_roots(rd) if simple is None else simple:
        alpha, alphav = rd.roots[k], rd.coroots[k]
        on_roots.append(_reflection(rd.roots, alpha, lambda v: rd.pairing(v, alphav)))
        on_coroots.append(
            _reflection(rd.coroots, alphav, lambda y: rd.pairing(alpha, y))
        )
    return tuple(on_roots), tuple(on_coroots)


def _bad_primes(rd: RootDatum, simple) -> frozenset:
    """Primes dividing a coefficient of the highest root of some factor,
    given the indices ``simple`` of the simple roots."""
    roots = rd.roots
    if not roots:
        return frozenset()
    height = _height(rd)
    positives = [v for v in roots if height(v) > 0]
    simples = [roots[k] for k in simple]
    simple_coroots = [rd.coroots[k] for k in simple]
    # connected components of the simple system under non-orthogonality
    remaining = list(range(len(simples)))
    components = []
    while remaining:
        comp = [remaining.pop(0)]
        grew = True
        while grew:
            grew = False
            for k in list(remaining):
                if any(rd.pairing(simples[k], simple_coroots[c]) for c in comp):
                    comp.append(k)
                    remaining.remove(k)
                    grew = True
        components.append(comp)
    bad = set()
    for comp in components:
        comp_simples = [simples[k] for k in comp]
        hnf = hermite_rows(comp_simples)
        comp_pos = [v for v in positives if in_hermite_span(hnf, v)]
        highest = max(comp_pos, key=height)
        for c in _coords_in_basis(comp_simples, [highest])[0]:
            bad |= prime_factors(c)
    bad.discard(1)
    return frozenset(bad)


def prime_report(rd: RootDatum) -> PrimeReport:
    """Bad primes, torsion primes, and the pretty-good / rather-good exclusions.

    The X-side quantification runs over subsystems closed inside the root
    list; the Y-side runs over subsystems closed inside the coroot list.
    The two closures differ in general (in Sp(4) the coroots of the short
    roots form a closed set, the short roots do not), and both sides are
    needed to exhaust the quantifier over arbitrary subsets.  An element w
    of W is an automorphism of X and of Y that maps ZA onto Z(wA) and
    ZA^v onto Z(wA^v), so the torsion of X/ZA and of Y/ZA^v is constant
    on a W-orbit of families, and one quotient per orbit representative
    decides it.  When the coroot list equals the root list, as for SL, one
    search serves both sides.  Root data with more than ``MAX_ROOTS``
    roots raise ``TooLarge``.
    """
    _check_size(rd.label, len(rd.roots))
    simple = _simple_roots(rd)
    on_roots, on_coroots = _simple_reflections(rd, simple)
    _, root_reps = _closed_families(rd.roots, on_roots)
    coroot_reps = (
        root_reps
        if rd.coroots == rd.roots
        else _closed_families(rd.coroots, on_coroots)[1]
    )
    y_rows = y_quotient_rows(rd, range(len(rd.coroots)))

    x_side = set()
    for fam in _sorted_families(root_reps):
        x_side |= torsion_primes_of_quotient(x_quotient_rows(rd, fam))
    y_side = set()
    for fam in _sorted_families(coroot_reps):
        y_side |= torsion_primes_of_quotient([y_rows[i] for i in fam])

    bad = _bad_primes(rd, simple)
    full = tuple(range(len(rd.roots)))
    center = torsion_primes_of_quotient(x_quotient_rows(rd, full))
    return PrimeReport(
        good_excluded=tuple(sorted(bad)),
        torsion=tuple(sorted(y_side)),
        pretty_good_excluded=tuple(sorted(x_side | y_side)),
        rather_good_excluded=tuple(sorted(bad | center)),
    )
