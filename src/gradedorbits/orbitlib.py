"""Nilpotent-orbit combinatorics for SL(n) and Sp(2m), and graded orbits in
type A in closed form from their segments.

For a weakly decreasing diagonal cocharacter, a nonzero graded piece of
sl_d splits into Hom blocks between weight spaces whose weights differ by
the degree n.  The weight blocks fall into chains u, u + n, u + 2n, ...,
and the piece is a product of representations of equioriented type-A
quivers, one per chain.  Orbits of the weight-zero group G_0 are therefore
classified by multisets of intervals (segments) of positions along each
chain; the canonical representative threads the segments, in
lexicographic order, through the first free coordinate of every block.

Everything the ``graded-orbits`` table reports comes from the segments,
with no linear algebra.  Take a segment v_1 -> ... -> v_l, x v_k = v_(k+1).

- Its standard sl2-triple has the diagonal h v_k = (2k - l - 1) v_k, so h
  lies in g_0.  The Levi potential sign(n)(n h_i - 2 w_i) of the canonical
  parabolic is constant on the segment, equal to
  -sign(n)(2 w(v_1) + (l - 1) n); the Levi blocks group the coordinates by
  it, in order of first coordinate.
- The orbit dimension is dim g_0(gl) - dim End(x), and End(x) is the sum
  over ordered pairs of segments of one chain of Hom([a, b], [c, e]),
  which is 1 exactly when c <= a <= e <= b and 0 otherwise
  (Abeasis, Del Fra and Kraft, The geometry of representations of A_m,
  Math. Ann. 256, 1981).

The orbit count of a chain is the number of interval multisets with its
block dimension vector (the Kostant partition function of A_k), counted
before anything is enumerated.  ``tests/oracles.py`` keeps the solver route
(the rank of ad x on g_0, and the sl2-triple with the canonical parabolic)
as the oracle these formulas are tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd

from .exactlin import Cocharacter, DomainError, Partition, RatMatrix


class InvalidPartition(ValueError):
    pass


class UnsortedWeights(DomainError):
    pass


class TooManyOrbits(DomainError):
    pass


@dataclass(frozen=True)
class ComponentGroup:
    kind: str  # "cyclic" or "elem2"
    parameter: int

    @property
    def order(self) -> int:
        if self.kind == "cyclic":
            return self.parameter
        return 2 ** self.parameter

    def label(self) -> str:
        if self.order == 1:
            return "1"
        if self.kind == "cyclic":
            return f"Z/{self.parameter}"
        if self.parameter == 1:
            return "Z/2"
        return f"(Z/2)^{self.parameter}"


@dataclass(frozen=True)
class NilpotentOrbit:
    group: str
    partition: Partition
    dimension: int
    component_group: ComponentGroup


@dataclass(frozen=True)
class GradedOrbitRep:
    decomposition: tuple  # intervals (start_block, end_block), 1-based
    representative: RatMatrix
    dimension: int
    levi_shape: tuple  # sizes of the canonical Levi's blocks

    def label(self) -> str:
        pieces = []
        for a, b in self.decomposition:
            pieces.append(f"[{a}-{b}]" if a != b else f"[{a}]")
        return "+".join(pieces)


def _validate_partition(kind: str, lam: Partition, n: int | None = None) -> None:
    if n is not None and lam.weight != n:
        raise InvalidPartition(f"partition weight {lam.weight} != {n}")
    if kind == "sp":
        for part in set(lam.parts):
            if part % 2 == 1 and lam.parts.count(part) % 2 == 1:
                raise InvalidPartition("odd parts must have even multiplicity for sp")


def orbit_dimension(kind: str, lam: Partition) -> int:
    kind = kind.lower()
    n = lam.weight
    tr = lam.transpose().parts
    if kind == "sl":
        return n * n - sum(t * t for t in tr)
    if kind == "sp":
        _validate_partition("sp", lam)
        m = n // 2
        odd = sum(1 for p in lam.parts if p % 2 == 1)
        return 2 * m * m + m - (sum(t * t for t in tr) + odd) // 2
    raise InvalidPartition(f"unsupported type {kind!r}")


def component_group(kind: str, lam: Partition) -> ComponentGroup:
    kind = kind.lower()
    if kind == "sl":
        g = 0
        for p in lam.parts:
            g = gcd(g, p)
        return ComponentGroup("cyclic", g)
    if kind == "sp":
        _validate_partition("sp", lam)
        distinct_even = len({p for p in lam.parts if p % 2 == 0})
        return ComponentGroup("elem2", distinct_even)
    raise InvalidPartition(f"unsupported type {kind!r}")


def nilpotent_orbits(kind: str, n: int) -> tuple:
    kind = kind.lower()
    if kind == "sp" and n % 2 != 0:
        raise DomainError("n", f"sp needs an even n, got {n}")
    orbits = []
    for lam in Partition.all_of(n):
        if kind == "sp":
            try:
                _validate_partition("sp", lam)
            except InvalidPartition:
                continue
        orbits.append(
            NilpotentOrbit(
                group=kind,
                partition=lam,
                dimension=orbit_dimension(kind, lam),
                component_group=component_group(kind, lam),
            )
        )
    return tuple(orbits)


# ---------------------------------------------------------------------------
# graded orbits in type A

# the most orbits ``graded_orbit_reps_typeA`` lists, and the most matrix
# cells (orbits x d^2) it prints: those of the largest table the orbit bound
# admits, 10,000 orbits at d = 23; see the README for the measurement
MAX_GRADED_ORBITS = 10_000
MAX_GRADED_CELLS = MAX_GRADED_ORBITS * 23**2


def _weight_blocks(weights):
    """Consecutive equal-weight blocks of a weakly decreasing weight vector."""
    blocks = []
    start = 0
    for i in range(1, len(weights) + 1):
        if i == len(weights) or weights[i] != weights[start]:
            blocks.append((weights[start], tuple(range(start, i))))
            start = i
    return blocks


def _chains(blocks, step):
    """Partition block indices into maximal chains of weight step ``step``."""
    by_weight = {w: k for k, (w, _) in enumerate(blocks)}
    has_pred = set()
    for k, (w, _) in enumerate(blocks):
        succ = by_weight.get(w + step)
        if succ is not None:
            has_pred.add(succ)
    chains = []
    for k, (w, _) in enumerate(blocks):
        if k in has_pred:
            continue
        chain = [k]
        cur = w
        while by_weight.get(cur + step) is not None:
            chain.append(by_weight[cur + step])
            cur = cur + step
        chains.append(chain)
    return chains


def _segment_starts(a, remaining):
    """Each way to start segments at position a, the first position that
    ``remaining`` still has to cover: (segments, what is left to cover).

    All remaining[a] coverings of position a start there.  The number of
    them that run on through position i can only fall as i grows and is at
    most remaining[i]; what is left is covered by later segments (at worst
    by single positions), so every choice completes.  Segments come in
    lexicographic order."""
    k = len(remaining)
    left = list(remaining)
    left[a] = 0

    def rec(i, running, segments):
        top = min(running, remaining[i]) if i < k else 0
        for through in range(top + 1):
            ended = segments + ((a, i - 1),) * (running - through)
            if not through:
                yield ended, tuple(left)
                continue
            left[i] -= through
            yield from rec(i + 1, through, ended)
            left[i] += through

    yield from rec(a + 1, remaining[a], ())


def _first_uncovered(a, remaining):
    while a < len(remaining) and not remaining[a]:
        a += 1
    return a


def _interval_multisets(dims):
    """All multisets of intervals [a, b] covering position i exactly dims[i]
    times, each as a lexicographically sorted tuple of intervals."""

    def rec(a, remaining):
        a = _first_uncovered(a, remaining)
        if a == len(remaining):
            yield ()
            return
        for segments, left in _segment_starts(a, remaining):
            for rest in rec(a + 1, left):
                yield segments + rest

    return tuple(rec(0, tuple(dims)))


def _interval_multiset_count(dims, limit):
    """The number of multisets ``_interval_multisets`` lists (the Kostant
    partition function of A_k at dims), or limit + 1 when it is larger.

    Each position with dims > 0 can be a segment on its own or continue the
    one before it, so a chain of k positions has at least 2^(k-1) multisets.
    Each step of the memoised recursion (a state with one choice of
    segments) is a distinct partial multiset that completes, so more than
    ``limit`` steps mean more than ``limit`` multisets; the work stays
    bounded by the limit."""
    if 2 ** (len(dims) - 1) > limit:
        return limit + 1
    memo = {}
    steps = 0

    def count(a, remaining):
        nonlocal steps
        a = _first_uncovered(a, remaining)
        if a == len(remaining):
            return 1
        if remaining not in memo:
            total = 0
            for _, left in _segment_starts(a, remaining):
                steps += 1
                if steps > limit:
                    return limit + 1
                total += count(a + 1, left)
            memo[remaining] = total
        return memo[remaining]

    return min(count(0, tuple(dims)), limit + 1)


def _validated_chains(chi: Cocharacter, n: int):
    """The weight blocks of chi and their chains of step n, after the checks
    a type-A graded piece needs."""
    if n == 0:
        raise DomainError("degree", "degree must be nonzero")
    w = chi.weights
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise UnsortedWeights("cochar", "cocharacter weights must be weakly decreasing")
    if sum(w) != 0:
        raise DomainError("cochar", "sl cocharacter weights must sum to zero")
    blocks = _weight_blocks(w)
    return blocks, _chains(blocks, n)


def graded_orbit_count(chi: Cocharacter, n: int) -> int:
    """The number of G_0-orbits on the degree-n piece of sl_d, or
    MAX_GRADED_ORBITS + 1 when it is larger; nothing is enumerated."""
    blocks, chains = _validated_chains(chi, n)
    limit = MAX_GRADED_ORBITS
    total = 1
    for chain in chains:
        total *= _interval_multiset_count([len(blocks[k][1]) for k in chain], limit)
        total = min(total, limit + 1)
    return total


def _chain_orbits(chain, blocks, n):
    """One entry per interval multiset of the chain: its segments as 1-based
    block intervals, the cells (row, column) of the representative, the Levi
    potential of each coordinate, and dim End of the quiver representation."""
    sign = 1 if n > 0 else -1
    coords_at = [blocks[k][1] for k in chain]
    out = []
    for multiset in _interval_multisets([len(coords) for coords in coords_at]):
        used = [0] * len(chain)
        cells = []
        potentials = []
        for a, b in multiset:
            coords = []
            for pos in range(a, b + 1):
                coords.append(coords_at[pos][used[pos]])
                used[pos] += 1
            cells += zip(coords[1:], coords)  # x e_u = e_v sits in cell (v, u)
            phi = -sign * (2 * blocks[chain[a]][0] + (b - a) * n)
            potentials += [(c, phi) for c in coords]
        # Hom([a, b], [c, e]) is 1 exactly when c <= a <= e <= b
        mult = Counter(multiset)
        hom = sum(
            p * q
            for (a, b), p in mult.items()
            for (c, e), q in mult.items()
            if c <= a <= e <= b
        )
        segments = tuple((chain[a] + 1, chain[b] + 1) for a, b in multiset)
        out.append((segments, cells, potentials, hom))
    return out


def graded_orbit_reps_typeA(chi: Cocharacter, n: int) -> tuple:
    """All orbit representatives of the weight-zero group on the degree-n
    piece of sl_d, for a weakly decreasing diagonal cocharacter, with each
    orbit's dimension and Levi shape in closed form (see the module
    docstring).  More than MAX_GRADED_ORBITS orbits, or more than
    MAX_GRADED_CELLS cells of d x d representatives, raise TooManyOrbits
    before any orbit is enumerated."""
    count = graded_orbit_count(chi, n)
    if count > MAX_GRADED_ORBITS:
        raise TooManyOrbits(
            "cochar",
            f"degree {n} has more than {MAX_GRADED_ORBITS} orbits,"
            " the most that are listed"
        )
    d = len(chi)
    if count * d * d > MAX_GRADED_CELLS:
        raise TooManyOrbits(
            "cochar",
            f"degree {n} has {count} orbit(s) of {d}x{d} representatives,"
            f" {count * d * d} cells, more than the {MAX_GRADED_CELLS} that are printed"
        )
    blocks, chains = _validated_chains(chi, n)
    g0_dim = sum(len(coords) ** 2 for _, coords in blocks)
    per_chain = [_chain_orbits(chain, blocks, n) for chain in chains]
    reps = []
    for combo in itertools.product(*per_chain):
        entries = [[0] * d for _ in range(d)]
        potential = [0] * d
        for _, cells, potentials, _ in combo:
            for v, u in cells:
                entries[v][u] = 1
            for c, phi in potentials:
                potential[c] = phi
        levi = {}  # potential -> block size, in order of first coordinate
        for phi in potential:
            levi[phi] = levi.get(phi, 0) + 1
        reps.append(
            GradedOrbitRep(
                tuple(sorted(seg for segments, *_ in combo for seg in segments)),
                RatMatrix(d, d, tuple(map(tuple, entries)), 1),
                g0_dim - sum(hom for *_, hom in combo),
                tuple(levi.values()),
            )
        )
    reps.sort(key=lambda r: (-r.dimension, r.label()))
    return tuple(reps)
