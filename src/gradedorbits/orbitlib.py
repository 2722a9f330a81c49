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
- The representative has a 1 in row v, column u wherever x e_u = e_v on a
  segment, so at most one 1 in each row and column.  Its text joins d of
  d + 1 row strings made once per call (all zeros, or a single 1 in column
  u); no d x d matrix is built.

The orbit count of a chain is the number of interval multisets with its
block dimension vector (the Kostant partition function of A_k).  Each
chain is listed up to one multiset more than the orbit bound leaves room
for, and keeps only as many as the cell bound could print at this d, so
no row is built before the count is known.  A multiset is walked and
held as its distinct segments with their multiplicities, at most
k(k + 1)/2 of them for a chain of k positions, so the cost of listing it
does not grow with the block sizes; only the rows, potentials and
labels of a kept multiset expand the multiplicities.  ``tests/oracles.py``
keeps the solver route (the rank of ad x on g_0, and the sl2-triple with
the canonical parabolic) as the oracle these formulas are tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd

from .exactlin import DomainError, Partition


class InvalidPartition(ValueError):
    pass


class UnsortedWeights(DomainError):
    pass


class TooManyOrbits(DomainError):
    pass


def _is_sp_partition(lam: Partition) -> bool:
    """Whether lam is the Jordan type of a nilpotent of sp: every odd part
    has even multiplicity."""
    return all(lam.parts.count(part) % 2 == 0 for part in set(lam.parts) if part % 2)


def _checked_kind(kind: str, lam: Partition) -> str:
    """kind in lower case, once it names sl or sp and lam is the Jordan type
    of a nilpotent of it."""
    kind = kind.lower()
    if kind not in ("sl", "sp"):
        raise InvalidPartition(f"unsupported type {kind!r}")
    if not lam.parts:
        raise InvalidPartition("the empty partition is the Jordan type of no nilpotent")
    if kind == "sp" and not _is_sp_partition(lam):
        raise InvalidPartition("odd parts must have even multiplicity for sp")
    return kind


def orbit_dimension(kind: str, lam: Partition) -> int:
    kind = _checked_kind(kind, lam)
    n = lam.weight
    # the sum of the squares of the parts of the transpose of lam, from the
    # parts themselves (Macdonald, Symmetric Functions and Hall Polynomials,
    # I.1): sum_j lam'_j^2 = sum_i (2i - 1) lam_i
    squares = sum((2 * i + 1) * p for i, p in enumerate(lam.parts))
    if kind == "sl":
        return n * n - squares
    m = n // 2
    odd = sum(1 for p in lam.parts if p % 2 == 1)
    return 2 * m * m + m - (squares + odd) // 2


def component_group(kind: str, lam: Partition) -> tuple:
    """The component group of the orbit's centraliser as (label, order):
    Z/g for sl, g the gcd of the parts, and (Z/2)^k for sp, k the number of
    distinct even parts."""
    if _checked_kind(kind, lam) == "sl":
        order = gcd(*lam.parts)
        return ("1" if order == 1 else f"Z/{order}"), order
    k = len({p for p in lam.parts if p % 2 == 0})
    return ("1" if k == 0 else "Z/2" if k == 1 else f"(Z/2)^{k}"), 2**k


def nilpotent_orbits(kind: str, n: int) -> list:
    """The orbit table of ``orbits``: one dict per nilpotent orbit, with its
    partition, label, dimension and component group."""
    kind = kind.lower()
    if n < 1:
        raise DomainError("n", f"n must be at least 1, got {n}")
    if kind == "sp" and n % 2 != 0:
        raise DomainError("n", f"sp needs an even n, got {n}")
    orbits = []
    for lam in Partition.all_of(n):
        if kind == "sp" and not _is_sp_partition(lam):
            continue
        group, order = component_group(kind, lam)
        orbits.append({
            "partition": list(lam.parts),
            "label": lam.label(),
            "dim": orbit_dimension(kind, lam),
            "component_group": group,
            "component_group_order": order,
        })
    return orbits


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
    ``remaining`` still has to cover: (segments, what is left to cover),
    the segments as ((a, b), multiplicity) pairs by increasing b.

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
            ended = segments
            if running > through:  # that many end at position i - 1
                ended += (((a, i - 1), running - through),)
            if not through:
                yield ended, tuple(left)
                continue
            left[i] -= through
            yield from rec(i + 1, through, ended)
            left[i] += through

    yield from rec(a + 1, remaining[a], ())


def _interval_multisets(dims):
    """Each multiset of intervals [a, b] covering position i exactly dims[i]
    times, as a lexicographically sorted tuple of its distinct intervals
    with their multiplicities, ((a, b), m): at most k(k + 1) / 2 entries for
    k positions, whatever the dims.  Every choice of ``_segment_starts``
    completes, so each multiset costs one walk down the positions."""

    def rec(a, remaining):
        while a < len(remaining) and not remaining[a]:
            a += 1
        if a == len(remaining):
            yield ()
            return
        for segments, left in _segment_starts(a, remaining):
            for rest in rec(a + 1, left):
                yield segments + rest

    return rec(0, tuple(dims))


def _validated_chains(chi: tuple, n: int):
    """The weight blocks of chi and their chains of step n, after the checks
    a type-A graded piece needs."""
    if n == 0:
        raise DomainError("degree", "degree must be nonzero")
    if any(chi[i] < chi[i + 1] for i in range(len(chi) - 1)):
        raise UnsortedWeights("cochar", "cocharacter weights must be weakly decreasing")
    if sum(chi) != 0:
        raise DomainError("cochar", "sl cocharacter weights must sum to zero")
    blocks = _weight_blocks(chi)
    return blocks, _chains(blocks, n)


def _listed_multisets(chain_dims, printable):
    """The product of the chains' multiset counts and the multisets of each
    chain, or (None, None) once the product is above MAX_GRADED_ORBITS.

    ``room`` is the most multisets the next chain may have, so each listing
    stops at room + 1.  A chain of k positions has at least 2^(k-1)
    multisets (each position ends a segment or continues it), so a chain
    longer than room.bit_length() is refused before it is walked.  A
    multiset is kept only while its number times the product before it is
    at most ``printable``, so the lists are whole when the product is."""
    room, count, listed = MAX_GRADED_ORBITS, 1, []
    for dims in chain_dims:
        if len(dims) > room.bit_length():
            return None, None
        kept = []
        listing = itertools.islice(_interval_multisets(dims), room + 1)
        for found, multiset in enumerate(listing, 1):  # a chain has one at least
            if count * found <= printable:
                kept.append(multiset)
        if found > room:
            return None, None
        room, count = room // found, count * found
        listed.append(kept)
    return count, listed


def _chain_orbits(chain, multisets, blocks, n, row_text):
    """One entry per interval multiset of the chain: its 1-based block
    segments with their labels, (row, row_text[column]) for each 1 of the
    representative, the Levi potential of each coordinate, and dim End."""
    sign = 1 if n > 0 else -1
    coords_at = [blocks[k][1] for k in chain]
    out = []
    for multiset in multisets:
        used = [0] * len(chain)
        labelled = []
        rows = []
        potentials = []
        for (a, b), m in multiset:
            lo, hi = chain[a] + 1, chain[b] + 1
            labelled += [((lo, hi), f"[{lo}-{hi}]" if a != b else f"[{lo}]")] * m
            phi = -sign * (2 * blocks[chain[a]][0] + (b - a) * n)
            for _ in range(m):
                u = None
                for pos in range(a, b + 1):
                    v = coords_at[pos][used[pos]]
                    used[pos] += 1
                    potentials.append((v, phi))
                    if u is not None:  # x e_u = e_v puts the 1 of row v in column u
                        rows.append((v, row_text[u]))
                    u = v
        # Hom([a, b], [c, e]) is 1 exactly when c <= a <= e <= b, for each
        # of the m x m2 pairs of their copies
        hom = sum(m * m2 for (a, b), m in multiset for (c, e), m2 in multiset if c <= a <= e <= b)
        out.append((labelled, rows, potentials, hom))
    return out


def graded_orbit_reps_typeA(chi: tuple, n: int) -> list:
    """The orbit table of ``graded-orbits``: one dict per orbit of the
    weight-zero group on the degree-n piece of sl_d, for a weakly decreasing
    diagonal cocharacter, with its segments, representative as matrix text,
    dimension and Levi block sizes in closed form (see the module
    docstring), by decreasing dimension.  More than MAX_GRADED_ORBITS
    orbits, or more than MAX_GRADED_CELLS cells of d x d representatives,
    raise TooManyOrbits before any row is built, after listing at most
    MAX_GRADED_ORBITS + 1 multisets of each chain."""
    blocks, chains = _validated_chains(chi, n)
    d = len(chi)
    chain_dims = [[len(blocks[k][1]) for k in chain] for chain in chains]
    count, listed = _listed_multisets(chain_dims, MAX_GRADED_CELLS // max(d * d, 1))
    if count is None:
        raise TooManyOrbits(
            "cochar",
            f"degree {n} has more than {MAX_GRADED_ORBITS} orbits,"
            " the most that are listed"
        )
    if count * d * d > MAX_GRADED_CELLS:
        raise TooManyOrbits(
            "cochar",
            f"degree {n} has {count} orbit(s) of {d}x{d} representatives,"
            f" {count * d * d} cells, more than the {MAX_GRADED_CELLS} that are printed"
        )
    g0_dim = sum(len(coords) ** 2 for _, coords in blocks)
    zero_row = ",".join("0" * d)
    row_text = ["0," * u + "1" + ",0" * (d - 1 - u) for u in range(d)]
    per_chain = [
        _chain_orbits(chain, multisets, blocks, n, row_text)
        for chain, multisets in zip(chains, listed)
    ]
    del listed  # frees the multisets before the rows, the peak of memory, are joined
    reps = []
    for combo in itertools.product(*per_chain):
        rows = [zero_row] * d
        potential = [0] * d
        labelled = []
        hom = 0
        for chain_labelled, chain_rows, chain_potentials, chain_hom in combo:
            for v, text in chain_rows:
                rows[v] = text
            for c, phi in chain_potentials:
                potential[c] = phi
            labelled += chain_labelled
            hom += chain_hom
        labelled.sort()
        reps.append({
            "decomposition": [list(seg) for seg, _ in labelled],
            "label": "+".join(label for _, label in labelled),
            "representative": ";".join(rows),
            "dim": g0_dim - hom,
            # in order of first coordinate: a Counter keeps first-seen order
            "levi_blocks": list(Counter(potential).values()),
        })
    reps.sort(key=lambda r: (-r["dim"], r["label"]))
    return reps
