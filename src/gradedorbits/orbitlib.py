"""Nilpotent-orbit combinatorics for SL(n) and Sp(2m), and enumeration of
graded orbits in type A via interval decompositions.

For a weakly decreasing diagonal cocharacter, a nonzero graded piece of
sl_d splits into Hom blocks between weight spaces whose weights differ by
the degree.  Orbits of the weight-zero group are classified by multisets
of intervals of blocks (each interval contributes an indecomposable thread
of identity maps); the canonical representative threads intervals in
lexicographic order through the first free slot of every block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .exactlin import IntMatrix, Partition, RatMatrix, bracket, rank_rational
from .liegrade import Cocharacter, MatrixLieAlgebra, build_algebra, graded_component


class InvalidPartition(ValueError):
    pass


class WeightMismatch(ValueError):
    pass


class NotTypeA(ValueError):
    pass


class UnsortedWeights(ValueError):
    pass


class NotInComponent(ValueError):
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
    representative: IntMatrix
    dimension: int

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
        raise InvalidPartition("sp needs even n")
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


def closure_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance: lam is in the closure of mu."""
    if lam.weight != mu.weight:
        raise WeightMismatch("partitions must have the same weight")
    ps_l = list(itertools.accumulate(lam.parts))
    ps_m = list(itertools.accumulate(mu.parts))
    length = max(len(ps_l), len(ps_m))
    ps_l += [ps_l[-1]] * (length - len(ps_l)) if ps_l else [0] * length
    ps_m += [ps_m[-1]] * (length - len(ps_m)) if ps_m else [0] * length
    return all(a <= b for a, b in zip(ps_l, ps_m))


# ---------------------------------------------------------------------------
# graded orbits in type A


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


def _interval_multisets(dims):
    """All multisets of intervals [a, b] covering each position a..b once,
    with position i covered exactly dims[i] times."""
    k = len(dims)
    intervals = [
        (a, b) for a in range(k) for b in range(a, k)
    ]

    def rec(remaining, start_idx):
        if all(x == 0 for x in remaining):
            yield ()
            return
        for idx in range(start_idx, len(intervals)):
            a, b = intervals[idx]
            if all(remaining[i] > 0 for i in range(a, b + 1)):
                nxt = list(remaining)
                for i in range(a, b + 1):
                    nxt[i] -= 1
                for rest in rec(nxt, idx):
                    yield ((a, b),) + rest

    return tuple(rec(list(dims), 0))


def graded_orbit_reps_typeA(chi: Cocharacter, n: int, kind: str = "sl") -> tuple:
    """All orbit representatives of the weight-zero group on the degree-n
    piece of sl_d, for a weakly decreasing diagonal cocharacter."""
    if kind.lower() != "sl":
        raise NotTypeA("graded orbit enumeration only implemented for type A")
    if n == 0:
        raise ValueError("degree must be nonzero")
    w = chi.weights
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise UnsortedWeights("cocharacter weights must be weakly decreasing")
    d = len(w)
    blocks = _weight_blocks(w)
    step = n  # walking a chain moves the weight by n
    chains = _chains(blocks, step)
    alg = build_algebra("sl", d)
    # enumerate decompositions chain by chain, then combine
    per_chain = []
    for chain in chains:
        dims = [len(blocks[k][1]) for k in chain]
        per_chain.append(_interval_multisets(dims))
    reps = []
    for combo in itertools.product(*per_chain):
        decomposition = []
        entries = [[0] * d for _ in range(d)]
        used = {k: 0 for k in range(len(blocks))}
        for chain, multiset in zip(chains, combo):
            for a, b in sorted(multiset):
                slots = []
                for pos in range(a, b + 1):
                    block_idx = chain[pos]
                    coords = blocks[block_idx][1]
                    slots.append(coords[used[block_idx]])
                    used[block_idx] += 1
                for u, v in zip(slots, slots[1:]):
                    entries[v][u] = 1  # degree-n cell: weight drops by -n ... see below
                decomposition.append((chain[a] + 1, chain[b] + 1))
        rep = IntMatrix.from_rows(entries)
        # representative entries must sit in degree n: cell (i, j) has degree w_i - w_j
        ordered = tuple(sorted(decomposition))
        rep_rat = RatMatrix.from_int(rep)
        dim = graded_orbit_dimension(alg, chi, n, rep_rat)
        reps.append(GradedOrbitRep(ordered, rep, dim))
    reps.sort(key=lambda r: (-r.dimension, r.label()))
    return tuple(reps)


def graded_orbit_dimension(
    alg: MatrixLieAlgebra, chi: Cocharacter, n: int, x: RatMatrix
) -> int:
    """Dimension of the weight-zero-group orbit of x: the rank of ad(x)
    restricted to the degree-zero subalgebra."""
    w = chi.weights
    for (i, j) in x.support():
        if w[i] - w[j] != n:
            raise NotInComponent("x has a cell outside the requested degree")
    g0 = graded_component(alg, chi, 0)
    if not g0.basis:
        return 0
    # the numerators of each row: scaling a row does not change the rank
    rows = [[v for row in bracket(y, x).num for v in row] for y in g0.basis]
    return rank_rational(rows)
