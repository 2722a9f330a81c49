"""Brute-force flag enumeration over prime fields.

Every fiber description shipped with a case is independently verified by
counting flags over F_p.  For each (case, prime) there is one exhaustive
sweep: every k-subspace of F_p^d is enumerated in reduced row echelon
form, and for each one the sweep decides, for every orbit representative
of the case at once, whether the subspace is stable and, if it is, which
strata it lies in; only x-stable subspaces are counted.  The counts are
compared against evaluated counting polynomials (with a residue-class rule
for the one stratum pair defined over a quadratic extension).  An
independent per-stratum sweep with generic elimination lives in
``tests/oracles.py``, and the tests compare the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cohom import CaseData, counting_polynomial
from .exactlin import IntMatrix, is_prime, rank_and_kernel


class LimitExceeded(ValueError):
    pass


class NotStableUnderForm(ValueError):
    pass


MAX_PRIME = 13
MAX_DIM = 6


@dataclass(frozen=True)
class CountRow:
    orbit: str
    prime: int
    stratum: str
    count: int
    predicted: int
    match: bool


@dataclass(frozen=True)
class CountReport:
    case: str
    rows: tuple

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)


def gaussian_binomial(d: int, k: int, q: int) -> int:
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def _echelon_rows(p, d, pivots, i):
    """Every possible row i of a reduced echelon basis with these pivots."""
    free = [j for j in range(pivots[i] + 1, d) if j not in pivots]
    for values in itertools.product(range(p), repeat=len(free)):
        row = [0] * d
        row[pivots[i]] = 1
        for j, v in zip(free, values):
            row[j] = v
        yield tuple(row)


def enumerate_subspaces(p: int, d: int, k: int):
    """All k-dimensional subspaces of F_p^d, one reduced-row-echelon basis
    each.

    Bases with the same pivots share the tuples of their leading k - 1
    rows, so a row that did not change from one basis to the next is the
    same object.  Only the last row is built afresh for every basis, which
    keeps the rows held at once to at most (k - 1) p^(d - k)."""
    if not is_prime(p) or p > MAX_PRIME or d > MAX_DIM or not 1 <= k < d:
        raise LimitExceeded("enumeration bounds: p prime <= 13, d <= 6, 1 <= k < d")
    for pivots in itertools.combinations(range(d), k):
        heads = [list(_echelon_rows(p, d, pivots, i)) for i in range(k - 1)]
        for head in itertools.product(*heads):
            for last in _echelon_rows(p, d, pivots, k - 1):
                yield head + (last,)


def _mod(m: IntMatrix, p: int) -> IntMatrix:
    return IntMatrix(m.rows, m.cols, tuple(tuple(a % p for a in r) for r in m.entries))


def _validate_element(x_rows, p, d, form):
    x = IntMatrix(d, d, x_rows)
    power = IntMatrix.identity(d)
    for _ in range(d):
        power = _mod(power * x, p)
    if not power.is_zero():
        raise NotStableUnderForm("element is not nilpotent over F_p")
    if form is not None and not _mod(x.transpose() * form + form * x, p).is_zero():
        raise NotStableUnderForm("element is not in the form's algebra")


def _apply(entries, v, d):
    """x v, from the nonzero entries (i, j, a) of x; not reduced mod p."""
    w = [0] * d
    for i, j, a in entries:
        w[i] += a * v[j]
    return w


def _in_span(w, basis, pivots, nonpivots, p):
    """Whether w lies in the span of an echelon basis: the only candidate
    is the combination of the rows weighted by w at their pivots, so it is
    enough to compare that with w on the non-pivot columns."""
    for j in nonpivots:
        s = w[j]
        for pivot, row in zip(pivots, basis):
            s -= w[pivot] * row[j]
        if s % p:
            return False
    return True


def _perp(basis, form, p):
    """(A, K): the rows v^T B of the basis vectors v, and a basis K of the
    perp of the span, the right kernel of A over F_p."""
    d = form.rows
    a = tuple(
        tuple(sum(v[i] * form.entries[i][j] for i in range(d)) % p for j in range(d))
        for v in basis
    )
    return a, rank_and_kernel(IntMatrix.from_rows(a), p)[1]


def _sweep(p, d, k, form, elements, condition_sets):
    """counts[e][c]: the number of x-stable k-subspaces V of F_p^d, for
    x = ``elements[e]``, that meet every condition of ``condition_sets[c]``.

    The conditions, each on an x-stable V: ``sub-nonzero``, x does not
    vanish on V; ``quot-nonzero``, x does not vanish on F_p^d / V;
    ``middle-zero`` and ``middle-nonzero``, x maps the perp of V under
    ``form`` into V, or does not (they need a form).

    One exhaustive pass over the Grassmannian serves every element and
    every condition set.  Each element is validated first.  Under a form,
    the perp of every counted subspace is checked to be x-stable too, and a
    failure raises NotStableUnderForm.
    """
    for x_rows in elements:
        _validate_element(x_rows, p, d, form)
    entries = [
        tuple((i, j, a) for i, row in enumerate(x) for j, a in enumerate(row) if a)
        for x in elements
    ]
    columns = [[col for col in zip(*x) if any(col)] for x in elements]
    needed = set().union(*condition_sets)
    counts = [[0] * len(condition_sets) for _ in elements]
    images = [[None] * k for _ in elements]
    nonpivots_of = {}
    previous = (None,) * k
    for basis in enumerate_subspaces(p, d, k):
        pivots = tuple(row.index(1) for row in basis)
        nonpivots = nonpivots_of.get(pivots)
        if nonpivots is None:
            nonpivots = nonpivots_of[pivots] = tuple(
                j for j in range(d) if j not in pivots
            )
        # rows shared with the previous basis keep their images
        fresh = [i for i in range(k) if basis[i] is not previous[i]]
        previous = basis
        perp = None
        for e, xe in enumerate(entries):
            imgs = images[e]
            for i in fresh:
                imgs[i] = _apply(xe, basis[i], d)
            stable = True
            for w in imgs:
                if not _in_span(w, basis, pivots, nonpivots, p):
                    stable = False
                    break
            if not stable:
                continue
            facts = {}
            if "sub-nonzero" in needed:
                facts["sub-nonzero"] = any(c % p for w in imgs for c in w)
            if "quot-nonzero" in needed:
                facts["quot-nonzero"] = not all(
                    _in_span(col, basis, pivots, nonpivots, p) for col in columns[e]
                )
            if form is not None:
                if perp is None:
                    a, perp = _perp(basis, form, p)
                perp_images = [_apply(xe, u, d) for u in perp]
                if any(
                    sum(b * c for b, c in zip(row, w)) % p
                    for w in perp_images
                    for row in a
                ):
                    raise NotStableUnderForm(
                        "perp of a stable subspace failed to be stable"
                    )
                middle_zero = all(
                    _in_span(w, basis, pivots, nonpivots, p) for w in perp_images
                )
                facts["middle-zero"] = middle_zero
                facts["middle-nonzero"] = not middle_zero
            tally = counts[e]
            for c, conditions in enumerate(condition_sets):
                if all(facts[name] for name in conditions):
                    tally[c] += 1
    return counts


def _strata_for(case: CaseData):
    """The flag dimension of the case and its strata: (name, conditions of
    ``_sweep`` beyond stability, fiber attribute)."""
    if case.flag_kind == "isotropic-line":
        if case.form is None:
            raise ValueError("an isotropic-line case needs a form")
        flag_dim = 1
        strata = [
            ("full", (), "full_fiber"),
            ("zero", ("middle-zero",), "zero_part"),
            ("cuspidal", ("middle-nonzero",), "cuspidal_part"),
        ]
    elif case.flag_kind == "two-plane":
        flag_dim = 2
        strata = [
            ("full", (), "full_fiber"),
            ("cuspidal", ("sub-nonzero", "quot-nonzero"), "cuspidal_part"),
        ]
    else:
        raise ValueError(f"unknown flag kind {case.flag_kind!r}")
    return flag_dim, strata


def _gauss_pair_points(p: int) -> int:
    """Points of the pair cut out by a^2 + b^2 = 0 in the projective line."""
    if p == 2:
        return 1
    return 2 if p % 4 == 1 else 0


def verify_fiber_counts(case: CaseData, primes) -> CountReport:
    """Count every stratum of every orbit fiber over each prime and compare
    with the predicted value.

    Each prime takes one sweep of the Grassmannian that counts all orbits
    and strata of the case together.  Predictions evaluate the counting
    polynomial, except for a stratum pair defined over a quadratic
    extension: its zero part contributes 2 or 0 points according to q mod
    4, and the complementary cuspidal part picks up the rest of the full
    fiber.
    """
    flag_dim, strata = _strata_for(case)
    condition_sets = [conditions for _, conditions, _ in strata]
    rows = []
    for p in primes:
        if not is_prime(p) or p > MAX_PRIME:
            raise LimitExceeded("primes must be prime and <= 13")
        elements = [
            tuple(tuple(a % p for a in row) for row in orbit.representative.entries)
            for orbit in case.orbits
        ]
        counts = _sweep(
            p, case.ambient_dim, flag_dim, case.form, elements, condition_sets
        )
        for orbit, orbit_counts in zip(case.orbits, counts):
            full_pred = counting_polynomial(orbit.full_fiber)(p)
            for (stratum, _, attr), count in zip(strata, orbit_counts):
                expr = getattr(orbit, attr)
                if stratum == "full":
                    predicted = full_pred
                elif orbit.zero_part_twisted_pair:
                    zero_pred = _gauss_pair_points(p)
                    predicted = (
                        zero_pred if stratum == "zero" else full_pred - zero_pred
                    )
                else:
                    predicted = counting_polynomial(expr)(p) if expr is not None else 0
                rows.append(
                    CountRow(
                        orbit=orbit.partition.label(),
                        prime=p,
                        stratum=stratum,
                        count=count,
                        predicted=predicted,
                        match=count == predicted,
                    )
                )
    return CountReport(case.name, tuple(rows))
