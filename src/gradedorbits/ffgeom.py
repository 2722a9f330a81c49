"""Flag enumeration over prime fields.

Every fiber description shipped with a case is independently verified by
counting flags over F_p.  For each (case, prime) and each orbit
representative x, only the x-stable k-subspaces of F_p^d are visited,
each built once while k <= 3: those inside ker x as the Grassmannian of
ker x, and every other one from a stable hyperplane U and a line of
x^-1(U) / U that x maps outside x(U) (``stable_subspaces``).  An x that
is zero mod p stabilises all of them, so it counts the Gaussian
binomial.  For each stable subspace the sweep decides which strata it
lies in.  The counts are compared against evaluated counting polynomials
(with a residue-class rule for the one stratum pair defined over a
quadratic extension).  An independent exhaustive per-stratum sweep of
the Grassmannian with generic elimination lives in ``tests/oracles.py``,
and the tests compare the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cohom import CaseData, counting_polynomial
from .exactlin import RatMatrix, _rref, is_prime, nullspace


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


def _check_bounds(p, d, k):
    if p > MAX_PRIME or not is_prime(p) or d > MAX_DIM or not 1 <= k < d:
        raise LimitExceeded(
            f"enumeration bounds: p prime <= {MAX_PRIME}, d <= {MAX_DIM}, 1 <= k < d"
        )


def _echelon(rows, p):
    """The reduced echelon basis of the span of ``rows`` mod p."""
    mat, pivots = _rref(rows, p)
    return [tuple(row) for row in mat[: len(pivots)]]


def _reduce(v, rows):
    """v minus the reduced echelon ``rows``, each weighted by v at its pivot:
    zero mod p exactly when v lies in their span."""
    for row in rows:
        c = v[row.index(1)]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def _grassmannian(rows, p, k, heads):
    """The k-subspaces of the span of the independent ``rows`` outside that
    of ``rows[heads:]``, one basis each: a reduced echelon pattern of
    coefficients times ``rows``, in reduced echelon form if ``rows`` are."""
    m = len(rows)
    for lead in itertools.combinations(range(m), k):
        if lead[0] >= heads:
            return
        slots = [(i, c) for i, q in enumerate(lead) for c in range(q + 1, m) if c not in lead]
        for values in itertools.product(range(p), repeat=len(slots)):
            basis = [rows[q] for q in lead]
            for (i, c), a in zip(slots, values):
                if a:
                    basis[i] = [s + a * t for s, t in zip(basis[i], rows[c])]
            yield tuple(tuple(s % p for s in row) for row in basis)


def _quotient(basis, rank, table, kernel, p):
    """(rows, heads): a basis of x^-1(U) / U that vanishes on the pivot
    columns of the reduced echelon ``basis`` of U, rank = dim x(U), whose
    first ``heads`` rows span a complement of (U + ker x) / U, the part
    that x maps into x(U); heads = 0 when U ∩ im x = x(U).  Reducing
    (u | 0) by the ``table`` of ``stable_subspaces`` leaves u mod im x in
    the first half and minus a preimage of the rest in the second, so the
    combinations of U's rows that vanish in the first half span U ∩ im x,
    and the same ones of the second halves preimages of it.  Each vector
    of a subspace leads at a pivot of its echelon basis, so the echelon
    rows of the whole that lead elsewhere than the part's span a complement."""
    d = len(table[0]) // 2
    rows = [_reduce(u + (0,) * d, table) for u in basis]
    meets = nullspace(list(zip(*(row[:d] for row in rows))), p)
    if len(meets) == rank:
        return (), 0
    high = [
        _reduce([sum(c * row[i] for c, row in zip(cs, rows)) for i in range(d, 2 * d)], basis)
        for cs in meets
    ]
    low = _echelon([_reduce(v, basis) for v in kernel], p)
    lows = {row.index(1) for row in low}
    high = [row for row in _echelon(low + high, p) if row.index(1) not in lows]
    return high + low, len(high)


def _extend(basis, v, p):
    """The reduced echelon basis of the span of ``basis`` and ``v``, for a
    nonzero v that vanishes on the basis's pivot columns."""
    v = [a % p for a in v]
    lead = next(j for j, a in enumerate(v) if a)
    inverse = pow(v[lead], -1, p)
    v = tuple(a * inverse % p for a in v)
    rows = [
        tuple((a - row[lead] * b) % p for a, b in zip(row, v)) if row[lead] else row
        for row in basis
    ]
    rows.append(v)
    # an echelon row is larger than every row with a later pivot
    rows.sort(reverse=True)
    return tuple(rows)


def stable_subspaces(x_rows, p: int, k: int) -> list:
    """The k-subspaces of F_p^d stable under x, for an x that is nilpotent
    mod p: one reduced-row-echelon basis each, rows with entries in [0, p).

    x is nilpotent on a stable V, so V has a complete flag of stable
    subspaces, and level j + 1 joins two parts.  The (j+1)-subspaces of
    ker x come once each from the Grassmannian of ker x.  Any other stable
    V is U + <v> for a stable j-subspace U and a line of x^-1(U) / U with
    x v outside x(U) (``_quotient``); U is skipped when there is none.  So
    V is reached once for each hyperplane of V / (x V + V ∩ ker x), whose
    dimension is the number of Jordan blocks of x on V of size at least 2:
    exactly once while dim V <= 3.  For the larger V each level keeps each
    span once, keyed by its echelon basis, with dim x(V) as its value."""
    d = len(x_rows)
    _check_bounds(p, d, k)
    # (x a | a) for a = e_1, ..., e_d in echelon form: (b | a) with x a = b
    # for b in the echelon basis of im x, then (0 | a) for one of ker x
    units = [(0,) * c + (1,) + (0,) * (d - c - 1) for c in range(d)]
    table = _echelon([col + unit for col, unit in zip(zip(*x_rows), units)], p)
    kernel = [row[d:] for row in table if not any(row[:d])]
    level = {(): 0}
    for j in range(k):
        found = dict.fromkeys(_grassmannian(kernel, p, j + 1, len(kernel)), 0)
        for basis, rank in level.items():
            rows, heads = _quotient(basis, rank, table, kernel, p)
            for (v,) in _grassmannian(rows, p, 1, heads):
                found.setdefault(_extend(basis, v, p), rank + 1)
        level = found
    return list(level)


def _validate_element(x: RatMatrix, form):
    """Raise NotStableUnderForm unless x is nilpotent and x^T B + B x = 0
    for the form B, if any: over Z, so mod every prime."""
    power = x
    for _ in range(x.rows - 1):
        power = power * x
    if not power.is_zero():
        raise NotStableUnderForm("element is not nilpotent")
    if form is not None and not (x.transpose() * form + form * x).is_zero():
        raise NotStableUnderForm("element is not in the form's algebra")


def _apply(entries, v, d):
    """x v, from the nonzero entries (i, j, a) of x; not reduced mod p."""
    w = [0] * d
    for i, j, a in entries:
        w[i] += a * v[j]
    return w


def _perp(basis, form, p):
    """(A, K): the rows v^T B of the basis vectors v, and a basis K of the
    perp of the span, the right kernel of A over F_p."""
    d = form.rows
    a = tuple(
        tuple(sum(v[i] * form.num[i][j] for i in range(d)) % p for j in range(d))
        for v in basis
    )
    return a, nullspace(a, p)


# the facts of every subspace under an x that is zero mod p
ZERO_FACTS = {
    "sub-nonzero": False,
    "quot-nonzero": False,
    "middle-zero": True,
    "middle-nonzero": False,
}


def _sweep(p, d, k, form, elements, condition_sets):
    """counts[e][c]: the number of x-stable k-subspaces V of F_p^d, for
    x = ``elements[e]``, that meet every condition of ``condition_sets[c]``.

    The conditions, each on an x-stable V: ``sub-nonzero``, x does not
    vanish on V; ``quot-nonzero``, x does not vanish on F_p^d / V;
    ``middle-zero`` and ``middle-nonzero``, x maps the perp of V under
    ``form`` into V, or does not (they need a form).

    The elements must be nilpotent mod p, and in the algebra of the form
    if there is one (``_validate_element`` checks that over Z).  An x that
    is zero mod p stabilises every subspace with the same facts, so it
    counts the Gaussian binomial or 0; any other x visits only its stable
    subspaces (``stable_subspaces``).  Under a form, the perp of every
    counted subspace is checked to be x-stable too, and a failure raises
    NotStableUnderForm.
    """
    _check_bounds(p, d, k)
    needed = set().union(*condition_sets)
    counts = []
    for x in elements:
        if all(a % p == 0 for row in x for a in row):
            everything = gaussian_binomial(d, k, p)
            counts.append(
                [
                    everything if all(ZERO_FACTS[name] for name in conditions) else 0
                    for conditions in condition_sets
                ]
            )
            continue
        entries = tuple(
            (i, j, a) for i, row in enumerate(x) for j, a in enumerate(row) if a
        )
        columns = [col for col in zip(*x) if any(col)]
        tally = [0] * len(condition_sets)
        for basis in stable_subspaces(x, p, k):
            facts = {}
            if "sub-nonzero" in needed:
                facts["sub-nonzero"] = any(
                    c % p for v in basis for c in _apply(entries, v, d)
                )
            if "quot-nonzero" in needed:
                facts["quot-nonzero"] = any(
                    a % p for col in columns for a in _reduce(col, basis)
                )
            if form is not None:
                a, perp = _perp(basis, form, p)
                perp_images = [_apply(entries, u, d) for u in perp]
                if any(
                    sum(b * c for b, c in zip(row, w)) % p
                    for w in perp_images
                    for row in a
                ):
                    raise NotStableUnderForm(
                        "perp of a stable subspace failed to be stable"
                    )
                middle_zero = not any(
                    a % p for w in perp_images for a in _reduce(w, basis)
                )
                facts["middle-zero"] = middle_zero
                facts["middle-nonzero"] = not middle_zero
            for c, conditions in enumerate(condition_sets):
                if all(facts[name] for name in conditions):
                    tally[c] += 1
        counts.append(tally)
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

    Each representative is validated once, over Z, after the bounds of
    every prime.  Each prime takes one pass over the stable subspaces of
    every orbit that counts all strata of the case together.  Predictions
    evaluate the counting polynomial, except for a stratum pair defined
    over a quadratic extension: its zero part contributes 2 or 0 points
    according to q mod 4, and the complementary cuspidal part picks up the
    rest of the full fiber.
    """
    flag_dim, strata = _strata_for(case)
    condition_sets = [conditions for _, conditions, _ in strata]
    for p in primes:
        _check_bounds(p, case.ambient_dim, flag_dim)
    for orbit in case.orbits:
        _validate_element(orbit.representative, case.form)
    rows = []
    for p in primes:
        elements = [
            tuple(tuple(a % p for a in row) for row in orbit.representative.num)
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
