"""Flag enumeration over prime fields.

Every fiber description shipped with a case is independently verified by
counting flags over F_p.  For each (case, prime) and each orbit
representative x, only the x-stable k-subspaces of F_p^d are visited: a
nilpotent x has a kernel on every stable subspace, so every stable
subspace is reached by a chain of stable subspaces that grows one line of
x^-1(U) / U at a time from 0 (``stable_subspaces``).  An x that is zero
mod p stabilises all of them, so it counts the Gaussian binomial.  For
each stable subspace the sweep decides which strata it lies in.  The
counts are compared against evaluated counting polynomials (with a
residue-class rule for the one stratum pair defined over a quadratic
extension).  An independent exhaustive per-stratum sweep of the
Grassmannian with generic elimination lives in ``tests/oracles.py``, and
the tests compare the two.
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


def _check_bounds(p, d, k):
    if p > MAX_PRIME or not is_prime(p) or d > MAX_DIM or not 1 <= k < d:
        raise LimitExceeded(
            f"enumeration bounds: p prime <= {MAX_PRIME}, d <= {MAX_DIM}, 1 <= k < d"
        )


def _quotient_lines(x, basis, p):
    """One vector of every line of x^-1(U) / U, for U the span of the
    reduced echelon ``basis``.

    The vectors that vanish on U's pivot columns form a complement of U,
    and x^-1(U) / U is the kernel there of v -> x v mod U; x v mod U is
    read off x v on the non-pivot columns after the basis rows, weighted
    by x v at their pivots, are taken away."""
    d = len(x)
    pivots = [row.index(1) for row in basis]
    free = [j for j in range(d) if j not in pivots]
    reduced = []
    for j in free:
        xj = x[j]
        for pc, row in zip(pivots, basis):
            if row[j]:
                xj = [a - row[j] * b for a, b in zip(xj, x[pc])]
        reduced.append(tuple(xj[c] % p for c in free))
    kernel = []
    n = len(free)
    for w in rank_and_kernel(IntMatrix(n, n, tuple(reduced)), p)[1]:
        v = [0] * d
        for j, a in zip(free, w):
            v[j] = a
        kernel.append(v)
    for i, lead in enumerate(kernel):
        rest = kernel[i + 1 :]
        for coefficients in itertools.product(range(p), repeat=len(rest)):
            v = lead
            for c, w in zip(coefficients, rest):
                if c:
                    v = [a + c * b for a, b in zip(v, w)]
            yield v


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

    x restricted to a stable V is nilpotent, so it has a kernel there, and
    V has a complete flag of stable subspaces: 0 = U_0 < ... < U_k = V with
    U_(j+1) = U_j + <v> for some v in x^-1(U_j) outside U_j.  Each level
    therefore extends every stable U_j by every line of x^-1(U_j) / U_j,
    and keeps each span once, keyed by its echelon basis."""
    d = len(x_rows)
    _check_bounds(p, d, k)
    x = [[a % p for a in row] for row in x_rows]
    level = [()]
    for _ in range(k):
        found = {}
        for basis in level:
            for v in _quotient_lines(x, basis, p):
                found.setdefault(_extend(basis, v, p))
        level = list(found)
    return level


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

    Each element is validated first.  An x that is zero mod p stabilises
    every subspace with the same facts, so it counts the Gaussian binomial
    or 0; any other x visits only its stable subspaces
    (``stable_subspaces``).  Under a form, the perp of every counted
    subspace is checked to be x-stable too, and a failure raises
    NotStableUnderForm.
    """
    _check_bounds(p, d, k)
    for x_rows in elements:
        _validate_element(x_rows, p, d, form)
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
            pivots = tuple(row.index(1) for row in basis)
            nonpivots = tuple(j for j in range(d) if j not in pivots)
            facts = {}
            if "sub-nonzero" in needed:
                facts["sub-nonzero"] = any(
                    c % p for v in basis for c in _apply(entries, v, d)
                )
            if "quot-nonzero" in needed:
                facts["quot-nonzero"] = not all(
                    _in_span(col, basis, pivots, nonpivots, p) for col in columns
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
                middle_zero = all(
                    _in_span(w, basis, pivots, nonpivots, p) for w in perp_images
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

    Each prime takes one pass over the stable subspaces of every orbit
    that counts all strata of the case together.  Predictions evaluate the
    counting polynomial, except for a stratum pair defined over a quadratic
    extension: its zero part contributes 2 or 0 points according to q mod
    4, and the complementary cuspidal part picks up the rest of the full
    fiber.
    """
    flag_dim, strata = _strata_for(case)
    condition_sets = [conditions for _, conditions, _ in strata]
    rows = []
    for p in primes:
        _check_bounds(p, case.ambient_dim, flag_dim)
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
