"""Flag enumeration over prime fields.

Every fiber description shipped with a case is independently verified by
counting flags over F_p.  For each (case, prime) and orbit representative
x, the sweep tallies the x-stable k-subspaces by fact pattern and tests
each stratum once per pattern.  Those inside ker x differ only in whether
they hold im x, and under a form in whether they lie in a small subspace
W, so they are counted by Gaussian binomials.  So are the planes V
outside ker x: x(V) = V ∩ ker x is a line L of ker x ∩ im x, and V / L
is one of the p^(n - 1) lines of x^-1(L) / L, of dimension n = dim ker x,
outside ker x / L, so there are p^(n - 1) [m, 1]_p of them for
m = dim(ker x ∩ im x).  x is nonzero on each, and on F_p^d / V unless
rank x = 1, or V = im x with rank x = 2 and im x ⊄ ker x.  Larger
subspaces outside ker x are built once while k <= 3, from a stable
hyperplane U and a line of x^-1(U) / U that x maps outside x(U)
(``_beyond_kernel``).  An x that is zero mod p gives every subspace one
pattern.  No subspace takes an elimination: each V comes with dim x(V),
and the perp of a line <v> under a form B is the kernel of the one row
v^T B.  The counts are compared against evaluated counting polynomials
(with a residue-class rule for the one stratum pair defined over a
quadratic extension).  An independent exhaustive per-stratum sweep of the
Grassmannian with generic elimination lives in ``tests/oracles.py``, and
the tests compare the two.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import mul

from .cohom import CaseData, counting_polynomial
from .exactlin import RatMatrix, _rref, is_prime, nullspace


class LimitExceeded(ValueError):
    pass


class NotStableUnderForm(ValueError):
    pass


# in-process, fibers at p = 127 takes about 0.6 ms for sl4 and 2.1 ms for
# sp4, and over every prime up to 127 about 10 and 34 ms (see the README)
MAX_PRIME = 127
MAX_DIM = 6


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
    """The k-subspaces of the span of the independent ``rows``, entries in
    [0, p), outside that of ``rows[heads:]``, one basis each: a reduced
    echelon pattern of coefficients times ``rows``, in reduced echelon form
    if ``rows`` are.  For each pattern of leads, the choices of row i,
    rows[lead[i]] plus each vector of the span of the free rows after it,
    are listed once, and the bases are their product."""
    m = len(rows)
    for lead in itertools.combinations(range(m), k):
        if lead[0] >= heads:
            return
        choices = []
        for q in lead:
            span = [tuple(rows[q])]
            for c in range(m - 1, q, -1):
                if c not in lead:
                    span += [tuple([(s + a * t) % p for s, t in zip(v, rows[c])])
                             for a in range(1, p) for v in span]
            choices.append(span)
        yield from itertools.product(*choices)


def _quotient(basis, rank, table, kernel, p):
    """(rows, heads): a basis of x^-1(U) / U that vanishes on the pivot
    columns of the reduced echelon ``basis`` of U, rank = dim x(U), whose
    first ``heads`` rows span a complement of (U + ker x) / U, the part
    that x maps into x(U); heads = 0 when U ∩ im x = x(U).  Reducing
    (u | 0) by the ``table`` of ``_kernel_image`` leaves u mod im x in
    the first half and minus a preimage of the rest in the second, so the
    combinations of U's rows that vanish in the first half span U ∩ im x,
    and the same ones of the second halves preimages of it.  Each vector
    of a subspace leads at a pivot of its echelon basis, so the echelon
    rows of the whole that lead elsewhere than the part's span a
    complement."""
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
    nonzero v with entries in [0, p) that vanishes on the basis's pivot
    columns."""
    first = next(filter(None, v))
    lead = v.index(first)
    if first != 1:
        inverse = pow(first, -1, p)
        v = tuple([a * inverse % p for a in v])
    rows = [
        tuple([(a - row[lead] * b) % p for a, b in zip(row, v)]) if row[lead] else row
        for row in basis
    ]
    rows.append(v)
    # an echelon row is larger than every row with a later pivot
    rows.sort(reverse=True)
    return tuple(rows)


def _kernel_image(x_rows, p: int):
    """(table, kernel, image, meet) for x mod p: the echelon ``table`` that
    ``_quotient`` reduces by, and the reduced echelon bases of ker x, im x
    and ker x ∩ im x, rows in [0, p), from two eliminations."""
    d = len(x_rows)
    # (x a | a) for a = e_1, ..., e_d in echelon form: (b | a) with x a = b
    # for b in the echelon basis of im x, then (0 | a) for one of ker x
    units = [(0,) * c + (1,) + (0,) * (d - c - 1) for c in range(d)]
    table = _echelon([col + unit for col, unit in zip(zip(*x_rows), units)], p)
    image = tuple(row[:d] for row in table if any(row[:d]))
    kernel = [row[d:] for row in table if not any(row[:d])]
    # (b | b) for b in im x and (a | 0) for a in ker x: the combinations
    # that vanish in the first half are (0 | v) for v in ker x ∩ im x
    both = _echelon([b + b for b in image] + [a + (0,) * d for a in kernel], p)
    meet = [row[d:] for row in both if not any(row[:d])]
    return table, kernel, image, meet


def _beyond_kernel(x_rows, p: int, k: int):
    """(kernel, image, meet, beyond) for an x nilpotent mod p: the reduced
    echelon bases of ker x, im x and ker x ∩ im x (``_kernel_image``), and
    {basis: dim x(V)} for the x-stable k-subspaces V outside ker x, rows in
    [0, p).  Such a V is U + <v> for a stable hyperplane U and a line of
    x^-1(U) / U with x v outside x(U) (``_quotient``), none when
    U ∩ im x = x(U).  Stable lines lie in ker x, so the planes come from
    the lines L of ker x ∩ im x, p^(n - 1) from each for n = dim ker x: the
    lines of x^-1(L) / L, of dimension n, outside ker x / L, of dimension
    n - 1.  ``_sweep`` counts those and lists none; larger V come from
    every stable (k-1)-subspace (``stable_subspaces``).  V is reached once
    per hyperplane of V / (x V + V ∩ ker x), whose dimension is the number
    of Jordan blocks of x on V of size at least 2: once while dim V <= 3,
    and past that each span is kept once."""
    _check_bounds(p, len(x_rows), k)
    table, kernel, image, meet = _kernel_image(x_rows, p)
    if k > 2:
        bases = stable_subspaces(x_rows, p, k - 1).items()
    else:
        bases = zip(_grassmannian(meet, p, 1, len(meet)) if k == 2 else (), itertools.repeat(0))
    beyond = {}
    for basis, rank in bases:
        rows, heads = _quotient(basis, rank, table, kernel, p)
        if heads:
            for (v,) in _grassmannian(rows, p, 1, heads):
                beyond.setdefault(_extend(basis, v, p), rank + 1)
    return kernel, image, meet, beyond


def stable_subspaces(x_rows, p: int, k: int) -> dict:
    """The k-subspaces V of F_p^d stable under x, for an x that is
    nilpotent mod p: {basis: dim x(V)}, one reduced echelon basis each with
    entries in [0, p): the Grassmannian of ker x and ``_beyond_kernel``."""
    kernel, _, _, beyond = _beyond_kernel(x_rows, p, k)
    return {**dict.fromkeys(_grassmannian(kernel, p, k, len(kernel)), 0), **beyond}


def _matmul(a_rows, b_rows, cols: int) -> tuple:
    """Product of integer row tuples, adding one row of b per nonzero of a."""
    out = []
    for row in a_rows:
        acc = [0] * cols
        for a, b_row in zip(row, b_rows):
            if a:
                acc = [x + a * y for x, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def _validate_element(x: RatMatrix, form):
    """Raise NotStableUnderForm unless x is nilpotent and x^T B + B x = 0
    for the form B, if any: over Z, so mod every prime."""
    d, power = x.rows, x.num
    for _ in range(d - 1):
        power = _matmul(power, x.num, d)
    if any(map(any, power)):
        raise NotStableUnderForm("element is not nilpotent")
    if form is None:
        return
    # x^T B + B x times the denominators of x and B, on integer rows
    sums = zip(_matmul(tuple(zip(*x.num)), form.num, d), _matmul(form.num, x.num, d))
    if any(a + c for r, q in sums for a, c in zip(r, q)):
        raise NotStableUnderForm("element is not in the form's algebra")


def _middle_zero(v, form_columns, columns, p):
    """Whether x maps the perp of the line <v> under a form B into <v>,
    from the columns of B and of x.  The perp is the kernel of a = v^T B:
    for j the first nonzero entry of a, it is spanned by e_c - (a_c / a_j)
    e_j over every c (by every e_c if a = 0)."""
    a = [sum(map(mul, v, col)) % p for col in form_columns]
    j = next((c for c, b in enumerate(a) if b), 0)
    ratio = pow(a[j], -1, p) if a[j] else 0
    # x (e_c - (a_c / a_j) e_j) less the multiple of v that clears the lead
    # of v is zero for every c, column by column, up to the first failure
    lead, xj = v.index(1), columns[j]
    for col, s in zip(columns, a):
        c = s * ratio
        f = col[lead] - c * xj[lead]
        for t, u, w in zip(col, xj, v):
            if (t - c * u - f * w) % p:
                return False
    return True


def _form_lines(x, kernel, image, form_rows, p):
    """{basis: 0} for the lines <v> of ker x whose perp under the form B
    x can map into <v>: those of W = {v in ker x : v^T B w = 0 for w in
    ker x}, and im x if it is a line.  If x maps H = ker(v^T B) into <v>
    and ker x ⊄ H, then im x = x(H) ⊆ <v>; else v ∈ W.  Raises
    NotStableUnderForm unless w^T B x = 0 for w in ker x, which
    x^T B + B x = 0 implies and which makes every such perp x-stable."""
    d = len(x)
    if any(a % p for row in _matmul(_matmul(kernel, form_rows, d), x, d) for a in row):
        raise NotStableUnderForm("perp of a stable subspace failed to be stable")
    # the rows (B w)^T, whose common kernel in ker x is W
    w_rows = _echelon(nullspace([*x, *_matmul(kernel, tuple(zip(*form_rows)), d)], p), p)
    lines = dict.fromkeys(_grassmannian(w_rows, p, 1, len(w_rows)), 0)
    if len(image) == 1:
        lines.setdefault(image, 0)
    return lines


# the fact pattern (sub-nonzero, quot-nonzero, middle-zero) of every
# subspace under an x that is zero mod p
ZERO_FACTS = (False, False, True)


def _sweep(p, d, k, form, elements, condition_sets):
    """counts[e][c]: the number of x-stable k-subspaces V of F_p^d, for
    x = ``elements[e]``, that meet every condition of ``condition_sets[c]``.

    The conditions, each on an x-stable V: ``sub-nonzero``, x does not
    vanish on V; ``quot-nonzero``, x does not vanish on F_p^d / V;
    ``middle-zero`` and ``middle-nonzero``, x maps the perp of V under
    ``form`` into V, or does not (they need a form).

    The elements must be nilpotent mod p, and in the algebra of the form
    if there is one (``_validate_element`` checks that over Z).  Each x
    tallies its stable subspaces by fact pattern, and each condition set
    is tested once per pattern.  An x that is zero mod p gives them all
    ``ZERO_FACTS``, counted by the Gaussian binomial.  For any other x, of
    rank r, with n = dim ker x and m = dim(ker x ∩ im x), the [n, k]_p
    k-subspaces of ker x are counted: those holding im x,
    [n - r, k - r]_p when im x ⊆ ker x and r <= k, have x = 0 on
    F_p^d / V.  At k = 2 the planes V outside ker x are counted as well,
    p^(n - 1) [m, 1]_p of them (``_beyond_kernel``): x(V) = V ∩ ker x is a
    line L of ker x ∩ im x, and V / L one of the p^(n - 1) lines of
    x^-1(L) / L outside ker x / L.  x is nonzero on each, and im x ⊆ V
    fails when r >= 3, holds for all of them when r = 1 (im x = x(V)), and
    when r = 2 holds only for V = im x, which lies outside ker x when
    m < 2.  For k >= 3 the V outside ker x are listed by ``_beyond_kernel``:
    im x lies in no V when r > k, when r = k only in V = im x (compared by
    echelon bases), and below k in V when dim x(V) = r, else V reduces it.
    A form is read on lines only (k = 1): ``_middle_zero`` decides those
    of ``_form_lines``, and the others have the pattern (False, True, False).
    """
    _check_bounds(p, d, k)
    form_columns = list(zip(*form.num)) if form is not None else None
    counts = []
    for x in elements:
        if all(a % p == 0 for row in x for a in row):
            tally = {ZERO_FACTS: gaussian_binomial(d, k, p)}
        else:
            if form is not None and k != 1:
                raise ValueError(f"a form is read on lines only, got k = {k}")
            columns = list(zip(*x))
            if k > 2:
                kernel, image, meet, listed = _beyond_kernel(x, p, k)
            else:
                _, kernel, image, meet = _kernel_image(x, p)
                listed = {}
            dim, r, m = len(kernel), len(image), len(meet)
            if form is None:
                holding = gaussian_binomial(dim - r, k - r, p) if m == r <= k else 0
                tally = Counter({(False, False, None): holding,
                                 (False, True, None): gaussian_binomial(dim, k, p) - holding})
                if k == 2:
                    planes = p ** (dim - 1) * gaussian_binomial(m, 1, p)
                    image_plane = int(r == 2 and m < 2)
                    tally[True, r > 1, None] += planes - image_plane
                    tally[True, False, None] += image_plane
            else:
                listed = _form_lines(x, kernel, image, form.num, p)
                tally = Counter({(False, True, False): gaussian_binomial(dim, 1, p) - len(listed)})
            for basis, rank in listed.items():
                if len(image) < k:
                    quot = rank < len(image) and any(
                        a % p for row in image for a in _reduce(row, basis))
                else:
                    quot = len(image) > k or basis != image
                middle = form_columns and _middle_zero(basis[0], form_columns, columns, p)
                tally[rank > 0, quot, middle] += 1
        counts.append([0] * len(condition_sets))
        for (sub, quot, middle), n in tally.items():
            facts = {"sub-nonzero": sub, "quot-nonzero": quot, "middle-zero": middle}
            facts["middle-nonzero"] = middle is False
            for c, conditions in enumerate(condition_sets):
                if all(facts[name] for name in conditions):
                    counts[-1][c] += n
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


def _value(poly, q):
    """The value at q of a polynomial of ascending coefficients."""
    return sum(c * q ** i for i, c in enumerate(poly))


def verify_fiber_counts(case: CaseData, primes) -> dict:
    """Count every stratum of every orbit fiber over each prime and compare
    with the predicted value: the report of ``fibers``, with one row per
    orbit, prime and stratum and whether all of them match.

    Each representative is validated once, over Z, after the bounds of
    every prime, and each space expression read once.  Each prime takes
    one sweep of every orbit that counts all strata of the case together.
    Predictions evaluate the counting polynomial, except for a stratum pair
    defined over a quadratic extension: its zero part contributes 2 or 0
    points by q mod 4, and the cuspidal part the rest of the full fiber.
    """
    flag_dim, strata = _strata_for(case)
    condition_sets = [conditions for _, conditions, _ in strata]
    for p in primes:
        _check_bounds(p, case.ambient_dim, flag_dim)
    for orbit in case.orbits:
        _validate_element(orbit.representative, case.form)
    labels = [orbit.partition.label() for orbit in case.orbits]
    polys = []  # per orbit and stratum, the full fiber first, alone for a twisted pair
    for orbit in case.orbits:
        exprs = [getattr(orbit, attr) for _, _, attr in strata]
        exprs = exprs[:1] if orbit.zero_part_twisted_pair else exprs
        polys.append([() if e is None else counting_polynomial(e) for e in exprs])
    rows = []
    for p in primes:
        elements = [
            tuple(tuple(a % p for a in row) for row in orbit.representative.num)
            for orbit in case.orbits
        ]
        counts = _sweep(
            p, case.ambient_dim, flag_dim, case.form, elements, condition_sets
        )
        for orbit, label, orbit_counts, orbit_polys in zip(case.orbits, labels, counts, polys):
            full_pred = _value(orbit_polys[0], p)
            for i, ((stratum, _, _), count) in enumerate(zip(strata, orbit_counts)):
                if stratum == "full":
                    predicted = full_pred
                elif orbit.zero_part_twisted_pair:
                    zero_pred = _gauss_pair_points(p)
                    predicted = (
                        zero_pred if stratum == "zero" else full_pred - zero_pred
                    )
                else:
                    predicted = _value(orbit_polys[i], p)
                rows.append({
                    "orbit": label,
                    "prime": p,
                    "stratum": stratum,
                    "count": count,
                    "predicted": predicted,
                    "match": count == predicted,
                })
    return {
        "case": case.name,
        "primes": list(primes),
        "all_match": all(r["match"] for r in rows),
        "rows": rows,
    }
