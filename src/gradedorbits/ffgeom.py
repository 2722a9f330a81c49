"""Flag counts over prime fields.

Every fiber description shipped with a case is independently verified by
counting flags over F_p.  For each (case, prime) and orbit representative
x, the sweep tallies the x-stable lines or planes by fact pattern and
tests each stratum once per pattern.  It lists no subspace: each pattern
is counted in closed form from the ranks of a few small matrices mod p,
so a call costs the same at every prime.  The subspaces inside ker x are
counted by Gaussian binomials and the planes outside it as
p^(n - 1) [m, 1]_p.  Under a form B the lines whose perp x maps into them
are counted by the rank r of x: none when r >= 3, a difference of Gaussian
binomials when r = 1, and when r = 2 the zeros of the binary quadratic
form u^T B x u on a projective line, from its discriminant, less the
lines of the radical.  ``_sweep`` proves each count.  The counts are
compared against evaluated counting polynomials (with a residue-class rule
for the one stratum pair defined over a quadratic extension); each case's
representatives are validated and its polynomials built once per process
(``_prepared``).  An independent exhaustive per-stratum sweep of the
Grassmannian with generic elimination lives in ``tests/oracles.py``, and
the tests compare the two.
"""

from __future__ import annotations

import functools
from collections import Counter

from .cohom import CaseData, counting_polynomial
from .exactlin import RatMatrix, _rref, is_prime, nullspace


class LimitExceeded(ValueError):
    pass


class NotStableUnderForm(ValueError):
    pass


# in-process and host-adjusted, fibers at p = 127 takes about 0.3 ms for sl4
# and for sp4 (0.6-0.8 ms in the first call of a case), and over every prime
# up to 127 about 8 and 9 ms (see the README)
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


def _rank(rows, p):
    return len(_rref(rows, p)[1])


def _transpose(rows):
    return tuple(zip(*rows))


def _kernel_image(x_rows, p: int):
    """(kernel, image, preimage) for x mod p, rows in [0, p): bases of ker x
    and im x, and for each row b of ``image`` a u with x u = b, from one
    elimination.  The reduced echelon form of the rows (x e_c | e_c) is
    (b | u) for b in the echelon basis of im x, then (0 | a) for a in a
    basis of ker x."""
    d = len(x_rows)
    units = [(0,) * c + (1,) + (0,) * (d - c - 1) for c in range(d)]
    table, pivots = _rref([col + unit for col, unit in zip(zip(*x_rows), units)], p)
    r = sum(c < d for c in pivots)
    head = table[:r]
    return [row[d:] for row in table[r:]], [row[:d] for row in head], [row[d:] for row in head]


def _meet(x_rows, image, p):
    """A basis of the coefficients c for which the combination of the rows
    b of ``image`` with them lies in ker x: ker x ∩ im x, of dimension m,
    from one elimination of the vectors x b."""
    return nullspace(_transpose(_matmul(image, _transpose(x_rows), len(x_rows))), p)


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
    sums = zip(_matmul(_transpose(x.num), form.num, d), _matmul(form.num, x.num, d))
    if any(a + c for r, q in sums for a, c in zip(r, q)):
        raise NotStableUnderForm("element is not in the form's algebra")


def _projective_zeros(a, b, c, p):
    """The zeros of a s^2 + b s t + c t^2 on the projective line over F_p:
    p + 1 for the zero form; else, at odd p, 1, 2 or 0 as the discriminant
    b^2 - 4 a c is zero, a nonzero square or not (Euler's criterion), and
    at p = 2 those of the three points (1 : 0), (0 : 1) and (1 : 1)."""
    if p == 2:
        return (a % 2 == 0) + (c % 2 == 0) + ((a + b + c) % 2 == 0)
    if a % p == b % p == c % p == 0:
        return p + 1
    disc = (b * b - 4 * a * c) % p
    if disc == 0:
        return 1
    return 2 if pow(disc, (p - 1) // 2, p) == 1 else 0


def _form_lines(x, kernel, image, preimage, form_rows, p):
    """The number of middle-zero lines <v> of ker x, those whose perp
    H = ker(v^T B) under the form B x maps into <v>, by the rank rule of
    ``_sweep``.  Raises NotStableUnderForm unless w^T B x = 0 for w in
    ker x, which x^T B + B x = 0 implies and which makes every such perp
    x-stable."""
    d, n, r = len(x), len(kernel), len(image)
    kernel_b = _matmul(kernel, form_rows, d)  # the rows w^T B
    if any(a % p for row in _matmul(kernel_b, x, d) for a in row):
        raise NotStableUnderForm("perp of a stable subspace failed to be stable")
    if r > 2:
        return 0
    image_b = _matmul(image, form_rows, d)  # the rows b^T B
    if r == 1:
        # W and R as the left kernels of (w_i^T B w_j) and of the rows w^T B
        kernel_t = _transpose(kernel)
        in_w = not any(a % p for a in _matmul(image_b, kernel_t, n)[0])
        in_r = not any(a % p for a in image_b[0])
        dim_w = n - _rank(_matmul(kernel_b, kernel_t, n), p)
        dim_r = n - _rank(kernel_b, p)
        return (gaussian_binomial(dim_w, 1, p) - gaussian_binomial(dim_r, 1, p)
                + (not in_w or in_r))
    # W ∩ im x = ker x ∩ im x; on the coefficients s of a basis of it,
    # Q(s) = u^T B x u = u^T B v for u = sum s_i u_i and v = sum s_i b_i
    meet = _meet(x, image, p)
    pairs = _matmul(_matmul(preimage, form_rows, d), _transpose(image), 2)
    q = _matmul(_matmul(meet, pairs, 2), _transpose(meet), len(meet))
    if len(meet) == 2:
        zeros = _projective_zeros(q[0][0], q[0][1] + q[1][0], q[1][1], p)
    else:
        zeros = sum(q[i][i] % p == 0 for i in range(len(meet)))
    radical = len(meet) - _rank(_matmul(meet, image_b, d), p)
    return zeros - gaussian_binomial(radical, 1, p)


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
    ``ZERO_FACTS``, counted by the Gaussian binomial.  Any other x is read
    on lines (k = 1) and planes (k = 2) only, and on lines only under a
    form.  For x of rank r, with n = dim ker x and m = dim(ker x ∩ im x),
    the [n, k]_p k-subspaces of ker x are counted: those holding im x,
    [n - r, k - r]_p when im x ⊆ ker x and r <= k, have x = 0 on
    F_p^d / V.  At k = 1 that is r = 1, and a nilpotent x of rank 1 has
    im x ⊆ ker x, so m is found at k = 2 only, as r less the rank of x on
    im x.  There the planes V outside ker x are counted as well,
    p^(n - 1) [m, 1]_p of them: x(V) = V ∩ ker x is a line L of
    ker x ∩ im x, and V / L one of the p^(n - 1) lines of x^-1(L) / L
    outside ker x / L.  x is nonzero on each, and im x ⊆ V fails when
    r >= 3, holds for all of them when r = 1 (im x = x(V)), and when r = 2
    holds only for V = im x, which lies outside ker x when m < 2.

    Under a form B, with W = {v in ker x : v^T B w = 0 for w in ker x} and
    R = {v in ker x : v^T B = 0}, a line <v> of ker x is middle-zero by the
    rank rule (``_form_lines``).  Say x maps H = ker(v^T B) into <v>.  If
    ker x ⊄ H, then H + ker x is everything, so im x = x(H) = <v> and
    r = 1; else v is in W.  If v is in W but not in R, H is a hyperplane
    holding ker x, so dim x(H) = r - 1.  If v is in R, x(H) = im x.  So:
      - when r >= 3, no line is middle-zero;
      - when r = 1, the lines of W outside R are, x(H) being 0, and so is
        im x, x(H) ⊆ im x: [dim W]_p - [dim R]_p lines, one more if im x
        lies outside W or in R.  Only im x has x = 0 on F_p^d / V;
      - when r = 2, x(H) is a line, so <v> must be in im x and outside R.
        Write v = x u.  As x^T B = -B x, v^T B w = -u^T B x w, so
        x(H) = im x ∩ ker(u^T B), which is <v> exactly when
        Q(u) = u^T B x u = 0.  Q(u + a) = Q(u) for a in ker x, as
        a^T B x = 0, and ker x ∩ im x lies in W, as v^T B w = -u^T B x w
        = 0 for w in ker x.  So the middle-zero lines are the zeros of the
        quadratic form Q on P(ker x ∩ im x), at most a projective line,
        less those of R ∩ im x, where Q(u) = -v^T B u = 0.
    Every other line has the pattern (False, True, False).
    """
    _check_bounds(p, d, k)
    counts = []
    for x in elements:
        if all(a % p == 0 for row in x for a in row):
            tally = {ZERO_FACTS: gaussian_binomial(d, k, p)}
        else:
            if k > 2:
                raise ValueError(f"the sweep reads lines and planes only, got k = {k}")
            if form is not None and k != 1:
                raise ValueError(f"a form is read on lines only, got k = {k}")
            kernel, image, preimage = _kernel_image(x, p)
            n, r = len(kernel), len(image)
            inside = gaussian_binomial(n, k, p)
            if form is None:
                m = r - _rank(_matmul(image, _transpose(x), d), p) if k == 2 else r
                holding = gaussian_binomial(n - r, k - r, p) if m == r <= k else 0
                tally = Counter({(False, False, None): holding,
                                 (False, True, None): inside - holding})
                if k == 2:
                    planes = p ** (n - 1) * gaussian_binomial(m, 1, p)
                    image_plane = int(r == 2 and m < 2)
                    tally[True, r > 1, None] += planes - image_plane
                    tally[True, False, None] += image_plane
            else:
                zero = _form_lines(x, kernel, image, preimage, form.num, p)
                image_line = int(r == 1)
                tally = Counter({(False, True, False): inside - zero,
                                 (False, True, True): zero - image_line,
                                 (False, False, True): image_line})
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


@functools.cache
def _prepared(case: CaseData):
    """(labels, polys) of a case: the orbit labels, and per orbit the
    counting polynomial of each stratum that a prediction reads (the full
    fiber first, alone for a twisted pair), after every representative is
    validated over Z.  A case is frozen, so this runs once per case and
    process; a case that raises is not kept."""
    _, strata = _strata_for(case)
    for orbit in case.orbits:
        _validate_element(orbit.representative, case.form)
    polys = []
    for orbit in case.orbits:
        exprs = [getattr(orbit, attr) for _, _, attr in strata]
        exprs = exprs[:1] if orbit.zero_part_twisted_pair else exprs
        polys.append(tuple(() if e is None else counting_polynomial(e) for e in exprs))
    return tuple(orbit.partition.label() for orbit in case.orbits), tuple(polys)


def verify_fiber_counts(case: CaseData, primes) -> dict:
    """Count every stratum of every orbit fiber over each prime and compare
    with the predicted value: the report of ``fibers``, with one row per
    orbit, prime and stratum and whether all of them match.

    The bounds of every prime are checked first; then each representative
    is validated over Z and each space expression read once per case
    (``_prepared``).  Each prime takes one sweep of every orbit that counts
    all strata of the case together.  Predictions evaluate the counting
    polynomial, except for a stratum pair defined over a quadratic
    extension: its zero part contributes 2 or 0 points by q mod 4, and the
    cuspidal part the rest of the full fiber.
    """
    flag_dim, strata = _strata_for(case)
    for p in primes:
        _check_bounds(p, case.ambient_dim, flag_dim)
    labels, polys = _prepared(case)
    condition_sets = [conditions for _, conditions, _ in strata]
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
