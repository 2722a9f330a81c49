"""Independent reference implementations used only to cross-check results.

These deliberately use different algorithms from the package: invariant
factors via gcds of k-minors, dominance order via explicit partial sums,
and cohomology/point-count checks by brute enumeration.  Flag counts over
F_p sweep the whole Grassmannian once per condition set and test span
membership by generic elimination against the echelon basis.  Rational
elimination runs on Fraction rows, and graded pieces come from a generic
nullspace, over a basis or over every entry of M^T B + B M, instead of
the package's cells and its closed form for a monomial symplectic form.
Closed families of a vector list come from closing the members of every
pairwise join, with no memo, no support filter and no Weyl group, and the
prime classifiers take a torsion quotient for every family, not one per
orbit.  A type-A graded orbit's dimension is the rank of ad x on g_0 and
its Levi comes from a solved sl2-triple and the canonical parabolic,
where the package uses closed forms in the segments.  The f of a triple
comes from one system over every cell of [x, f] = h and [h, f] = -2f,
where the package solves on the ad-h weight -2 cells, and rigidity
conjugates e, h and f by the basis change every time.  Primality is trial
division.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd


def minor_determinant(rows, row_idx, col_idx):
    """Determinant of a square submatrix by cofactor expansion."""
    k = len(row_idx)
    if k == 0:
        return 1
    if k == 1:
        return rows[row_idx[0]][col_idx[0]]
    total = 0
    i = row_idx[0]
    rest = row_idx[1:]
    for pos, j in enumerate(col_idx):
        a = rows[i][j]
        if a == 0:
            continue
        sub = tuple(c for c in col_idx if c != j)
        total += (-1) ** pos * a * minor_determinant(rows, rest, sub)
    return total


def snf_invariant_factors_by_minors(rows):
    """Invariant factors via d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    if not rows:
        return ()
    nrows, ncols = len(rows), len(rows[0])
    k_max = min(nrows, ncols)
    gcds = [1]
    for k in range(1, k_max + 1):
        g = 0
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                g = gcd(g, abs(minor_determinant(rows, ri, ci)))
        gcds.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, k_max + 1):
        if k >= len(gcds) or gcds[k] == 0:
            factors.append(0)
        else:
            factors.append(gcds[k] // gcds[k - 1])
    return tuple(factors)


def dominance_leq(lam, mu):
    """lam <= mu in dominance order (same weight assumed)."""
    ps_l = list(itertools.accumulate(lam))
    ps_m = list(itertools.accumulate(mu))
    length = max(len(ps_l), len(ps_m))
    ps_l += [ps_l[-1]] * (length - len(ps_l))
    ps_m += [ps_m[-1]] * (length - len(ps_m))
    return all(a <= b for a, b in zip(ps_l, ps_m))


# ---------------------------------------------------------------------------
# flag counts over F_p, one full Grassmannian sweep per condition set


def echelon_subspaces(p, d, k):
    """Every k-subspace of F_p^d as its reduced row echelon basis."""
    for pivots in itertools.combinations(range(d), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(d)
            if j > pivots[i] and j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def _matvec(m, v, p):
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in m)


def _reduce_into(basis, vec, p):
    """Reduce vec against echelon basis rows; returns the remainder."""
    v = list(vec)
    for row in basis:
        j = next(i for i, x in enumerate(row) if x != 0)
        if v[j] % p != 0:
            inv = pow(row[j], p - 2, p)
            c = (v[j] * inv) % p
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return tuple(x % p for x in v)


def _in_subspace(basis, vec, p):
    return all(x % p == 0 for x in _reduce_into(basis, vec, p))


def stable_subspaces_by_elimination(x_rows, p, k):
    """{V in echelon_subspaces(p, d, k) : xV in V}, by generic elimination."""
    x_rows = tuple(tuple(a % p for a in row) for row in x_rows)
    return {
        basis
        for basis in echelon_subspaces(p, len(x_rows), k)
        if all(_in_subspace(basis, _matvec(x_rows, v, p), p) for v in basis)
    }


def _echelonize(rows, p):
    mat = [list(r) for r in rows]
    out = []
    for col in range(len(mat[0]) if mat else 0):
        pivot = None
        for r in mat:
            if r[col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat.remove(pivot)
        inv = pow(pivot[col], p - 2, p)
        pivot = [(x * inv) % p for x in pivot]
        mat = [[(a - r[col] * b) % p for a, b in zip(r, pivot)] for r in mat]
        out.append(tuple(pivot))
    return tuple(out)


def _perp(vectors, form_rows, p):
    """Echelon basis of the perp of the span of ``vectors`` under the form."""
    d = len(form_rows)
    rows = [
        tuple(sum(v[i] * form_rows[i][j] for i in range(d)) % p for j in range(d))
        for v in vectors
    ]
    mat = _echelonize(rows, p)
    pivots = [next(i for i, x in enumerate(r) if x != 0) for r in mat]
    out = []
    for j in range(d):
        if j in pivots:
            continue
        vec = [0] * d
        vec[j] = 1
        for r, pc in zip(mat, pivots):
            vec[pc] = (-r[j]) % p
        out.append(tuple(vec))
    return _echelonize(out, p)


def flag_count_by_elimination(x_rows, p, k, form_rows, conditions):
    """Number of k-subspaces V of F_p^d on which the nilpotent ``x_rows``
    meets every condition: ``stable`` (xV in V), ``sub-nonzero`` (x|V is
    not 0), ``quot-nonzero`` (x on F_p^d/V is not 0), ``middle-zero`` and
    ``middle-nonzero`` (x maps the perp of V under the form into V, or
    not).  Raises AssertionError when the perp of a stable V is not
    stable."""
    d = len(x_rows)
    x_rows = tuple(tuple(a % p for a in row) for row in x_rows)
    unit = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    count = 0
    for basis in echelon_subspaces(p, d, k):
        images = [_matvec(x_rows, v, p) for v in basis]
        facts = {
            "stable": all(_in_subspace(basis, w, p) for w in images),
            "sub-nonzero": any(any(w) for w in images),
            "quot-nonzero": not all(
                _in_subspace(basis, _matvec(x_rows, e, p), p) for e in unit
            ),
        }
        if form_rows is not None:
            perp = _perp(basis, form_rows, p)
            if facts["stable"]:
                assert all(
                    _in_subspace(perp, _matvec(x_rows, v, p), p) for v in perp
                ), "perp of a stable subspace is not stable"
            middle_zero = all(
                _in_subspace(basis, _matvec(x_rows, v, p), p) for v in perp
            )
            facts["middle-zero"] = middle_zero
            facts["middle-nonzero"] = not middle_zero
        if all(facts[c] for c in conditions):
            count += 1
    return count


# ---------------------------------------------------------------------------
# rational elimination with Fraction rows, and graded pieces by nullspace


def fraction_rref(rows):
    """Reduced row echelon form over Q by Gauss-Jordan elimination on
    Fraction rows.  Returns (rows, pivot_columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat, pivots


def fraction_nullspace(rows):
    """Primitive integer kernel basis (first nonzero entry positive), one
    vector per free column of the Fraction RREF."""
    if not rows:
        return ()
    ncols = len(rows[0])
    mat, pivots = fraction_rref(rows)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][j]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        ints = [x // g for x in ints]
        first = next(x for x in ints if x != 0)
        basis.append(tuple(-x for x in ints) if first < 0 else tuple(ints))
    return tuple(basis)


def subspace_in_cells_by_nullspace(basis, allowed):
    """Basis of the span of the RatMatrix ``basis`` supported inside the
    cell set ``allowed``: the combinations of the basis that vanish on every
    other cell, from the Fraction nullspace of those cell rows."""
    if not basis:
        return ()
    from gradedorbits.exactlin import RatMatrix

    d = basis[0].rows
    forbidden = [(i, j) for i in range(d) for j in range(d) if (i, j) not in allowed]
    if not forbidden:
        return tuple(basis)
    rows = [[m.entry(i, j) for m in basis] for (i, j) in forbidden]
    out = []
    for combo in fraction_nullspace(rows):
        entries = [
            [sum(c * m.entry(i, j) for c, m in zip(combo, basis)) for j in range(d)]
            for i in range(d)
        ]
        out.append(RatMatrix.from_rows(entries))
    return tuple(out)


def sp_in_cells_by_nullspace(form, cells):
    """Basis of the M supported inside the cell set with M^T B + B M = 0,
    for the form B given as integer rows: the Fraction nullspace of all d^2
    entries of M^T B + B M in the unknowns on the cells, row-major."""
    from gradedorbits.exactlin import RatMatrix

    d = len(form)
    cells = sorted(cells)
    if not cells:
        return ()
    columns = []  # E_kl^T B + B E_kl for each cell (k, l), row-major
    for k, l in cells:
        unit = [[int((r, c) == (k, l)) for c in range(d)] for r in range(d)]
        columns.append([
            sum(unit[t][i] * form[t][j] + form[i][t] * unit[t][j] for t in range(d))
            for i in range(d)
            for j in range(d)
        ])
    rows = [list(r) for r in zip(*columns)]
    out = []
    for vec in fraction_nullspace(rows):
        entries = [[0] * d for _ in range(d)]
        for (k, l), v in zip(cells, vec):
            entries[k][l] = v
        out.append(RatMatrix.from_rows(entries))
    return tuple(out)


def triple_h_by_full_system(x, h_basis, gm_basis):
    """The h of [x, f] = h, [h, x] = 2x with h in span(h_basis) and f in
    span(gm_basis), solved as one Fraction system in (h, f), h unknowns
    first, free unknowns set to 0; None when it has no solution."""
    from gradedorbits.exactlin import RatMatrix, bracket

    if not h_basis or not gm_basis:
        return None
    d = x.rows
    cells = [(i, j) for i in range(d) for j in range(d)]
    rows = []
    for i, j in cells:  # sum_k c_k [x, F_k] - sum_i b_i H_i = 0
        rows.append(
            [-h.entry(i, j) for h in h_basis]
            + [bracket(x, f).entry(i, j) for f in gm_basis]
            + [0]
        )
    for i, j in cells:  # sum_i b_i [H_i, x] = 2x
        rows.append(
            [bracket(h, x).entry(i, j) for h in h_basis]
            + [0] * len(gm_basis)
            + [2 * x.entry(i, j)]
        )
    mat, pivots = fraction_rref(rows)
    s = len(h_basis)
    ncols = s + len(gm_basis)
    if ncols in pivots:
        return None
    coeffs = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        coeffs[pc] = mat[r][ncols]
    entries = [
        [sum(c * h.entry(i, j) for c, h in zip(coeffs[:s], h_basis)) for j in range(d)]
        for i in range(d)
    ]
    return RatMatrix.from_rows(entries)


def triple_f_by_full_system(x, h, gm_basis):
    """The f in span(gm_basis) with [x, f] = h and [h, f] = -2f, solved as
    one Fraction system over every cell of both equations, with brackets
    as dense products and free unknowns set to 0; None when it has no
    solution."""
    from gradedorbits.exactlin import RatMatrix

    if not gm_basis:
        return None
    d = x.rows
    cells = [(i, j) for i in range(d) for j in range(d)]
    xf = [x * f - f * x for f in gm_basis]
    hf = [h * f - f * h for f in gm_basis]
    rows = [[m.entry(i, j) for m in xf] + [h.entry(i, j)] for i, j in cells]
    rows += [
        [m.entry(i, j) + 2 * f.entry(i, j) for m, f in zip(hf, gm_basis)] + [0]
        for i, j in cells
    ]
    mat, pivots = fraction_rref(rows)
    t = len(gm_basis)
    if t in pivots:
        return None
    coeffs = [Fraction(0)] * t
    for r, pc in enumerate(pivots):
        coeffs[pc] = mat[r][t]
    return RatMatrix.from_rows(
        [[sum(c * f.entry(i, j) for c, f in zip(coeffs, gm_basis)) for j in range(d)]
         for i in range(d)]
    )


def rigidity_by_conjugates(basis, chi, triple, n):
    """(is_rigid, witness) of the triple's second grading against chi on the
    basis, which is given in the diagonalising basis p: chi' and p from
    ``chi_prime``, e, h and f conjugated by p densely, the placement of the
    conjugates checked first and then every cell the basis reaches,
    row-major."""
    from gradedorbits.exactlin import RatMatrix, rat_inverse
    from gradedorbits.liegrade import chi_prime

    if not basis:
        return True, None
    d = basis[0].rows
    chip, p = chi_prime(triple, chi)
    p_inv = rat_inverse(p)
    w, wp = chi.weights, chip.weights
    for m, k in ((triple.e, n), (triple.h, 0), (triple.f, -n)):
        for i, j in (p_inv * m * p).support():
            if w[i] - w[j] != k:
                return False, (wp[i] - wp[j], w[i] - w[j])
    for i in range(d):
        for j in range(d):
            if any(m.entry(i, j) for m in basis) and 2 * (w[i] - w[j]) != n * (wp[i] - wp[j]):
                return False, (wp[i] - wp[j], w[i] - w[j])
    return True, None


def graded_orbit_dimension(alg, chi, n, x):
    """Dimension of the weight-zero-group orbit of x: the rank of ad(x)
    restricted to the degree-zero subalgebra."""
    from gradedorbits.exactlin import bracket, rank_rational
    from gradedorbits.liegrade import graded_component

    w = chi.weights
    for (i, j) in x.support():
        if w[i] - w[j] != n:
            raise ValueError("x has a cell outside the requested degree")
    g0 = graded_component(alg, chi, 0)
    if not g0.basis:
        return 0
    # the numerators of each row: scaling a row does not change the rank
    rows = [[v for row in bracket(y, x).num for v in row] for y in g0.basis]
    return rank_rational(rows)


def graded_orbit_levi_shape(alg, chi, n, x):
    """Block sizes of the Levi of the canonical parabolic of x, from the
    graded sl2-triple solved through x (the zero triple for x = 0)."""
    from gradedorbits.liegrade import Sl2Triple, adapted_sl2_triple, canonical_parabolic

    if x.is_zero():
        triple = Sl2Triple.zero(alg.dim_ambient)
    else:
        triple = adapted_sl2_triple(alg, chi, n, x)
    return canonical_parabolic(alg, chi, triple, n).levi_block_shape


def is_prime_by_trial_division(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def closure_by_members(vectors, indices):
    """Indices of all vectors lying in the integer span of the selection."""
    from gradedorbits.exactlin import hermite_rows, in_hermite_span

    if not indices:
        return ()
    hnf = hermite_rows([vectors[i] for i in indices])
    return tuple(i for i, v in enumerate(vectors) if in_hermite_span(hnf, v))


@functools.cache
def closed_families_by_join_closure(vectors):
    """All subsets closed under 'every listed vector in the span belongs',
    as the fixpoint of pairwise joins of singleton closures, each join
    closed from the Hermite form of all its members; sorted by size, then
    by indices.  Cached, since SL(7) takes seconds; ``vectors`` is a tuple
    of tuples."""
    families = {(): ()}
    work = [()]
    for i in range(len(vectors)):
        cl = closure_by_members(vectors, (i,))
        if cl not in families:
            families[cl] = cl
            work.append(cl)
    singles = [f for f in families if f]
    while work:
        base = work.pop()
        for s in singles:
            joined = closure_by_members(vectors, tuple(sorted(set(base) | set(s))))
            if joined not in families:
                families[joined] = joined
                work.append(joined)
    return tuple(sorted(families, key=lambda t: (len(t), t)))


def prime_report_by_all_families(rd):
    """The prime report of a root datum from the torsion of the quotient by
    every closed family of roots (X side) and of coroots (Y side)."""
    from gradedorbits.exactlin import torsion_primes_of_quotient
    from gradedorbits.rootdata import (
        PrimeReport,
        _bad_primes,
        x_quotient_rows,
        y_quotient_rows,
    )

    x_side = set()
    for fam in closed_families_by_join_closure(rd.roots):
        x_side |= torsion_primes_of_quotient(x_quotient_rows(rd, fam))
    y_side = set()
    for fam in closed_families_by_join_closure(rd.coroots):
        y_side |= torsion_primes_of_quotient(y_quotient_rows(rd, fam))
    bad = _bad_primes(rd)
    center = torsion_primes_of_quotient(x_quotient_rows(rd, range(len(rd.roots))))
    return PrimeReport(
        good_excluded=tuple(sorted(bad)),
        torsion=tuple(sorted(y_side)),
        pretty_good_excluded=tuple(sorted(x_side | y_side)),
        rather_good_excluded=tuple(sorted(bad | center)),
    )
