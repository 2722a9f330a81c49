"""Independent reference implementations used only to cross-check results.

These deliberately use different algorithms from the package: invariant
factors via gcds of k-minors, dominance order via explicit partial sums,
and cohomology/point-count checks by brute enumeration.  Flag counts over
F_p sweep the whole Grassmannian once per condition set and test span
membership by generic elimination against the echelon basis.  Rational
elimination runs on Fraction rows, span membership compares the ranks of
their RREFs, and graded pieces come from a generic nullspace, over a basis
or over every entry of M^T B + B M, instead of the package's cells and its
closed form for the standard symplectic form.  The parabolic, nilradical
and Levi, which the package never builds, come from the same nullspaces on
the cells of its indicator, in the basis p that diagonalises h, with the
form p^T B p for sp, and their brackets are reduced against a Fraction
RREF.
The prime classifiers, which the package states in closed form, are
derived here from their definitions in two ways.  The label report takes
one torsion quotient per Weyl-group orbit of closed families, on a basis
written from the orbit's label, with invariant factors from alternating
row Hermite forms, and the bad primes from the highest root written down
on the simple roots.  The all-family report closes the members of every
pairwise join, with no memo, no support filter and no Weyl group, and
takes a torsion quotient for every family on all of its vectors; its bad
primes come from the simple roots of a height functional, their
components and a scan of the positive roots for the highest root of
each.  A Weyl-group search lists every closed family, bitmask by bitmask,
with one representative per W-orbit: the orbits that the labels must
match one for one.
Jordan types come from the Fraction ranks of the powers of a nilpotent,
and parity from the degrees of each stalk column.  A type-A graded
orbit's dimension is the rank of ad x on g_0 and its Levi comes from a
solved sl2-triple and the canonical parabolic, where the package uses
closed forms in the segments.  The f of a triple
comes from one system over every cell of [x, f] = h and [h, f] = -2f,
where the package solves on the ad-h weight -2 cells, and rigidity
conjugates e, h and f by the basis change every time.  Primality is trial
division.  The CLI payload of graded-orbits is counted by interval
multisets along each weight chain and told apart by rank invariants, and
that of fibers by evaluating each fixture space expression at p, with no
call into the layer that printed it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


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


class NotNilpotent(ValueError):
    """Raised when a matrix expected to be nilpotent is not."""


def dominance_leq(lam, mu):
    """lam <= mu in dominance order; ``ValueError`` if the weights differ."""
    if sum(lam) != sum(mu):
        raise ValueError("partitions must have the same weight")
    ps_l = list(itertools.accumulate(lam))
    ps_m = list(itertools.accumulate(mu))
    length = max(len(ps_l), len(ps_m))
    ps_l += [ps_l[-1]] * (length - len(ps_l))
    ps_m += [ps_m[-1]] * (length - len(ps_m))
    return all(a <= b for a, b in zip(ps_l, ps_m))


def standard_symplectic_form(d):
    """The block form [[0, I], [-I, 0]] of an even dimension d, as a
    RatMatrix."""
    from gradedorbits.exactlin import RatMatrix

    m = d // 2
    rows = [[0] * d for _ in range(d)]
    for i in range(m):
        rows[i][m + i] = 1
        rows[m + i][i] = -1
    return RatMatrix.from_rows(rows)


def jordan_matrix(partition):
    """Block-diagonal nilpotent Jordan RatMatrix with the given block sizes."""
    from gradedorbits.exactlin import RatMatrix

    n = partition.weight
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for part in partition.parts:
        for i in range(part - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += part
    return RatMatrix.from_rows(rows)


def nilpotent_jordan_partition(n):
    """Jordan type of a nilpotent RatMatrix: the number of parts >= k is
    rank(N^(k-1)) - rank(N^k), ranks from Fraction RREFs.  ``NotNilpotent``
    if N^dim is not zero."""
    from gradedorbits.exactlin import Partition, RatMatrix

    if n.rows != n.cols:
        raise ValueError("matrix must be square")
    dim = n.rows
    # ranks of N^0, N^1, ... up to the first zero power; every later one
    # is zero too, and N^dim is zero exactly when N is nilpotent
    ranks = []
    power = RatMatrix.identity(dim)
    while not power.is_zero():
        if len(ranks) == dim:
            raise NotNilpotent("matrix is not nilpotent")
        ranks.append(len(fraction_rref(power.num)[1]))
        power = power * n
    ranks.append(0)
    return Partition(tuple(a - b for a, b in zip(ranks, ranks[1:]))).transpose()


def parity_violations(table):
    """The labels of the columns of a stalk table with degrees of both
    parities."""
    return tuple(
        label for label, col in table.columns.items() if len({d % 2 for d in col}) > 1
    )


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


def image_dimension_by_elimination(x_rows, basis, p):
    """dim x(V) for the span V of ``basis``, by elimination of the images."""
    return len(_echelonize([_matvec(x_rows, v, p) for v in basis], p))


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


def _flat(a):
    return [a.entry(i, j) for i in range(a.rows) for j in range(a.cols)]


@functools.lru_cache(maxsize=32)
def _basis_rref(basis):
    """The Fraction RREF of the flattened entries of a tuple of RatMatrix,
    taken once for each basis that ``in_span_by_rref`` is handed."""
    return fraction_rref([_flat(b) for b in basis])


def in_span_by_rref(basis, m):
    """Whether the RatMatrix m is a combination of the RatMatrix basis: its
    flattened entries, reduced against the Fraction RREF of the basis's,
    leave zero (so adding m to the basis would not raise the rank)."""
    rows, pivots = _basis_rref(tuple(basis))
    v = _flat(m)
    for row, col in zip(rows, pivots):
        if f := v[col]:
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


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
    flat = [[m.entry(i, j) for i in range(d) for j in range(d)] for m in basis]
    rows = [[f[i * d + j] for f in flat] for (i, j) in forbidden]
    out = []
    for combo in fraction_nullspace(rows):
        terms = [(c, f) for c, f in zip(combo, flat) if c]
        entries = [
            [sum(c * f[i * d + j] for c, f in terms) for j in range(d)] for i in range(d)
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


def conjugated_piece_by_nullspace(alg, p, cells):
    """Basis of the part of p^-1 alg p on the cell set, for a basis change
    p: p^-1 sl p = sl, so for sl the nullspace of the sl basis off the
    cells; p^-1 sp_B p = sp_B' for B' = p^T B p and B = [[0, I], [-I, 0]],
    so for sp the nullspace of M^T B' + B' M = 0 on the cells, with B'
    scaled to integers by the square of p's denominator."""
    if alg.kind == "sl":
        return subspace_in_cells_by_nullspace(alg.basis, set(cells))
    d = alg.dim_ambient
    h = d // 2
    b = [[int(j == i + h) - int(i == j + h) for j in range(d)] for i in range(d)]
    q = p.num
    bq = [[sum(b[k][t] * q[t][j] for t in range(d)) for j in range(d)] for k in range(d)]
    form = [[sum(q[k][i] * bq[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return sp_in_cells_by_nullspace(form, cells)


def brackets_in_span(a_basis, b_basis, target):
    """Whether [a, b] lies in the span of the RatMatrix ``target`` for every
    a of ``a_basis`` and b of ``b_basis``: the numerators of each bracket,
    as a cell map, are reduced against the nonzero cells of the Fraction
    RREF of the target's flattened entries."""
    from gradedorbits.exactlin import bracket

    if not target:
        return all(bracket(a, b).is_zero() for a in a_basis for b in b_basis)
    d = target[0].rows
    cells = [(i, j) for i in range(d) for j in range(d)]
    rref, pivots = fraction_rref([[t.entry(i, j) for i, j in cells] for t in target])
    rows = [
        (cells[pc], [(cells[k], x) for k, x in enumerate(row) if x])
        for row, pc in zip(rref, pivots)
    ]
    for a in a_basis:
        for b in b_basis:
            z = bracket(a, b)
            v = {(i, j): x for i, r in enumerate(z.num) for j, x in enumerate(r) if x}
            for pivot, row in rows:
                c = v.get(pivot)
                if c:
                    for cell, y in row:
                        v[cell] = v.get(cell, 0) - c * y
            if any(v.values()):
                return False
    return True


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
        for i, j in sorted((p_inv * m * p).support()):
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
    from gradedorbits.exactlin import bracket
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
    return len(fraction_rref(rows)[1])


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


# ---------------------------------------------------------------------------
# Hermite and Smith forms, and the prime report from one Smith form per
# Weyl-orbit label


def hermite_rows(rows) -> tuple:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns a canonical tuple of echelon rows with positive pivots; entries
    above a pivot are reduced into [0, pivot).
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    out = []
    for col in range(ncols):
        while True:
            nz = sorted(
                (r for r in work if r[col] != 0), key=lambda r: abs(r[col])
            )
            if len(nz) <= 1:
                break
            pivot = nz[0]
            for r in nz[1:]:
                q = r[col] // pivot[col]
                for k in range(ncols):
                    r[k] -= q * pivot[k]
        nz = [r for r in work if r[col] != 0]
        if nz:
            pivot = nz[0]
            work.remove(pivot)
            if pivot[col] < 0:
                pivot = [-x for x in pivot]
            out.append(pivot)
        work = [r for r in work if any(r)]
    # in increasing pivot order: row idx is zero in the pivot columns of
    # the rows above it, so reducing by it keeps what they already hold
    for idx, row in enumerate(out):
        j = next(i for i, x in enumerate(row) if x != 0)
        for above in range(idx):
            q = out[above][j] // row[j]
            if q:
                out[above] = [a - q * b for a, b in zip(out[above], row)]
    return tuple(tuple(r) for r in out)


def invariant_factors(m) -> tuple:
    """Invariant factors d1 | d2 | ... of the ``RatMatrix`` m, min(rows,
    cols) of them with the zeros last.

    Row Hermite forms of the rows and of the transpose alternate until the
    result is diagonal; each pass is a unimodular change of rows or of
    columns, and the pivot of the first row is the gcd of a row or column
    holding the previous one, so it shrinks until its row and column are
    clear.  Replacing a pair of diagonal entries by their gcd and lcm sorts
    the exponent of every prime, which gives the divisibility chain.
    """
    if m.den != 1:
        raise ValueError("invariant factors need an integer matrix")
    rows = hermite_rows(m.num)
    while any(sum(1 for x in row if x) > 1 for row in rows):
        rows = hermite_rows(zip(*rows))
    diag = [next(x for x in row if x) for row in rows]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return tuple(diag) + (0,) * (min(m.rows, m.cols) - len(diag))


def torsion_primes_of_quotient(rows) -> frozenset:
    """Primes dividing the torsion of Z^n modulo the span of the rows, n
    their length."""
    from gradedorbits.exactlin import RatMatrix, prime_factors

    rows = [tuple(r) for r in rows]
    if not rows:
        return frozenset()
    facs = invariant_factors(RatMatrix.from_rows(rows))
    out = set()
    for d in facs:
        if d not in (0, 1):
            out |= prime_factors(d)
    return frozenset(out)


@dataclass(frozen=True)
class RootDatum:
    kind: str  # "sl" or "sp"
    ambient_rank: int
    roots: tuple  # integer vectors in the X presentation
    coroots: tuple  # parallel integer vectors in the Y presentation
    x_relations: tuple  # extra relation rows presenting X as a quotient
    y_basis: tuple  # basis rows of Y inside the ambient lattice


def standard_root_datum(kind: str, n: int) -> RootDatum:
    """The root datum of SL(n), n >= 2, or Sp(n), n >= 2 even, its roots
    those of the family of the whole system.

    SL(n): the character lattice is Z^n modulo the diagonal copy of Z,
    presented as Z^n with the extra relation row (1, ..., 1), so quotient
    torsion is read off a stacked integer matrix; the cocharacter lattice
    is the trace-zero sublattice of Z^n, with basis e_i - e_(i+1), and
    e_i - e_j is its own coroot under the dot pairing.  Sp(2m): characters
    and cocharacters are both Z^m (the torus diag(t_1..t_m,
    t_1^-1..t_m^-1)); the roots are +-e_i +- e_j and +-2e_i, the coroots
    +-e_i +- e_j and +-e_i, the coroot of +-2e_i in its place.
    """
    if kind == "sl":
        roots = _family(n, (("A", n),))
        y_basis = tuple(_vec(n, (i, 1), (i + 1, -1)) for i in range(n - 1))
        return RootDatum(kind, n, roots, roots, ((1,) * n,), y_basis)
    m = n // 2
    return RootDatum(
        kind,
        m,
        _family(m, (("C", m),)),
        _family(m, (("B", m),)),
        (),
        tuple(_vec(m, (i, 1)) for i in range(m)),
    )


# The Weyl group W permutes the roots and the coroots and acts linearly on
# their lattices, so it maps closed families to closed families and keeps
# the torsion of their quotients: one family per W-orbit decides the prime
# report.  The orbits have closed-form labels (``_labels``), each a family
# on consecutive coordinate blocks (``_family``):
# - SL(n): a partition of n; each part k >= 2 is an A_(k-1), every
#   e_i - e_j on its block (SL(6) has 11 orbits of its 203 families);
# - Sp(2m), roots (type C): C_k's (every +-e_i +- e_j and +-2e_i) and
#   A_(k-1)'s (k >= 2) of total size at most m;
# - Sp(2m), coroots (type B): at most one B_k (every +-e_i +- e_j and
#   +-e_i), then D_k's (k >= 2, every +-e_i +- e_j) and A_(k-1)'s, of
#   total size at most m.
# The components of a closed family on each side, as (type, least size,
# most components of that type): the type A roots e_i - e_j of a block, D
# adds +-(e_i + e_j), B adds +-e_i and C adds +-2e_i; two B components
# would span every e_i +- e_j between them, so there is at most one.
_COMPONENTS = {
    "sl": ((("A", 2, None),),) * 2,
    "sp": (
        (("C", 1, None), ("A", 2, None)),
        (("B", 1, 1), ("D", 2, None), ("A", 2, None)),
    ),
}


def _partitions(room: int, least: int, count=None, largest=None):
    """Every non-increasing tuple of at most ``count`` parts, each at least
    ``least`` and at most ``largest``, with sum at most ``room``."""
    yield ()
    if count != 0:
        for first in range(least, min(room, largest or room) + 1):
            for rest in _partitions(
                room - first, least, None if count is None else count - 1, first
            ):
                yield (first,) + rest


def _labels(components, room: int):
    """Every orbit label: a partition for each of ``components`` with total
    size at most ``room``, as a tuple of (type letter, size)."""
    if not components:
        yield ()
        return
    (letter, least, count), rest = components[0], components[1:]
    for parts in _partitions(room, least, count):
        for tail in _labels(rest, room - sum(parts)):
            yield tuple((letter, k) for k in parts) + tail


def _vec(rank: int, *terms) -> tuple:
    v = [0] * rank
    for i, c in terms:
        v[i] += c
    return tuple(v)


def _family(rank: int, label) -> tuple:
    """The closed family of a label, its components on consecutive
    coordinate blocks, each in the order e_i - e_j (i != j, row-major),
    +-(e_i + e_j) (i < j), then +-e_i or +-2e_i."""
    out, start = [], 0
    for letter, k in label:
        block = range(start, start + k)
        start += k
        out += [_vec(rank, (i, 1), (j, -1)) for i in block for j in block if i != j]
        if letter != "A":
            out += [
                _vec(rank, (i, s), (j, s))
                for i, j in itertools.combinations(block, 2)
                for s in (1, -1)
            ]
        if letter in "BC":
            c = 1 if letter == "B" else 2
            out += [_vec(rank, (i, c * s)) for i in block for s in (1, -1)]
    return tuple(out)


def _basis(rank: int, label) -> tuple:
    """A Z-basis of the lattice that the family of a label spans: on each
    block e_i - e_(i+1), then e_k for B, 2e_k for C or e_(k-1) + e_k for D,
    k the block's last coordinate."""
    out, start = [], 0
    for letter, k in label:
        last = start + k - 1
        out += [_vec(rank, (i, 1), (i + 1, -1)) for i in range(start, last)]
        if letter in "BC":
            out.append(_vec(rank, (last, 1 if letter == "B" else 2)))
        elif letter == "D":
            out.append(_vec(rank, (last - 1, 1), (last, 1)))
        start = last + 1
    return tuple(out)


def _coords_in_basis(basis, vectors) -> tuple:
    """The coordinates of each of ``vectors`` on the independent rows
    ``basis``, from one elimination of the columns of both; ``ValueError``
    if one is not an integer vector."""
    from gradedorbits.exactlin import _rref

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


def _bad_primes(rd: RootDatum, simple) -> frozenset:
    """The primes dividing a coordinate of the highest root on the simple
    roots ``simple``: e_1 - e_n of SL(n) is 1, ..., 1 on e_i - e_(i+1), and
    2e_1 of Sp(2m) is 2, ..., 2, 1 on those and 2e_m."""
    from gradedorbits.exactlin import prime_factors

    n = rd.ambient_rank
    highest = _vec(n, (0, 1), (n - 1, -1)) if rd.kind == "sl" else _vec(n, (0, 2))
    (coords,) = _coords_in_basis(simple, [highest])
    return frozenset().union(*map(prime_factors, coords))


def _prime_lists(bad, x_side, y_side, center) -> dict:
    """The report of ``rootdata.prime_report`` from the bad primes and the
    torsion primes of the X-side quotients, of the Y-side quotients and of
    the centre's."""
    return {
        "good_excluded": sorted(bad),
        "torsion": sorted(y_side),
        "pretty_good_excluded": sorted(x_side | y_side),
        "rather_good_excluded": sorted(bad | center),
    }


def prime_report_by_labels(rd: RootDatum) -> dict:
    """Bad primes, torsion primes, and the pretty-good / rather-good
    exclusions, from one torsion quotient per W-orbit label on each side.

    The X-side quantification runs over subsystems closed inside the root
    list; the Y-side runs over subsystems closed inside the coroot list.
    The two closures differ in general (in Sp(4) the coroots of the short
    roots form a closed set, the short roots do not), and both sides are
    needed to exhaust the quantifier over arbitrary subsets.  An element w
    of W is an automorphism of X and of Y that maps ZA onto Z(wA) and
    ZA^v onto Z(wA^v), so the torsion of X/ZA and of Y/ZA^v is constant
    on a W-orbit of families, and one quotient per orbit label decides it,
    taken from the ``_basis`` of the label's lattice.  When the coroot
    labels equal the root labels, as for SL, both sides share one list.
    The basis of the whole system's label is its simple roots, which give
    the bad primes.
    """
    rank = rd.ambient_rank
    on_roots, on_coroots = _COMPONENTS[rd.kind]
    root_bases = {label: _basis(rank, label) for label in _labels(on_roots, rank)}
    coroot_bases = root_bases
    if on_coroots != on_roots:
        coroot_bases = {label: _basis(rank, label) for label in _labels(on_coroots, rank)}
    x_primes = {
        label: torsion_primes_of_quotient(basis + rd.x_relations)
        for label, basis in root_bases.items()
    }
    x_side = set().union(*x_primes.values())
    # the Y-basis coordinates of every coroot basis vector, from one elimination
    vectors = list({v for basis in coroot_bases.values() for v in basis})
    coords = dict(zip(vectors, _coords_in_basis(rd.y_basis, vectors)))
    y_side = set()
    for basis in coroot_bases.values():
        y_side |= torsion_primes_of_quotient([coords[v] for v in basis])

    # the whole system's label, A_(n-1) for SL(n) or C_m for Sp(2m): its
    # X-side quotient is the centre's, simple roots over x_relations
    whole = ((on_roots[0][0], rank),)
    bad = _bad_primes(rd, root_bases[whole])
    return _prime_lists(bad, x_side, y_side, x_primes[whole])


def hermite_pivots(hnf) -> tuple:
    """The pivot column of each Hermite row."""
    return tuple(next(i for i, x in enumerate(row) if x != 0) for row in hnf)


def in_hermite_span(hnf, vec, pivots=None) -> bool:
    """Whether ``vec`` lies in the lattice given by Hermite rows ``hnf``.

    ``pivots`` may carry ``hermite_pivots(hnf)`` when many vectors are
    tested against one lattice."""
    v = list(vec)
    for row, j in zip(hnf, pivots or hermite_pivots(hnf)):
        if v[j] != 0:
            if v[j] % row[j] != 0:
                return False
            q = v[j] // row[j]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def closure_by_members(vectors, indices):
    """Indices of all vectors lying in the integer span of the selection."""
    if not indices:
        return ()
    hnf = hermite_rows([vectors[i] for i in indices])
    pivots = hermite_pivots(hnf)
    return tuple(i for i, v in enumerate(vectors) if in_hermite_span(hnf, v, pivots))


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
    x_side = set()
    for fam in closed_families_by_join_closure(rd.roots):
        x_side |= torsion_primes_of_quotient(x_quotient_rows(rd, fam))
    y_side = set()
    for fam in closed_families_by_join_closure(rd.coroots):
        y_side |= torsion_primes_of_quotient(y_quotient_rows(rd, fam))
    bad = bad_primes_by_highest_root_search(rd)
    center = torsion_primes_of_quotient(x_quotient_rows(rd, range(len(rd.roots))))
    return _prime_lists(bad, x_side, y_side, center)


def pairing(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def x_quotient_rows(rd, indices) -> tuple:
    """Rows presenting X / (Z * selected roots) as a cokernel."""
    return tuple(rd.roots[i] for i in indices) + rd.x_relations


def y_quotient_rows(rd, indices) -> tuple:
    """Rows presenting Y / (Z * selected coroots), in Y-basis coordinates."""
    return _coords_in_basis(rd.y_basis, [rd.coroots[i] for i in indices])


def _height(rd):
    """A linear form that is nonzero on every root: the roots where it is
    positive form a positive system."""
    n = rd.ambient_rank
    big = 2 * max((abs(x) for v in rd.roots for x in v), default=0) * n + 1
    weights = [big ** (n - 1 - i) for i in range(n)]
    return lambda v: sum(w * x for w, x in zip(weights, v))


def _simple_roots(rd) -> tuple:
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


def bad_primes_by_highest_root_search(rd) -> frozenset:
    """Primes dividing a coefficient of the highest root of some factor,
    for any root datum: the simple roots of a height functional, their
    components under non-orthogonality, and the highest positive root in
    the Hermite span of each."""
    from gradedorbits.exactlin import prime_factors

    roots = rd.roots
    if not roots:
        return frozenset()
    simple = _simple_roots(rd)
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
                if any(pairing(simples[k], simple_coroots[c]) for c in comp):
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


def orbit_families(rd) -> tuple:
    """(on the roots, on the coroots): the family of each orbit label of
    the package on each side, as indices into ``rd.roots`` and
    ``rd.coroots`` looked up by value."""
    on_roots, on_coroots = _COMPONENTS[rd.kind]
    return (
        _indexed(rd.roots, on_roots, rd.ambient_rank),
        _indexed(rd.coroots, on_coroots, rd.ambient_rank),
    )


def _indexed(vectors, components, rank: int) -> tuple:
    index = {v: k for k, v in enumerate(vectors)}
    return tuple(
        tuple(index[v] for v in _family(rank, label))
        for label in _labels(components, rank)
    )


# ---------------------------------------------------------------------------
# the Weyl-group search: every closed family, and one per W-orbit


@dataclass(frozen=True)
class ClosedSubsystem:
    member_indices: tuple


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


def byte_tables(perm) -> tuple:
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


def walk(mask: int, generators) -> tuple:
    """(orbit, representative, fixing): the orbit of a bitmask under the
    group generated by index permutations given by their ``byte_tables``,
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


def closed_families_by_w_search(vectors, reflections=()) -> tuple:
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
    generators = [byte_tables(perm) for perm in reflections]
    seen, representatives, tried = {0}, {0}, set()
    work = [(0, (), generators)]
    while work:
        base, base_rows, subgroup = work.pop()
        reached = base  # H fixes F, so it permutes F's members among themselves
        for k in range(len(vectors)):
            if reached >> k & 1:
                continue
            reached |= sum(walk(1 << k, subgroup)[0])
            union = base | 1 << k | 1 << negated[k]
            if union in seen or union in tried:
                continue
            tried.add(union)
            members, rows = _close(vectors, supports, base_rows + (vectors[k],), union)
            if members not in seen:
                orbit, rep, fixing = walk(members, generators)
                seen |= orbit
                if rep != members:
                    rows = hermite_rows([vectors[j] for j in indices_of(rep)])
                representatives.add(rep)
                work.append((rep, rows, fixing))
    return seen, representatives


def indices_of(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def sorted_families(masks) -> tuple:
    """Bitmasks as index tuples, sorted by size, then by indices."""
    return tuple(sorted(map(indices_of, masks), key=lambda t: (len(t), t)))


def closed_subsystems(rd) -> tuple:
    """Every closed family of roots, sorted by size, then by indices.
    Raises ``ValueError`` if a simple reflection does not permute the
    roots."""
    families, _ = closed_families_by_w_search(rd.roots, simple_reflections(rd)[0])
    return tuple(ClosedSubsystem(f) for f in sorted_families(families))


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


def simple_reflections(rd) -> tuple:
    """(on roots, on coroots): the simple reflections of W as index
    permutations, s(v) = v - <v, a^v> a on the roots and
    s(y) = y - <a, y> a^v on the coroots, for each simple root a."""
    on_roots, on_coroots = [], []
    for k in _simple_roots(rd):
        alpha, alphav = rd.roots[k], rd.coroots[k]
        on_roots.append(_reflection(rd.roots, alpha, lambda v: pairing(v, alphav)))
        on_coroots.append(_reflection(rd.coroots, alphav, lambda y: pairing(alpha, y)))
    return tuple(on_roots), tuple(on_coroots)


# ---------------------------------------------------------------------------
# the --json payloads of graded-orbits and fibers, from their definitions


def partition_label(lam):
    """Exponential notation, e.g. [2^2,1^2]."""
    pieces = []
    for a, run in itertools.groupby(lam):
        count = len(list(run))
        pieces.append(f"{a}^{count}" if count > 1 else str(a))
    return "[" + ",".join(pieces) + "]"


def interval_multiset_count(dims):
    """The number of multisets of intervals [a, b] of the positions of
    ``dims`` that cover each position i exactly dims[i] times, by the
    multiplicity of each interval in turn."""
    intervals = [(a, b) for a in range(len(dims)) for b in range(a, len(dims))]

    def count(k, left):
        if k == len(intervals):
            return int(not any(left))
        a, b = intervals[k]
        total = 0
        while True:
            total += count(k + 1, left)
            if not all(left[a : b + 1]):
                return total
            left = left[:a] + tuple(v - 1 for v in left[a : b + 1]) + left[b + 1 :]

    return count(0, tuple(dims))


def _weight_chains(weights, n):
    """The multiplicities of the weights along each maximal chain
    u, u + n, u + 2n, ... of weights that occur."""
    mult = {u: weights.count(u) for u in set(weights)}
    return [
        [mult[u + k * n] for k in itertools.takewhile(lambda k: u + k * n in mult, itertools.count())]
        for u in sorted(mult)
        if u - n not in mult
    ]


def _rank_invariants(weights, n, x):
    """The rank of x^k from the weight space u to u + kn, for k >= 1 and
    every weight u, by Fraction RREF; these classify the representations
    of an equioriented type-A quiver, so the G_0-orbits on g_n."""
    d = len(weights)
    out = []
    power = x
    for k in range(1, d):
        for u in sorted(set(weights)):
            src = [j for j in range(d) if weights[j] == u]
            dst = [i for i in range(d) if weights[i] == u + k * n]
            if dst:
                out.append(len(fraction_rref([[power[i][j] for j in src] for i in dst])[1]))
        power = [[sum(power[i][t] * x[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
    return tuple(out)


def check_graded_orbits_payload(weights, n, payload):
    """One orbit per multiset of intervals along each chain of weights
    (Gabriel's theorem for equioriented type A), each representative on the
    cells of degree n with dim the rank of ad x on g_0, and no two
    representatives with the same rank invariants."""
    from gradedorbits.exactlin import Cocharacter, RatMatrix
    from gradedorbits.liegrade import build_algebra

    d = len(weights)
    assert (payload["cochar"], payload["degree"]) == (list(weights), n)
    want = 1
    for dims in _weight_chains(list(weights), n):
        want *= interval_multiset_count(dims)
    orbits = payload["orbits"]
    assert len(orbits) == want
    alg, chi = build_algebra("sl", d), Cocharacter.of(weights)
    seen = set()
    for rec in orbits:
        x = [[Fraction(a) for a in row.split(",")] for row in rec["representative"].split(";")]
        assert all(weights[i] - weights[j] == n for i in range(d) for j in range(d) if x[i][j])
        assert rec["dim"] == graded_orbit_dimension(alg, chi, n, RatMatrix.from_rows(x))
        invariants = _rank_invariants(weights, n, x)
        assert invariants not in seen, rec["label"]
        seen.add(invariants)


def space_points(text, q):
    """F_q points of a space expression such as (disjoint (proj 2) (aff 2)):
    a point, affine n-space, projective n-space, the torus G_m, the
    projective line minus k points, and a disjoint union."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def read(pos):
        head, pos = tokens[pos + 1], pos + 2
        parts, args = [], []
        while tokens[pos] != ")":
            if tokens[pos] == "(":
                value, pos = read(pos)
                parts.append(value)
            else:
                args.append(int(tokens[pos]))
                pos += 1
        value = {
            "pt": lambda: 1,
            "aff": lambda: q ** args[0],
            "proj": lambda: sum(q**i for i in range(args[0] + 1)),
            "torus": lambda: q - 1,
            "projline-minus": lambda: q + 1 - args[0],
            "disjoint": lambda: sum(parts),
        }[head]()
        return value, pos + 1

    return read(0)[0]


def gaussian_binomial(d, k, q):
    """The number of k-dimensional subspaces of F_q^d."""
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# the strata of each flag kind, and the dimension of its flags
FLAG_STRATA = {"isotropic-line": (1, ("full", "zero", "cuspidal")), "two-plane": (2, ("full", "cuspidal"))}


def check_fibers_payload(case, primes, payload):
    """For each prime, orbit and stratum in turn, the count is that of its
    space in the case fixture at p.  A zero part marked as a twisted pair
    is a^2 + b^2 = 0 in P^1: one point at p = 2, else two points when -1 is
    a square mod p and none when not; the cuspidal part is then the rest of
    the full fiber.  The zero orbit's full fiber is every flag: [4, k]_p of
    them, as every line is isotropic."""
    import json
    from pathlib import Path

    import gradedorbits

    fixture = json.loads((Path(gradedorbits.__file__).parent / "cases" / f"{case}.json").read_text())
    k, strata = FLAG_STRATA[fixture["flag_kind"]]
    assert (payload["case"], payload["primes"]) == (case, list(primes))
    want = []
    for p in primes:
        for rec in fixture["orbits"]:
            counts = {"full": space_points(rec["full_fiber"], p)}
            if rec.get("zero_part_twisted_pair"):
                counts["zero"] = 1 if p == 2 else 2 if p % 4 == 1 else 0
                counts["cuspidal"] = counts["full"] - counts["zero"]
            else:
                for stratum in ("zero", "cuspidal"):
                    expr = rec[f"{stratum}_part"]
                    counts[stratum] = space_points(expr, p) if expr else 0
            if set(rec["partition"]) == {1}:
                assert counts["full"] == gaussian_binomial(fixture["ambient_dim"], k, p)
            label = partition_label(rec["partition"])
            want += [(label, p, stratum, counts[stratum]) for stratum in strata]
    assert [(r["orbit"], r["prime"], r["stratum"], r["count"]) for r in payload["rows"]] == want
