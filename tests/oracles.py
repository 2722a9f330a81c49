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
Closed families of a vector list come from closing the members of every
pairwise join, with no memo, no support filter and no Weyl group, and the
prime classifiers take a torsion quotient for every family, not one per
orbit, on all of its vectors, not a basis.  The bad primes come from the
simple roots of a height functional, their components and a scan of the
positive roots for the highest root of each, where the package writes
down the highest root of SL(n) or Sp(2m).  A Weyl-group search lists
every closed family, bitmask by bitmask, with one representative per
W-orbit: the orbits that the package's labels must match one for one.
Jordan types come from the Fraction ranks of the powers of a nilpotent,
and parity from the degrees of each stalk column.  A type-A graded
orbit's dimension is the rank of ad x on g_0 and its Levi comes from a
solved sl2-triple and the canonical parabolic, where the package uses
closed forms in the segments.  The f of a triple
comes from one system over every cell of [x, f] = h and [h, f] = -2f,
where the package solves on the ad-h weight -2 cells, and rigidity
conjugates e, h and f by the basis change every time.  Primality is trial
division.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
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
    from gradedorbits.exactlin import hermite_rows

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
    from gradedorbits.exactlin import torsion_primes_of_quotient
    from gradedorbits.rootdata import PrimeReport

    x_side = set()
    for fam in closed_families_by_join_closure(rd.roots):
        x_side |= torsion_primes_of_quotient(x_quotient_rows(rd, fam))
    y_side = set()
    for fam in closed_families_by_join_closure(rd.coroots):
        y_side |= torsion_primes_of_quotient(y_quotient_rows(rd, fam))
    bad = bad_primes_by_highest_root_search(rd)
    center = torsion_primes_of_quotient(x_quotient_rows(rd, range(len(rd.roots))))
    return PrimeReport(
        good_excluded=tuple(sorted(bad)),
        torsion=tuple(sorted(y_side)),
        pretty_good_excluded=tuple(sorted(x_side | y_side)),
        rather_good_excluded=tuple(sorted(bad | center)),
    )


def pairing(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def x_quotient_rows(rd, indices) -> tuple:
    """Rows presenting X / (Z * selected roots) as a cokernel."""
    return tuple(rd.roots[i] for i in indices) + rd.x_relations


def y_quotient_rows(rd, indices) -> tuple:
    """Rows presenting Y / (Z * selected coroots), in Y-basis coordinates."""
    from gradedorbits.rootdata import _coords_in_basis

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
    from gradedorbits.exactlin import hermite_rows, prime_factors
    from gradedorbits.rootdata import _coords_in_basis

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
    from gradedorbits.rootdata import _COMPONENTS

    on_roots, on_coroots = _COMPONENTS[rd.kind]
    return (
        _indexed(rd.roots, on_roots, rd.ambient_rank),
        _indexed(rd.coroots, on_coroots, rd.ambient_rank),
    )


def _indexed(vectors, components, rank: int) -> tuple:
    from gradedorbits.rootdata import _family, _labels

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
    from gradedorbits.exactlin import hermite_rows

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
    from gradedorbits.exactlin import hermite_rows

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
