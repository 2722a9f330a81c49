"""Independent reference implementations used only to cross-check results.

These deliberately use different algorithms from the package: invariant
factors via gcds of k-minors, dominance order via explicit partial sums,
and cohomology/point-count checks by brute enumeration.  Flag counts over
F_p sweep the whole Grassmannian once per condition set and test span
membership by generic elimination against the echelon basis.
"""

from __future__ import annotations

import itertools
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
