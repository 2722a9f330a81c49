"""Exact integer and rational linear algebra: primality and prime
factors, the matrix type ``RatMatrix``, one elimination kernel ``_rref``
over Q or F_p with the nullspaces and solutions read from it, and
partitions.

Everything in this package computes over Z or Q with arbitrary precision;
there is no floating point anywhere.  The one matrix type is ``RatMatrix``,
integer entries over a common denominator; an integer matrix is one with
denominator 1.  A diagonal cocharacter is the plain tuple of its integer
weights.  ``RatMatrix`` and ``Partition`` are slotted namedtuples, so they
are immutable, hashable and safe to share across threads; like any tuple
they compare equal to a plain tuple of their fields.

The shared matrix text format used by the CLI and the case fixtures writes
rows separated by ';' and entries by ',', e.g. ``"0,1;0,0"``:
``RatMatrix.text`` writes it, and ``parse_matrix_text`` reads integer entries.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter


class DomainError(ValueError):
    """An input outside the domain of a computation; ``param`` names the
    parameter it concerns, so that the CLI can name the option."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


class CompositeCharacteristic(ValueError):
    """Raised when a field characteristic is neither 0 nor prime."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 86, 2017)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin; p must be below
    PRIME_TEST_BOUND."""
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> frozenset:
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


# ---------------------------------------------------------------------------
# matrices: integer numerators over one common denominator


class RatMatrix(namedtuple("RatMatrix", "rows cols num den")):
    """Immutable rational matrix: integer entries ``num`` (a tuple of row
    tuples) over one positive denominator ``den``, which is 1 for an
    integer matrix.  ``from_rows`` and ``_normalized`` normalize it (den
    coprime to the entries), so equal normalized values are the same
    rational matrix."""

    __slots__ = ()

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        """The matrix of rows of ints, Fractions or strings such as "1/2"; a
        float is refused, as it is not exact."""
        tup = tuple(map(tuple, rows))
        ncols = len(tup[0]) if tup else 0
        if any(len(row) != ncols for row in tup):
            raise ValueError("ragged rows")
        types = set(map(type, itertools.chain.from_iterable(tup)))
        if types <= {int}:
            return RatMatrix(len(tup), ncols, tup, 1)
        if any(issubclass(t, float) for t in types):
            raise TypeError("float entries are not exact")
        vals = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in tup]
        denom = lcm(*(x.denominator for row in vals for x in row))
        num = tuple(tuple(x.numerator * (denom // x.denominator) for x in row) for row in vals)
        return RatMatrix(len(num), ncols, num, denom)._normalized()

    @staticmethod
    def zeros(r: int, c: int) -> "RatMatrix":
        return RatMatrix(r, c, tuple((0,) * c for _ in range(r)), 1)

    def _normalized(self) -> "RatMatrix":
        g = abs(self.den)
        for row in self.num:
            for x in row:
                g = gcd(g, abs(x))
                if g == 1:
                    break
        if g in (0, 1):
            g = 1
        sign = 1 if self.den > 0 else -1
        if g == 1 and sign == 1:
            return self
        return RatMatrix(
            self.rows,
            self.cols,
            tuple(tuple(sign * x // g for x in row) for row in self.num),
            sign * self.den // g,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.num for x in row)

    def support(self) -> frozenset:
        return frozenset(
            (i, j) for i, row in enumerate(self.num) for j, x in enumerate(row) if x
        )

    def text(self) -> str:
        if self.den == 1:
            return ";".join(",".join(str(x) for x in row) for row in self.num)
        return ";".join(
            ",".join(str(Fraction(x, self.den)) for x in row) for row in self.num
        )


def parse_matrix_text(text: str) -> RatMatrix:
    """Parse the shared ';'/',' matrix text format of integer entries."""
    rows = text.strip().split(";")
    return RatMatrix.from_rows([[int(x) for x in row.split(",")] for row in rows])


# ---------------------------------------------------------------------------
# exact elimination over Q or F_p (Gauss-Jordan, fraction-free)

_denominator = attrgetter("denominator")


def _integer_row(row):
    """The row times the least common denominator of its entries."""
    den = lcm(*map(_denominator, row))
    if den == 1:
        return list(map(int, row))
    return [x.numerator * (den // x.denominator) for x in row]


def _rref(rows, p: int = 0):
    """Reduced row echelon form over Q (p = 0) or F_p, on integer rows.

    Returns (rows, pivot_columns).  Over Q a step replaces a row by an
    integer combination of it and the pivot row, so no division happens;
    each input row is first scaled to integers and every changed row is
    divided by its content.  Over F_p entries are kept in [0, p) and each
    pivot row is scaled to a pivot of 1.  Row r has a nonzero pivot at
    ``pivot_columns[r]`` and zeros in every other pivot column, and row r
    divided by its pivot is row r of the (unique) RREF.  Rows past the
    rank are zero.
    """
    if p:
        mat = [[x % p for x in row] for row in rows]
    else:
        mat = [_integer_row(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        prow = mat[rank]
        pv = prow[col]
        if p and pv != 1:
            inverse = pow(pv, -1, p)
            prow = mat[rank] = [x * inverse % p for x in prow]
        for i in range(nrows):
            f = mat[i][col]
            if i != rank and f != 0:
                if p:
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
                    continue
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(mat[i], prow)]
                c = gcd(*row)
                if c > 1:
                    row = [x // c for x in row]
                mat[i] = row
        pivots.append(col)
        rank += 1
    return mat, pivots


def _primitive(vec):
    """Divide an integer vector by its content; first nonzero > 0."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def nullspace(rows, p: int = 0):
    """Basis of the right kernel of a matrix, one vector per free column:
    primitive integer vectors over Q (p = 0), entries in [0, p) over F_p."""
    if p and not is_prime(p):
        raise CompositeCharacteristic(f"{p} is neither 0 nor prime")
    if not rows:
        return ()
    ncols = len(rows[0])
    mat, pivots = _rref(rows, p)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        # x_j = 1 and x_pc = -row[j] / row[pc], scaled to integers; over
        # F_p every pivot is 1
        terms = [(pc, mat[r][j], mat[r][pc]) for r, pc in enumerate(pivots) if mat[r][j]]
        scale = lcm(*(pv for _, _, pv in terms)) if terms else 1
        vec = [0] * ncols
        vec[j] = scale
        for pc, a, pv in terms:
            vec[pc] = -a * scale // pv
        basis.append(tuple(x % p for x in vec) if p else _primitive(vec))
    return tuple(basis)


def solve_linear(rows, rhs):
    """One exact solution of ``rows * x = rhs`` over Q, or None.

    Free variables are set to 0, which makes the answer deterministic.
    """
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    mat, pivots = _rref(aug)
    if ncols in pivots:  # no solution: the last column holds a pivot
        return None
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = Fraction(mat[r][ncols], mat[r][pc])
    return tuple(sol)


# ---------------------------------------------------------------------------
# partitions


class Partition(namedtuple("Partition", "parts")):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    @staticmethod
    def of(parts) -> "Partition":
        tup = tuple(int(x) for x in parts)
        if any(x <= 0 for x in tup):
            raise ValueError("parts must be positive")
        if any(tup[i] < tup[i + 1] for i in range(len(tup) - 1)):
            raise ValueError("parts must be weakly decreasing")
        return Partition(tup)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def label(self) -> str:
        """Exponential notation, e.g. [2,1^2]."""
        if not self.parts:
            return "[]"
        pieces = []
        for value, grp in itertools.groupby(self.parts):
            count = len(list(grp))
            pieces.append(f"{value}^{count}" if count > 1 else f"{value}")
        return "[" + ",".join(pieces) + "]"

    @staticmethod
    def all_of(n: int):
        """All partitions of n in descending lexicographic order."""

        def gen(remaining, bound):
            if remaining == 0:
                yield ()
                return
            for first in range(min(remaining, bound), 0, -1):
                for rest in gen(remaining - first, first):
                    yield (first,) + rest

        return tuple(Partition(p) for p in gen(n, n))
