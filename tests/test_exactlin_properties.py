"""Property tests: the fraction-free elimination of ``exactlin`` against
Fraction references, its elimination over F_p against the echelon oracle,
the integer product and the sparse bracket ``liegrade._ad`` against dense
products, and the Hermite-pass invariant factors of the oracles' label
report against the minors-gcd oracle.  Needs Hypothesis (the ``test`` extra);
without it this module is skipped and the rest of the suite still runs."""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedorbits.exactlin import (
    RatMatrix,
    _rref,
    nullspace,
    solve_linear,
)
from gradedorbits.ffgeom import _matmul
from gradedorbits.liegrade import _ad

from oracles import (
    _echelonize,
    dense_bracket,
    fraction_nullspace,
    fraction_rref,
    hermite_pivots,
    hermite_rows,
    identity,
    in_hermite_span,
    invariant_factors,
    matrix_product,
    rat_inverse,
    snf_invariant_factors_by_minors,
)

entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


integer_rows = st.integers(1, 4).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=4
    )
)


@st.composite
def rational_matrices(draw, max_rows=7, max_cols=7, square=False):
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(rational_matrices())
def test_integer_rref_equals_fraction_rref(rows):
    mat, pivots = _rref(rows)
    want, want_pivots = fraction_rref(rows)
    assert pivots == want_pivots
    assert all(isinstance(x, int) for row in mat for x in row)
    normalized = [
        [Fraction(x, row[pc]) for x in row] for row, pc in zip(mat, pivots)
    ]
    assert normalized == want[: len(pivots)]
    assert all(x == 0 for row in mat[len(pivots):] for x in row)


@PROPERTY
@given(rational_matrices())
def test_nullspace_and_rank_equal_fraction_reference(rows):
    assert nullspace(rows) == fraction_nullspace(rows)
    # rank-nullity, against the rank of the Fraction RREF
    assert len(nullspace(rows)) == len(rows[0]) - len(fraction_rref(rows)[1])


@PROPERTY
@given(rational_matrices(), st.data())
def test_solve_linear_equals_fraction_reference(rows, data):
    rhs = [data.draw(entries) for _ in rows]
    ncols = len(rows[0])
    aug, pivots = fraction_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    got = solve_linear(rows, rhs)
    if ncols in pivots:
        assert got is None
        return
    want = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        want[pc] = aug[r][ncols]
    assert got == tuple(want)


@PROPERTY
@given(rational_matrices(max_rows=5, max_cols=5), st.data())
def test_rat_matrix_product_equals_entrywise_sums(rows, data):
    ncols = data.draw(st.integers(1, 5))
    other = [[data.draw(entries) for _ in range(ncols)] for _ in rows[0]]
    want = [
        [sum(Fraction(a) * Fraction(col[k]) for a, col in zip(row, other)) for k in range(ncols)]
        for row in rows
    ]
    # the integer product on the numerators, over the product of the
    # denominators, and the oracles' product
    a, b = RatMatrix.from_rows(rows), RatMatrix.from_rows(other)
    got = _matmul(a.num, b.num, ncols)
    want = RatMatrix.from_rows(want)
    assert RatMatrix.from_rows([[Fraction(x, a.den * b.den) for x in row] for row in got]) == want
    assert matrix_product(a, b) == want


@st.composite
def bracket_pairs(draw):
    """Two square rational matrices of one size, each dense or with a few
    nonzero cells, as the elements of a graded piece have."""
    n = draw(st.integers(1, 6))

    def matrix():
        if draw(st.booleans()):
            return [[draw(entries) for _ in range(n)] for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
            rows[i][j] = draw(entries)
        return rows

    return RatMatrix.from_rows(matrix()), RatMatrix.from_rows(matrix())


def _cells(num):
    return {(i, j): x for i, row in enumerate(num) for j, x in enumerate(row) if x}


@PROPERTY
@given(bracket_pairs())
def test_bracket_equals_dense_products(pair):
    # ``_ad`` on the numerators' cells is the dense bracket of the
    # numerators, cell for cell, and writes no zero cell
    a, b = (RatMatrix.from_rows(m.num) for m in pair)
    got = _ad(_cells(a.num))(_cells(b.num))
    want = dense_bracket(a, b)
    assert want.den == 1
    assert got == _cells(want.num)
    assert all(got.values())


@PROPERTY
@given(rational_matrices(max_rows=5, square=True))
def test_rat_inverse_is_two_sided(rows):
    # the oracles' inverse, which the parabolic tests conjugate with
    m = RatMatrix.from_rows(rows)
    n = len(rows)
    if len(fraction_rref(rows)[1]) < n:
        with pytest.raises(ValueError):
            rat_inverse(m)
    else:
        inv = rat_inverse(m)
        assert matrix_product(m, inv) == identity(n)
        assert matrix_product(inv, m) == identity(n)


@PROPERTY
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=4),
    st.sampled_from([2, 3, 5, 7]),
)
def test_nullspace_mod_p_against_smith_form(rows, p):
    kern = nullspace(rows, p)
    factors = snf_invariant_factors_by_minors(rows)
    # rank = columns - len(kernel)
    assert 4 - len(kern) == sum(1 for d in factors if d % p != 0)
    for v in kern:
        # a column where v is 1 and every other kernel vector is 0
        assert any(
            v[j] == 1 and all(u[j] == 0 for u in kern if u is not v)
            for j in range(4)
        )
        assert all(0 <= x < p for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)


def _back_substituted(rows, p):
    """The reduced echelon form of echelon ``rows`` with pivots 1: each
    row, from the last, cleared out of the rows above it at its pivot."""
    out = [list(row) for row in rows]
    for i in reversed(range(len(out))):
        c = next(j for j, a in enumerate(out[i]) if a)
        for k in range(i):
            out[k] = [(a - out[k][c] * b) % p for a, b in zip(out[k], out[i])]
    return tuple(map(tuple, out))


@PROPERTY
@given(
    st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=5
        )
    ),
    st.sampled_from([2, 3, 5, 7]),
)
def test_rref_mod_p_equals_echelon_oracle(rows, p):
    # over F_p the rows up to the rank are the reduced echelon form itself,
    # each pivot 1, with no division left to the caller
    mat, pivots = _rref(rows, p)
    assert tuple(map(tuple, mat[: len(pivots)])) == _back_substituted(_echelonize(rows, p), p)
    assert all(x == 0 for row in mat[len(pivots):] for x in row)


@PROPERTY
@given(integer_rows)
def test_invariant_factors_equal_minors_oracle(rows):
    assert invariant_factors(RatMatrix.from_rows(rows)) == snf_invariant_factors_by_minors(rows)


@PROPERTY
@given(integer_rows)
@example([(1, 3, 3, -3), (2, 0, -1, 2), (3, -2, 1, -3)])
def test_hermite_rows_is_a_normal_form(rows):
    """Positive pivots with every entry above one in [0, pivot), and the
    same rows for every order of the input rows.  In the example, reducing
    by a later pivot row first leaves -15 above the last pivot, 29."""
    hnf = hermite_rows(rows)
    assert all(in_hermite_span(hnf, row) for row in rows)
    for i, j in enumerate(hermite_pivots(hnf)):
        assert hnf[i][j] > 0
        assert all(0 <= hnf[k][j] < hnf[i][j] for k in range(i))
    assert all(hermite_rows(order) == hnf for order in itertools.permutations(rows))
