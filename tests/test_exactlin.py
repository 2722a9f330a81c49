import random
from fractions import Fraction

import pytest

from gradedorbits.exactlin import (
    CompositeCharacteristic,
    Partition,
    RatMatrix,
    PRIME_TEST_BOUND,
    is_prime,
    nullspace,
    parse_matrix_text,
)

from oracles import (
    NotNilpotent,
    hermite_rows,
    in_hermite_span,
    invariant_factors,
    is_prime_by_trial_division,
    jordan_matrix,
    nilpotent_jordan_partition,
    snf_invariant_factors_by_minors,
)


def check_factors(m):
    """invariant_factors of m, checked against the minors oracle and for
    the divisibility chain d1 | d2 | ..."""
    facs = invariant_factors(m)
    assert facs == snf_invariant_factors_by_minors([list(r) for r in m.num])
    assert len(facs) == min(m.rows, m.cols)
    for i in range(len(facs) - 1):
        if facs[i] == 0:
            assert facs[i + 1] == 0
        else:
            assert facs[i + 1] % facs[i] == 0
    assert all(d >= 0 for d in facs)
    return facs


def test_snf_identity():
    assert check_factors(RatMatrix.identity(3)) == (1, 1, 1)


def test_snf_already_diagonal():
    assert check_factors(RatMatrix.from_rows([[2, 0], [0, 4]])) == (2, 4)


def test_snf_divisibility_repair():
    assert check_factors(RatMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)


def test_snf_simple_root_rows():
    simple = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
    assert check_factors(RatMatrix.from_rows(simple)) == (1, 1, 1)
    extended = RatMatrix.from_rows(simple + [[1, 1, 1, 1]])
    assert check_factors(extended) == (1, 1, 1, 4)


def test_snf_needs_several_hermite_passes():
    # the Hermite forms of the rows and then of the columns leave this one
    # triangular with pivots 1, 3, 192; a third and a fourth pass follow
    m = RatMatrix.from_rows([[6, 1, -6], [-3, 1, -8], [-9, -9, 0]])
    assert check_factors(m) == (1, 1, 576)


def test_snf_zero_rows_and_columns():
    # rank below min(rows, cols) pads with zeros; a zero matrix is all zeros
    assert check_factors(RatMatrix.zeros(2, 3)) == (0, 0)
    assert check_factors(RatMatrix.from_rows([[0, 2, 4], [0, 4, 8]])) == (2, 0)
    assert check_factors(RatMatrix.from_rows([[0], [6], [0]])) == (6,)
    assert invariant_factors(RatMatrix.zeros(0, 0)) == ()


def test_snf_matches_minor_oracle_random():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        check_factors(RatMatrix.from_rows(rows))


def test_nullspace_char0():
    # rank = columns - len(kernel)
    assert len(nullspace(RatMatrix.zeros(2, 2).num)) == 2

    single_block = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    kern = nullspace(single_block, 0)
    assert 4 - len(kern) == 1
    for v in kern:
        out = [sum(row[j] * v[j] for j in range(4)) for row in single_block]
        assert all(x == 0 for x in out)


def test_nullspace_char_p():
    # [[2]] has rank 0 mod 2 and rank 1 mod 3
    assert nullspace([[2]], 2) == ((1,),)
    assert nullspace([[2]], 3) == ()


def test_nullspace_rejects_composite():
    with pytest.raises(CompositeCharacteristic):
        nullspace(RatMatrix.identity(2).num, 4)


def test_rank_consistent_with_snf():
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = RatMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        )
        rank = c - len(nullspace(m.num))
        assert rank == sum(1 for d in invariant_factors(m) if d != 0)


def test_jordan_partition_examples():
    assert nilpotent_jordan_partition(RatMatrix.zeros(4, 4)).parts == (1, 1, 1, 1)
    x = RatMatrix.from_rows(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    )
    assert nilpotent_jordan_partition(x).parts == (2, 2)
    assert nilpotent_jordan_partition(jordan_matrix(Partition.of([4]))).parts == (4,)


def test_jordan_partition_round_trip_small():
    for n in range(1, 7):
        for lam in Partition.all_of(n):
            assert nilpotent_jordan_partition(jordan_matrix(lam)) == lam


def test_jordan_partition_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_jordan_partition(RatMatrix.identity(3))


def test_partition_transpose_involution():
    for n in range(1, 7):
        for lam in Partition.all_of(n):
            assert lam.transpose().transpose() == lam
            assert lam.transpose().weight == lam.weight


def test_partition_label():
    assert Partition.of([2, 1, 1]).label() == "[2,1^2]"
    assert Partition.of([4]).label() == "[4]"


def test_matrix_text_round_trip():
    m = parse_matrix_text("0,1;0,0")
    assert m.num == ((0, 1), (0, 0))
    assert m.text() == "0,1;0,0"


def test_from_rows_takes_exact_entries_only():
    m = RatMatrix.from_rows([[Fraction(1, 2), "3/4"], [2, "-1"]])
    assert (m.num, m.den) == (((2, 3), (8, -4)), 4)
    assert m.text() == "1/2,3/4;2,-1"
    with pytest.raises(TypeError):
        RatMatrix.from_rows([[Fraction(1, 2), 2.7]])
    with pytest.raises(ValueError, match="ragged"):
        RatMatrix.from_rows([[0, 1], [0]])


def test_invariant_factors_refuse_a_non_integer_matrix():
    with pytest.raises(ValueError, match="integer"):
        invariant_factors(RatMatrix.from_rows([[1, "1/2"], [0, 1]]))
    # an integer matrix made by arithmetic on rationals has den = 1
    half = RatMatrix.from_rows([["1/2", 0], [0, "3/2"]])
    assert invariant_factors(half.scale(4)) == (2, 6)


def test_hermite_span_membership():
    h = hermite_rows([[2, 0], [0, 2], [1, 1]])
    assert in_hermite_span(h, (1, 1))
    assert in_hermite_span(h, (2, 0))
    assert not in_hermite_span(h, (1, 0))


def test_rat_matrix_arithmetic():
    a = RatMatrix.from_rows([[1, 0], [0, 1]])
    b = RatMatrix.from_rows([["1/2", 0], [0, "1/3"]])
    assert (a * b).entry(0, 0) == b.entry(0, 0)
    assert (b + b).entry(1, 1) == b.entry(1, 1) * 2
    assert (b - b).is_zero()


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_by_trial_division(n) for n in range(-3, 10**5))


@pytest.mark.parametrize("n", [2047, 1373653, 3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each is a strong pseudoprime to the first few prime bases
    assert not is_prime(n)


def test_is_prime_is_fast_and_bounded(deadline):
    with deadline(2):
        assert is_prime(2**61 - 1)
        assert is_prime(2**31 - 1)
        assert not is_prime((2**61 - 1) * (2**19 - 1))
    with pytest.raises(ValueError, match="below"):
        is_prime(PRIME_TEST_BOUND)
