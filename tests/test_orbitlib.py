import itertools
import random
import tracemalloc

import pytest

from gradedorbits.exactlin import DomainError, Partition, RatMatrix, parse_matrix_text
from gradedorbits.liegrade import build_algebra, graded_component
from gradedorbits import orbitlib
from gradedorbits.orbitlib import (
    MAX_GRADED_ORBITS,
    InvalidPartition,
    TooManyOrbits,
    UnsortedWeights,
    component_group,
    graded_orbit_reps_typeA,
    nilpotent_orbits,
    orbit_dimension,
)

from oracles import (
    dominance_leq,
    graded_orbit_count,
    graded_orbit_dimension,
    graded_orbit_levi_shape,
    interval_multiset_count,
    jordan_matrix,
    nilpotent_jordan_partition,
    partition_transpose,
)

P = Partition.of


def test_sp4_orbit_table():
    orbits = nilpotent_orbits("sp", 4)
    assert [o["partition"] for o in orbits] == [[4], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    assert [o["dim"] for o in orbits] == [8, 6, 4, 0]
    assert [o["component_group"] for o in orbits] == ["Z/2", "Z/2", "Z/2", "1"]


def test_sl4_orbit_table():
    orbits = nilpotent_orbits("sl", 4)
    assert [o["partition"] for o in orbits] == [
        [4],
        [3, 1],
        [2, 2],
        [2, 1, 1],
        [1, 1, 1, 1],
    ]
    assert [o["dim"] for o in orbits] == [12, 10, 8, 6, 0]
    assert [o["component_group"] for o in orbits] == ["Z/4", "1", "Z/2", "1", "1"]


def test_sl1_single_orbit():
    orbits = nilpotent_orbits("sl", 1)
    assert len(orbits) == 1
    assert orbits[0]["dim"] == 0


def test_orbit_dimension_examples():
    assert orbit_dimension("sl", P([3, 1])) == 10
    assert orbit_dimension("sp", P([2, 1, 1])) == 4
    assert orbit_dimension("sl", P([1, 1, 1, 1])) == 0
    assert orbit_dimension("sp", P([1, 1, 1, 1])) == 0


@pytest.mark.parametrize("kind", ["sl", "sp"])
def test_orbit_dimension_equals_the_transpose_formula(kind):
    # the formulas in the parts of the transpose lam' (Collingwood and
    # McGovern, Nilpotent Orbits in Semisimple Lie Algebras, 6.1):
    # n^2 - sum lam'_j^2 for sl_n, and m(2m + 1) - (sum lam'_j^2 + the
    # number of odd parts) / 2 for sp_2m
    for n in range(2 if kind == "sp" else 1, 21, 2 if kind == "sp" else 1):
        for lam in Partition.all_of(n):
            odd = [p for p in lam.parts if p % 2]
            if kind == "sp" and any(odd.count(p) % 2 for p in odd):
                continue
            squares = sum(t * t for t in partition_transpose(lam.parts))
            m = n // 2
            want = n * n - squares if kind == "sl" else m * (2 * m + 1) - (squares + len(odd)) // 2
            assert orbit_dimension(kind, lam) == want, lam


def test_orbit_dimensions_even():
    for kind, n in [("sl", 4), ("sl", 5), ("sp", 4), ("sp", 6)]:
        for orbit in nilpotent_orbits(kind, n):
            assert orbit["dim"] % 2 == 0


def test_invalid_sp_partition():
    for compute in (orbit_dimension, component_group):
        with pytest.raises(InvalidPartition, match="odd parts must have even multiplicity for sp"):
            compute("sp", P([3, 1]))


@pytest.mark.parametrize("kind", ["sl", "sp"])
@pytest.mark.parametrize("compute", [orbit_dimension, component_group])
def test_empty_partition_has_no_orbit(compute, kind):
    # it would give the component group Z/0 and dimension 0
    with pytest.raises(InvalidPartition, match="the empty partition"):
        compute(kind, P([]))


@pytest.mark.parametrize("kind", ["sl", "sp"])
@pytest.mark.parametrize("n", [0, -2])
def test_nilpotent_orbits_refuse_n_below_one(kind, n):
    # n = 0 would list the empty partition with the component group Z/0
    with pytest.raises(DomainError, match=f"n must be at least 1, got {n}") as err:
        nilpotent_orbits(kind, n)
    assert err.value.param == "n"


def test_component_group_examples():
    assert component_group("sl", P([4])) == ("Z/4", 4)
    assert component_group("sp", P([2, 2])) == ("Z/2", 2)
    assert component_group("sl", P([3, 1])) == ("1", 1)
    assert component_group("sp", P([4, 2])) == ("(Z/2)^2", 4)


def test_closure_leq_examples():
    assert dominance_leq((2, 1, 1), (2, 2))
    assert dominance_leq((2, 2), (2, 2))
    assert not dominance_leq((4,), (2, 2))
    with pytest.raises(ValueError, match="same weight"):
        dominance_leq((2,), (1, 1, 1))


def test_dominance_matches_bruteforce():
    """Closure order is dominance order: transposing reverses it, and an
    orbit in the closure of another has no larger dimension, strictly
    smaller when it is another orbit."""
    for n in range(1, 7):
        parts = Partition.all_of(n)
        for lam, mu in itertools.product(parts, parts):
            leq = dominance_leq(lam.parts, mu.parts)
            assert leq == dominance_leq(partition_transpose(mu.parts), partition_transpose(lam.parts))
            if leq and lam != mu:
                assert orbit_dimension("sl", lam) < orbit_dimension("sl", mu)


def test_jordan_round_trip_through_orbits():
    for kind, n in [("sl", 4), ("sp", 4), ("sl", 5)]:
        for orbit in nilpotent_orbits(kind, n):
            lam = P(orbit["partition"])
            assert nilpotent_jordan_partition(jordan_matrix(lam)) == lam


CHI = (1, 0, 0, -1)


def test_graded_orbits_rank_one_slice():
    reps = graded_orbit_reps_typeA(CHI, -1)
    assert len(reps) == 5
    decs = {tuple(map(tuple, r["decomposition"])) for r in reps}
    assert decs == {
        ((1, 2), (2, 2), (3, 3)),
        ((1, 2), (2, 3)),
        ((1, 3), (2, 2)),
        ((1, 1), (2, 2), (2, 3)),
        ((1, 1), (2, 2), (2, 2), (3, 3)),
    }
    dims = {tuple(map(tuple, r["decomposition"])): r["dim"] for r in reps}
    assert dims[((1, 2), (2, 2), (3, 3))] == 2
    assert dims[((1, 2), (2, 3))] == 3
    assert dims[((1, 3), (2, 2))] == 4
    assert dims[((1, 1), (2, 2), (2, 3))] == 2
    assert dims[((1, 1), (2, 2), (2, 2), (3, 3))] == 0


def test_graded_orbits_sl2():
    reps = graded_orbit_reps_typeA((1, -1), -2)
    assert len(reps) == 2
    assert sorted(r["dim"] for r in reps) == [0, 1]


def test_graded_orbits_positive_degree():
    # positive degrees walk the blocks upward; same orbit count as degree -1
    reps = graded_orbit_reps_typeA(CHI, 1)
    assert len(reps) == 5
    assert sorted(r["dim"] for r in reps) == [0, 2, 2, 3, 4]
    for rep in reps:
        x = parse_matrix_text(rep["representative"])
        for i in range(4):
            for j in range(4):
                if x.num[i][j]:
                    assert CHI[i] - CHI[j] == 1


def test_graded_orbits_degree_minus_two():
    reps = graded_orbit_reps_typeA(CHI, -2)
    assert len(reps) == 2
    dims = sorted(r["dim"] for r in reps)
    assert dims[0] == 0
    sl4 = build_algebra("sl", 4)
    assert len(graded_component(sl4, CHI, -2)) == 1


def test_graded_orbits_unsorted_rejected():
    with pytest.raises(UnsortedWeights):
        graded_orbit_reps_typeA((0, 1, 0, -1), -1)


def test_open_orbit_has_full_dimension():
    sl4 = build_algebra("sl", 4)
    reps = graded_orbit_reps_typeA(CHI, -1)
    top = max(r["dim"] for r in reps)
    assert top == len(graded_component(sl4, CHI, -1))


def test_graded_orbit_dimension_errors():
    sl4 = build_algebra("sl", 4)
    outside = RatMatrix.from_rows(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    with pytest.raises(ValueError):
        graded_orbit_dimension(sl4, CHI, -1, outside)
    zero = RatMatrix.zeros(4, 4)
    assert graded_orbit_dimension(sl4, CHI, -1, zero) == 0


def test_decomposition_coverage_matches_block_dims():
    for rep in graded_orbit_reps_typeA(CHI, -1):
        coverage = {1: 0, 2: 0, 3: 0}
        for a, b in rep["decomposition"]:
            for blk in range(a, b + 1):
                coverage[blk] += 1
        assert coverage == {1: 1, 2: 2, 3: 1}


def test_component_group_invertible_at_allowed_primes():
    from gradedorbits.rootdata import prime_report

    for kind, n in [("sp", 4), ("sl", 4)]:
        excluded = set(prime_report(kind, n)["pretty_good_excluded"])
        allowed = [p for p in (2, 3, 5, 7, 11, 13) if p not in excluded]
        for orbit in nilpotent_orbits(kind, n):
            for p in allowed:
                assert orbit["component_group_order"] % p != 0


def test_representatives_live_in_component_and_are_nilpotent():
    for rep in graded_orbit_reps_typeA(CHI, -1):
        mat = parse_matrix_text(rep["representative"])
        for i in range(4):
            for j in range(4):
                if mat.num[i][j] != 0:
                    assert CHI[i] - CHI[j] == -1
        nilpotent_jordan_partition(mat)  # raises if not nilpotent


def seeded_cocharacters(count=150, seed=6):
    """Distinct (weakly decreasing zero-sum weights, degree) pairs with
    d = 3..9, weights in -3..3 and degree in {1, -1, 2, -2}."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        w = [rng.randint(-3, 3) for _ in range(rng.randint(2, 8))]
        if -3 <= -sum(w) <= 3:
            out[(tuple(sorted(w + [-sum(w)], reverse=True)), rng.choice((1, -1, 2, -2)))] = None
    return [(tuple(w), n) for w, n in out]


SEEDED = seeded_cocharacters()


def test_representatives_are_partial_permutations():
    # each coordinate lies on one segment, so x has at most one 1 in each
    # row and column, and its text is a join of all-zero and single-1 rows
    for chi, n in SEEDED:
        for rep in graded_orbit_reps_typeA(chi, n):
            text = rep["representative"]
            x = parse_matrix_text(text)
            assert x.den == 1 and all(v in (0, 1) for row in x.num for v in row), text
            assert all(sum(row) <= 1 for row in x.num), text
            assert all(sum(col) <= 1 for col in zip(*x.num)), text
            assert x.text() == text


def test_closed_forms_match_the_solver_oracle():
    assert len(SEEDED) >= 150
    orbits = 0
    for chi, n in SEEDED:
        alg = build_algebra("sl", len(chi))
        for rep in graded_orbit_reps_typeA(chi, n):
            x = parse_matrix_text(rep["representative"])
            assert rep["dim"] == graded_orbit_dimension(alg, chi, n, x), (chi, n, rep)
            levi = graded_orbit_levi_shape(alg, chi, n, x)
            assert tuple(rep["levi_blocks"]) == levi, (chi, n, rep)
            orbits += 1
    assert orbits > 800


def test_orbit_count_matches_enumeration():
    for chi, n in SEEDED + [(CHI, -1), (CHI, 1), (CHI, -2)]:
        assert graded_orbit_count(chi, n) == len(graded_orbit_reps_typeA(chi, n))


def test_orbit_count_at_the_bound(monkeypatch):
    assert MAX_GRADED_ORBITS == 10_000
    # one chain of block sizes 2, 2, 5, 4, 5, 5: exactly the bound
    count, listed = orbitlib._listed_multisets([[2, 2, 5, 4, 5, 5]], MAX_GRADED_ORBITS)
    assert count == 10_000 and list(map(len, listed)) == [10_000]
    # one chain of block sizes 1, 7, 4, 3, 7, 7: 10,080 orbits
    above = [1, 7, 4, 3, 7, 7]
    assert orbitlib._listed_multisets([above], MAX_GRADED_ORBITS) == (None, None)
    monkeypatch.setattr(orbitlib, "MAX_GRADED_ORBITS", 20_000)
    count, listed = orbitlib._listed_multisets([above], 20_000)
    assert count == 10_080 and list(map(len, listed)) == [10_080]


def test_too_many_orbits_rejected_before_enumeration(no_rows_built):
    above = tuple([3] + [2] * 7 + [1] * 4 + [0] * 3 + [-1] * 7 + [-2] * 7)
    with pytest.raises(TooManyOrbits, match="more than 10000"):
        graded_orbit_reps_typeA(above, -1)
    assert no_rows_built == [MAX_GRADED_ORBITS + 1]
    # a chain of 201 single weights has 2^200 orbits: refused unwalked
    no_rows_built.clear()
    with pytest.raises(TooManyOrbits, match="more than 10000"):
        graded_orbit_reps_typeA(tuple(range(100, -101, -1)), -1)
    assert no_rows_built == []
    # 15 single weights have 2^14 > 10,000 orbits: refused unwalked; 14 have
    # 2^13, so they are listed and their rows built
    with pytest.raises(TooManyOrbits, match="more than 10000"):
        graded_orbit_reps_typeA(tuple(range(7, -8, -1)), -1)
    assert no_rows_built == []
    with pytest.raises(AssertionError, match="rows were built"):
        graded_orbit_reps_typeA(tuple(range(13, -14, -2)), -2)
    assert no_rows_built == [2**13]
    no_rows_built.clear()
    # orbits x d^2 above MAX_GRADED_CELLS; at the bound the rows are built
    assert orbitlib.MAX_GRADED_CELLS == 2300**2
    with pytest.raises(TooManyOrbits, match="5294601 cells"):
        graded_orbit_reps_typeA((0,) * 2301, 1)
    with pytest.raises(AssertionError, match="rows were built"):
        graded_orbit_reps_typeA((0,) * 2300, 1)
    assert no_rows_built == [1, 1]


def test_orbit_count_work_is_bounded(deadline, no_rows_built):
    # four blocks of 300 in one chain: short, so 2^(k-1) does not decide,
    # and the full listing would be millions of multisets
    with deadline(5):
        with pytest.raises(TooManyOrbits, match="more than 10000"):
            graded_orbit_reps_typeA((3,) * 300 + (1,) * 300 + (-1,) * 300 + (-3,) * 300, -2)
    assert no_rows_built == [MAX_GRADED_ORBITS + 1]


def test_refusal_work_does_not_grow_with_the_block_sizes(monkeypatch):
    # one chain of blocks b, 36, b in degree -1 has C(39, 3) = 9,139 orbits
    # for every b >= 36 (the counts of [1, 2], [1, 3], [2, 3] and [2] sum
    # to 36), too many cells to print at d = 2b + 36.  Each multiset lists
    # its distinct segments with their multiplicities, so the segment
    # entries built are the same at d = 40,036 and at d = 200,036
    listing = orbitlib._interval_multisets
    entries = []

    def counted(dims):
        for multiset in listing(dims):
            entries.append(len(multiset))
            yield multiset

    monkeypatch.setattr(orbitlib, "_interval_multisets", counted)
    built = []
    for b in (20_000, 100_000):
        entries.clear()
        with pytest.raises(TooManyOrbits, match=f"9139 orbit.s. of {2 * b + 36}x"):
            graded_orbit_reps_typeA((1,) * b + (0,) * 36 + (-1,) * b, -1)
        built.append((len(entries), sum(entries)))
    assert built[0] == built[1]
    assert built[0][0] == 9_139 and built[0][1] <= 6 * 9_139


def test_refused_listing_keeps_no_unprintable_multiset():
    # four blocks of 300 at d = 1,200: 3 orbits at most could be printed, so
    # the 10,001 multisets listed before the refusal are counted, not kept
    chi = (3,) * 300 + (1,) * 300 + (-1,) * 300 + (-3,) * 300
    tracemalloc.start()
    try:
        with pytest.raises(TooManyOrbits, match="more than 10000"):
            graded_orbit_reps_typeA(chi, -2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_capped_listing_is_exact(monkeypatch):
    # every chain of up to 3 positions of up to 3, with room for one
    # multiset fewer than it has, exactly as many, and one more; and with
    # one printable orbit fewer than it has, or as many
    for k in range(1, 4):
        for dims in itertools.product(range(1, 4), repeat=k):
            count = interval_multiset_count(dims)
            everything = list(orbitlib._interval_multisets(dims))
            for room in (count - 1, count, count + 1):
                if room >= 1:
                    monkeypatch.setattr(orbitlib, "MAX_GRADED_ORBITS", room)
                    for printable in (count - 1, count):
                        got = orbitlib._listed_multisets([dims], printable)
                        want = (count, [everything[:printable]])
                        assert got == ((None, None) if count > room else want), (dims, room)
    # the second chain keeps a multiset while its number times the first
    # chain's count is printable: 2 x 1 <= 3 < 2 x 2
    monkeypatch.setattr(orbitlib, "MAX_GRADED_ORBITS", 4)
    two = list(orbitlib._interval_multisets([1, 1]))
    assert len(two) == 2
    assert orbitlib._listed_multisets([[1, 1], [1, 1]], 3) == (4, [two, two[:1]])


def test_two_chains_decided_by_their_product():
    # 89 x 112 = 9,968 orbits at d = 23: every chain and the product fit
    fits = (13,) * 2 + (12,) * 3 + (11,) * 4 + (10,) * 2
    fits += (-9,) * 3 + (-10,) * 3 + (-11,) * 3 + (-12,) * 3
    assert graded_orbit_count(fits, -1) == 89 * 112
    assert len(graded_orbit_reps_typeA(fits, -1)) == 9_968
    # 60 x 167 = 10,020 orbits at d = 24: each chain fits, the product does not
    over = (6,) + (5,) * 4 + (4,) * 3 + (3,) * 3 + (-2,) * 2 + (-3,) * 4 + (-4,) * 4 + (-5,) * 3
    assert graded_orbit_count(over, -1) == 60 * 167
    with pytest.raises(TooManyOrbits, match="more than 10000 orbits"):
        graded_orbit_reps_typeA(over, -1)


def test_empty_cocharacter_has_one_empty_orbit():
    # d = 0: one orbit, and the cap on kept multisets must not divide by d²
    assert graded_orbit_reps_typeA((), 1) == [
        {"decomposition": [], "label": "", "representative": "", "dim": 0, "levi_blocks": []}
    ]


def test_graded_orbits_need_zero_sum_and_nonzero_degree():
    with pytest.raises(ValueError, match="sum to zero"):
        graded_orbit_reps_typeA((1, 0, 0), -1)
    with pytest.raises(ValueError, match="degree must be nonzero"):
        graded_orbit_reps_typeA(CHI, 0)
