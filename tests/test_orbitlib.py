import itertools
import random

import pytest

from gradedorbits.exactlin import Partition, RatMatrix
from gradedorbits.liegrade import Cocharacter, build_algebra, graded_component
from gradedorbits import orbitlib
from gradedorbits.orbitlib import (
    MAX_GRADED_ORBITS,
    InvalidPartition,
    TooManyOrbits,
    UnsortedWeights,
    component_group,
    graded_orbit_count,
    graded_orbit_reps_typeA,
    nilpotent_orbits,
    orbit_dimension,
)

from oracles import (
    dominance_leq,
    graded_orbit_dimension,
    graded_orbit_levi_shape,
    jordan_matrix,
    nilpotent_jordan_partition,
)

P = Partition.of


def test_sp4_orbit_table():
    orbits = nilpotent_orbits("sp", 4)
    assert [o.partition.parts for o in orbits] == [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [o.dimension for o in orbits] == [8, 6, 4, 0]
    assert [o.component_group.label() for o in orbits] == ["Z/2", "Z/2", "Z/2", "1"]


def test_sl4_orbit_table():
    orbits = nilpotent_orbits("sl", 4)
    assert [o.partition.parts for o in orbits] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert [o.dimension for o in orbits] == [12, 10, 8, 6, 0]
    assert [o.component_group.label() for o in orbits] == ["Z/4", "1", "Z/2", "1", "1"]


def test_sl1_single_orbit():
    orbits = nilpotent_orbits("sl", 1)
    assert len(orbits) == 1
    assert orbits[0].dimension == 0


def test_orbit_dimension_examples():
    assert orbit_dimension("sl", P([3, 1])) == 10
    assert orbit_dimension("sp", P([2, 1, 1])) == 4
    assert orbit_dimension("sl", P([1, 1, 1, 1])) == 0
    assert orbit_dimension("sp", P([1, 1, 1, 1])) == 0


def test_orbit_dimensions_even():
    for kind, n in [("sl", 4), ("sl", 5), ("sp", 4), ("sp", 6)]:
        for orbit in nilpotent_orbits(kind, n):
            assert orbit.dimension % 2 == 0


def test_invalid_sp_partition():
    with pytest.raises(InvalidPartition):
        orbit_dimension("sp", P([3, 1]))


def test_component_group_examples():
    assert component_group("sl", P([4])).label() == "Z/4"
    assert component_group("sp", P([2, 2])).label() == "Z/2"
    assert component_group("sl", P([3, 1])).label() == "1"
    assert component_group("sp", P([4, 2])).parameter == 2


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
            assert leq == dominance_leq(mu.transpose().parts, lam.transpose().parts)
            if leq and lam != mu:
                assert orbit_dimension("sl", lam) < orbit_dimension("sl", mu)


def test_jordan_round_trip_through_orbits():
    for kind, n in [("sl", 4), ("sp", 4), ("sl", 5)]:
        for orbit in nilpotent_orbits(kind, n):
            rep = jordan_matrix(orbit.partition)
            assert nilpotent_jordan_partition(rep) == orbit.partition


CHI = Cocharacter.of([1, 0, 0, -1])


def test_graded_orbits_rank_one_slice():
    reps = graded_orbit_reps_typeA(CHI, -1)
    assert len(reps) == 5
    decs = {r.decomposition for r in reps}
    assert decs == {
        ((1, 2), (2, 2), (3, 3)),
        ((1, 2), (2, 3)),
        ((1, 3), (2, 2)),
        ((1, 1), (2, 2), (2, 3)),
        ((1, 1), (2, 2), (2, 2), (3, 3)),
    }
    dims = {r.decomposition: r.dimension for r in reps}
    assert dims[((1, 2), (2, 2), (3, 3))] == 2
    assert dims[((1, 2), (2, 3))] == 3
    assert dims[((1, 3), (2, 2))] == 4
    assert dims[((1, 1), (2, 2), (2, 3))] == 2
    assert dims[((1, 1), (2, 2), (2, 2), (3, 3))] == 0


def test_graded_orbits_sl2():
    reps = graded_orbit_reps_typeA(Cocharacter.of([1, -1]), -2)
    assert len(reps) == 2
    assert sorted(r.dimension for r in reps) == [0, 1]


def test_graded_orbits_positive_degree():
    # positive degrees walk the blocks upward; same orbit count as degree -1
    reps = graded_orbit_reps_typeA(CHI, 1)
    assert len(reps) == 5
    assert sorted(r.dimension for r in reps) == [0, 2, 2, 3, 4]
    for rep in reps:
        for i in range(4):
            for j in range(4):
                if rep.representative.num[i][j]:
                    assert CHI.weights[i] - CHI.weights[j] == 1


def test_graded_orbits_degree_minus_two():
    reps = graded_orbit_reps_typeA(CHI, -2)
    assert len(reps) == 2
    dims = sorted(r.dimension for r in reps)
    assert dims[0] == 0
    sl4 = build_algebra("sl", 4)
    assert graded_component(sl4, CHI, -2).dimension == 1


def test_graded_orbits_unsorted_rejected():
    with pytest.raises(UnsortedWeights):
        graded_orbit_reps_typeA(Cocharacter.of([0, 1, 0, -1]), -1)


def test_open_orbit_has_full_dimension():
    sl4 = build_algebra("sl", 4)
    reps = graded_orbit_reps_typeA(CHI, -1)
    top = max(r.dimension for r in reps)
    assert top == graded_component(sl4, CHI, -1).dimension


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
        for a, b in rep.decomposition:
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
                assert orbit.component_group.order % p != 0


def test_representatives_live_in_component_and_are_nilpotent():
    for rep in graded_orbit_reps_typeA(CHI, -1):
        mat = rep.representative
        for i in range(4):
            for j in range(4):
                if mat.num[i][j] != 0:
                    assert CHI.weights[i] - CHI.weights[j] == -1
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
    return [(Cocharacter.of(w), n) for w, n in out]


SEEDED = seeded_cocharacters()


def test_closed_forms_match_the_solver_oracle():
    assert len(SEEDED) >= 150
    orbits = 0
    for chi, n in SEEDED:
        alg = build_algebra("sl", len(chi))
        for rep in graded_orbit_reps_typeA(chi, n):
            x = rep.representative
            assert rep.dimension == graded_orbit_dimension(alg, chi, n, x), (chi, n, rep)
            assert rep.levi_shape == graded_orbit_levi_shape(alg, chi, n, x), (chi, n, rep)
            orbits += 1
    assert orbits > 800


def test_orbit_count_matches_enumeration():
    for chi, n in SEEDED + [(CHI, -1), (CHI, 1), (CHI, -2)]:
        assert graded_orbit_count(chi, n) == len(graded_orbit_reps_typeA(chi, n))


def test_orbit_count_at_the_bound(monkeypatch):
    assert MAX_GRADED_ORBITS == 10_000
    # one chain of block sizes 2, 2, 5, 4, 5, 5: exactly the bound
    at_bound = Cocharacter.of([3] * 2 + [2] * 2 + [1] * 5 + [0] * 4 + [-1] * 5 + [-2] * 5)
    assert graded_orbit_count(at_bound, -1) == 10_000
    # one chain of block sizes 1, 7, 4, 3, 7, 7: 10,080 orbits
    above = Cocharacter.of([3] + [2] * 7 + [1] * 4 + [0] * 3 + [-1] * 7 + [-2] * 7)
    assert graded_orbit_count(above, -1) == MAX_GRADED_ORBITS + 1
    monkeypatch.setattr(orbitlib, "MAX_GRADED_ORBITS", 20_000)
    assert graded_orbit_count(above, -1) == 10_080


def test_too_many_orbits_rejected_before_enumeration(monkeypatch):
    def enumerate_nothing(dims):
        raise AssertionError("the orbits were enumerated")

    monkeypatch.setattr(orbitlib, "_interval_multisets", enumerate_nothing)
    above = Cocharacter.of([3] + [2] * 7 + [1] * 4 + [0] * 3 + [-1] * 7 + [-2] * 7)
    with pytest.raises(TooManyOrbits, match="more than 10000"):
        graded_orbit_reps_typeA(above, -1)
    # a chain of 201 single weights has 2^200 orbits; no recursion that deep
    long_chain = Cocharacter.of(range(100, -101, -1))
    assert graded_orbit_count(long_chain, -1) == MAX_GRADED_ORBITS + 1
    with pytest.raises(TooManyOrbits):
        graded_orbit_reps_typeA(long_chain, -1)
    # orbits x d^2 above MAX_GRADED_CELLS; at the bound the enumeration starts
    assert orbitlib.MAX_GRADED_CELLS == 2300**2
    with pytest.raises(TooManyOrbits, match="5294601 cells"):
        graded_orbit_reps_typeA(Cocharacter.of([0] * 2301), 1)
    with pytest.raises(AssertionError, match="enumerated"):
        graded_orbit_reps_typeA(Cocharacter.of([0] * 2300), 1)


def test_orbit_count_work_is_bounded(deadline):
    # four blocks of 300 in one chain: short, so 2^(k-1) does not decide,
    # and the exact count would take millions of memoised states
    with deadline(5):
        count = orbitlib._interval_multiset_count([300] * 4, MAX_GRADED_ORBITS)
    assert count == MAX_GRADED_ORBITS + 1


def test_graded_orbits_need_zero_sum_and_nonzero_degree():
    with pytest.raises(ValueError, match="sum to zero"):
        graded_orbit_reps_typeA(Cocharacter.of([1, 0, 0]), -1)
    with pytest.raises(ValueError, match="degree must be nonzero"):
        graded_orbit_count(CHI, 0)
