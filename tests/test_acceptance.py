"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import random
import time

from gradedorbits import cli
from gradedorbits.cohom import counting_polynomial, load_case, stalk_table
from gradedorbits.exactlin import (
    Partition,
    RatMatrix,
    parse_matrix_text,
)
from gradedorbits.ffgeom import gaussian_binomial, verify_fiber_counts
from gradedorbits.liegrade import (
    Sl2Triple,
    adapted_sl2_triple,
    build_algebra,
    canonical_parabolic,
    check_n_rigid,
    chi_prime,
    graded_component,
    weight_matrix,
)
from gradedorbits.orbitlib import graded_orbit_reps_typeA, nilpotent_orbits, orbit_dimension
from gradedorbits.rootdata import prime_report

from oracles import (
    RootDatum,
    closed_subsystems,
    dense_bracket,
    dominance_leq,
    in_span_by_rref,
    invariant_factors,
    jordan_matrix,
    nilpotent_jordan_partition,
    parity_violations,
    partition_transpose,
    poly_at,
    poly_text,
    snf_invariant_factors_by_minors,
    standard_root_datum,
    whole_algebra,
    x_quotient_rows,
    y_quotient_rows,
)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


CHI = (1, 0, 0, -1)


def test_criterion_1_orbit_tables(capsys):
    start = time.perf_counter()
    sp4 = nilpotent_orbits("sp", 4)
    assert [o["partition"] for o in sp4] == [[4], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    assert [o["dim"] for o in sp4] == [8, 6, 4, 0]
    assert [o["component_group"] for o in sp4] == ["Z/2", "Z/2", "Z/2", "1"]
    sl4 = nilpotent_orbits("sl", 4)
    assert [o["dim"] for o in sl4] == [12, 10, 8, 6, 0]
    assert [o["component_group"] for o in sl4] == ["Z/4", "1", "Z/2", "1", "1"]
    assert cli.run(["orbits", "--type", "sp", "--n", "4", "--quiet"]) == 0
    assert cli.run(["orbits", "--type", "sl", "--n", "4", "--quiet"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"orbit tables reproduced exactly in {elapsed:.3f}s")


WEIGHT_MATRIX = (
    (0, 1, 1, 2),
    (-1, 0, 0, 1),
    (-1, 0, 0, 1),
    (-2, -1, -1, 0),
)
SECOND_WEIGHT_MATRIX = (
    (0, -2, 0, -2),
    (2, 0, 2, 0),
    (0, -2, 0, -2),
    (2, 0, 2, 0),
)
COMBINED = (
    (0, 0, 2, 2),
    (0, 0, 2, 2),
    (-2, -2, 0, 0),
    (-2, -2, 0, 0),
)


def test_criterion_2_grading_example(capsys):
    assert weight_matrix(CHI).num == WEIGHT_MATRIX
    assert (
        cli.run(
            ["grading", "--type", "sl", "--d", "4", "--cochar", "1,0,0,-1",
             "--degree", "2", "--json"]
        )
        == 0
    )
    import json as _json

    payload = _json.loads(capsys.readouterr().out)
    assert payload["weight_matrix"] == "0,1,1,2;-1,0,0,1;-1,0,0,1;-2,-1,-1,0"
    sl4 = build_algebra("sl", 4)
    x = parse_matrix_text("0,0,0,0;1,0,0,0;0,0,0,0;0,0,1,0")
    triple = adapted_sl2_triple(sl4, CHI, -1, x)
    weights = chi_prime(triple, CHI)
    assert weights == (-1, 1, -1, 1)
    assert weight_matrix(weights).num == SECOND_WEIGHT_MATRIX
    datum = canonical_parabolic(sl4, CHI, triple, -1)
    assert datum.indicator.num == COMBINED
    report(2, "weight matrices, chi-prime, and the combined indicator match exactly")


# Table rows: decomposition -> (dim, levi shape).  The Levi shapes are the
# rigidity-canonical construction values; see the project notes for the two
# upstream cells these correct.
EXPECTED_ROWS = {
    ((1, 2), (2, 2), (3, 3)): (2, (2, 1, 1)),
    ((1, 2), (2, 3)): (3, (2, 2)),
    ((1, 3), (2, 2)): (4, (4,)),
    ((1, 1), (2, 2), (2, 3)): (2, (1, 1, 2)),
    ((1, 1), (2, 2), (2, 2), (3, 3)): (0, (1, 2, 1)),
}


def _levi_for(rep, alg):
    x = parse_matrix_text(rep["representative"])
    if x.is_zero():
        triple = Sl2Triple.zero(4)
    else:
        triple = adapted_sl2_triple(alg, CHI, -1, x)
    return canonical_parabolic(alg, CHI, triple, -1), triple


def test_criterion_3_graded_orbit_table():
    start = time.perf_counter()
    assert (
        cli.run(["graded-orbits", "--cochar", "1,0,0,-1", "--degree", "-1", "--quiet"])
        == 0
    )
    reps = graded_orbit_reps_typeA(CHI, -1)
    assert len(reps) == 5
    alg = build_algebra("sl", 4)
    seen = {}
    for rep in reps:
        datum, _ = _levi_for(rep, alg)
        seen[tuple(map(tuple, rep["decomposition"]))] = (rep["dim"], datum.levi_block_shape)
    assert seen == EXPECTED_ROWS
    assert sorted((d for d, _ in seen.values()), reverse=True) == [4, 3, 2, 2, 0]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"five graded orbits with dims (2,3,4,2,0) and Levi shapes in {elapsed:.3f}s")


CLASSICAL_CASES = [
    # (kind, representative text, cocharacter, degree)
    ("sp", "0,1,0,0;0,0,0,1;0,0,0,0;0,0,-1,0", (3, 1, -3, -1), 2),
    ("sp", "0,0,1,0;0,0,0,1;0,0,0,0;0,0,0,0", (1, 1, -1, -1), 2),
    ("sp", "0,0,1,0;0,0,0,0;0,0,0,0;0,0,0,0", (1, 0, -1, 0), 2),
    ("sl", "0,1,0,0;0,0,1,0;0,0,0,1;0,0,0,0", (3, 1, -1, -3), 2),
    ("sl", "0,1,0,0;0,0,1,0;0,0,0,0;0,0,0,0", (2, 0, -2, 0), 2),
    ("sl", "0,1,0,0;0,0,0,0;0,0,0,1;0,0,0,0", (1, -1, 1, -1), 2),
    ("sl", "0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0", (1, -1, 0, 0), 2),
]


def _check_triple_placement(alg, chi, n, triple):
    assert triple.bracket_relations_hold()
    for mat, degree in ((triple.e, n), (triple.h, 0), (triple.f, -n)):
        assert in_span_by_rref(graded_component(alg, chi, degree), mat)


def test_criterion_4_triples_and_rigidity():
    alg4 = build_algebra("sl", 4)
    # every nonzero representative of the graded table
    reps = graded_orbit_reps_typeA(CHI, -1)
    for rep in reps:
        x = parse_matrix_text(rep["representative"])
        if x.is_zero():
            triple = Sl2Triple.zero(4)
        else:
            triple = adapted_sl2_triple(alg4, CHI, -1, x)
            _check_triple_placement(alg4, CHI, -1, triple)
        datum = canonical_parabolic(alg4, CHI, triple, -1)
        assert check_n_rigid(datum, triple, -1, datum.cells("l")) is None
    # every classical nilpotent representative under its natural grading
    for kind, text, cochar, degree in CLASSICAL_CASES:
        alg = build_algebra(kind, 4)
        chi = tuple(cochar)
        x = parse_matrix_text(text)
        triple = adapted_sl2_triple(alg, chi, degree, x)
        _check_triple_placement(alg, chi, degree, triple)
    # the full algebra is not rigid, with a concrete witness cell
    x = parse_matrix_text("0,0,0,0;1,0,0,0;0,0,0,0;0,0,1,0")
    triple = adapted_sl2_triple(alg4, CHI, -1, x)
    every_cell = [(i, j) for i in range(4) for j in range(4)]
    datum = canonical_parabolic(alg4, CHI, triple, -1)
    assert check_n_rigid(datum, triple, -1, every_cell) == (0, 1)
    report(4, "all graded triples verified exactly; Levi data rigid; full algebra witness (m,m')=(0,1)")


def _torsion_primes_via_oracle(rows):
    facs = snf_invariant_factors_by_minors([list(r) for r in rows]) if rows else ()
    primes = set()
    for d in facs:
        if d in (0, 1):
            continue
        n, p = abs(d), 2
        while p * p <= n:
            while n % p == 0:
                primes.add(p)
                n //= p
            p += 1
        if n > 1:
            primes.add(n)
    return primes


def test_criterion_5_prime_classifiers():
    sp4 = standard_root_datum("sp", 4)
    sl4 = standard_root_datum("sl", 4)
    rep_sp = prime_report("sp", 4)
    rep_sl = prime_report("sl", 4)
    assert rep_sp["pretty_good_excluded"] == [2]
    assert rep_sp["rather_good_excluded"] == [2]
    assert rep_sl["pretty_good_excluded"] == [2]
    assert rep_sl["rather_good_excluded"] == [2]
    for n in range(2, 6):
        assert prime_report("sl", n)["torsion"] == []
    assert rep_sp["torsion"] == [2]
    # independent verification with the minor-gcd SNF on the lattice quotients
    for rd, expected in ((sp4, rep_sp), (sl4, rep_sl)):
        x_side = set()
        for sub in closed_subsystems(rd):
            x_side |= _torsion_primes_via_oracle(
                x_quotient_rows(rd, sub.member_indices)
            )
        dual = RootDatum(
            kind=rd.kind,
            ambient_rank=rd.ambient_rank,
            roots=rd.coroots,
            coroots=rd.roots,
            x_relations=(),
            y_basis=rd.y_basis,
        )
        y_side = set()
        for sub in closed_subsystems(dual):
            y_side |= _torsion_primes_via_oracle(
                y_quotient_rows(rd, sub.member_indices)
            )
        assert sorted(y_side) == expected["torsion"]
        assert sorted(x_side | y_side) == expected["pretty_good_excluded"]
    report(5, "prime classifiers match and agree with the independent minor-gcd oracle")


SP4_FULL_POLYS = {
    "[4]": "1",
    "[2^2]": "q+1",
    "[2,1^2]": "q^2+q+1",
    "[1^4]": "q^3+q^2+q+1",
}
SL4_FULL_POLYS = {
    "[4]": "1",
    "[3,1]": "q+1",
    "[2^2]": "q^2+q+1",
    "[2,1^2]": "2q^2+q+1",
    "[1^4]": "q^4+q^3+2q^2+q+1",
}
SP4_CUSPIDAL_POLYS = {"[4]": "1", "[2^2]": "q-1", "[2,1^2]": "q^2+q", "[1^4]": "0"}
SL4_CUSPIDAL_POLYS = {
    "[4]": "1",
    "[3,1]": "q-1",
    "[2^2]": "q^2+q",
    "[2,1^2]": "0",
    "[1^4]": "0",
}


def test_criterion_6_fiber_point_counts():
    start = time.perf_counter()
    sp4 = load_case("sp4")
    sl4 = load_case("sl4")
    for case, full_polys, cusp_polys in (
        (sp4, SP4_FULL_POLYS, SP4_CUSPIDAL_POLYS),
        (sl4, SL4_FULL_POLYS, SL4_CUSPIDAL_POLYS),
    ):
        for orbit in case.orbits:
            label = orbit.partition.label()
            assert poly_text(counting_polynomial(orbit.full_fiber)) == full_polys[label]
            cusp = (
                poly_text(counting_polynomial(orbit.cuspidal_part))
                if orbit.cuspidal_part is not None
                else "0"
            )
            assert cusp == cusp_polys[label]
    assert poly_text(counting_polynomial(sl4.orbits[-1].full_fiber)) == SL4_FULL_POLYS["[1^4]"]
    assert poly_at(counting_polynomial(sl4.orbits[-1].full_fiber), 2) == gaussian_binomial(4, 2, 2)

    report_sp = verify_fiber_counts(sp4, [3, 5])
    assert report_sp["all_match"]
    rows = {(r["orbit"], r["prime"], r["stratum"]): r["count"] for r in report_sp["rows"]}
    assert rows[("[2^2]", 5, "zero")] == 2
    assert rows[("[2^2]", 3, "zero")] == 0
    assert rows[("[2^2]", 5, "cuspidal")] == 4
    assert rows[("[2^2]", 3, "cuspidal")] == 4
    report_sl = verify_fiber_counts(sl4, [2, 3, 5])
    assert report_sl["all_match"]
    assert cli.run(["fibers", "--case", "sp4", "--primes", "3,5", "--quiet"]) == 0
    assert cli.run(["fibers", "--case", "sl4", "--primes", "2,3,5", "--quiet"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"all fiber counts match their predictions in {elapsed:.1f}s")


def test_criterion_7_stalk_tables_and_parity():
    sp4 = load_case("sp4")
    sl4 = load_case("sl4")
    for char_l in (0, 3, 5):
        tsp = stalk_table(sp4, char_l)
        assert list(tsp["columns"]["[4]"].values()) == [1]
        col = tsp["columns"]["[2,1^2]"]
        assert list(col.values()) == [1, 1]
        degs = sorted(map(int, col))
        assert degs[1] - degs[0] == 2
        assert tsp["columns"]["[2^2]"] == {}
        assert tsp["columns"]["[1^4]"] == {}
        assert parity_violations(tsp) == ()

        tsl = stalk_table(sl4, char_l)
        assert list(tsl["columns"]["[4]"].values()) == [1]
        col = tsl["columns"]["[2^2]"]
        assert list(col.values()) == [1, 1]
        degs = sorted(map(int, col))
        assert degs[1] - degs[0] == 2
        for label in ("[3,1]", "[2,1^2]", "[1^4]"):
            assert tsl["columns"][label] == {}
        assert parity_violations(tsl) == ()
    anomaly = stalk_table(sp4, 2, allow_char_two=True)
    degs = sorted(map(int, anomaly["columns"]["[2^2]"]))
    assert len(degs) == 2 and degs[1] - degs[0] == 1
    assert "[2^2]" in parity_violations(anomaly)
    report(7, "stalk patterns match for l in {0,3,5}; char-2 anomaly exhibited")


def test_criterion_8_property_suites():
    # invariant factors against the minors oracle on 500 random matrices
    rng = random.Random(2024)
    for _ in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        facs = invariant_factors(RatMatrix.from_rows(rows))
        assert facs == snf_invariant_factors_by_minors(rows)
        for i in range(len(facs) - 1):
            assert facs[i + 1] % facs[i] == 0 if facs[i] else facs[i + 1] == 0

    # bracket-grading property, exhaustive on both algebras
    for kind, weights in (("sp", (2, 1, -2, -1)), ("sl", (1, 0, 0, -1))):
        alg = build_algebra(kind, 4)
        chi = tuple(weights)
        spread = max(weights) - min(weights)
        comps = {n: graded_component(alg, chi, n) for n in range(-spread, spread + 1)}
        assert sum(map(len, comps.values())) == len(whole_algebra(alg))
        for a, ca in comps.items():
            for b, cb in comps.items():
                basis = comps.get(a + b, ())
                for x in ca:
                    for y in cb:
                        z = dense_bracket(x, y)
                        assert z.is_zero() or in_span_by_rref(basis, z)

    # Jordan-type round trip and dominance order, all partitions of n <= 6
    for n in range(1, 7):
        parts = Partition.all_of(n)
        for lam in parts:
            assert nilpotent_jordan_partition(jordan_matrix(lam)) == lam
        for lam, mu in itertools.product(parts, parts):
            leq = dominance_leq(lam.parts, mu.parts)
            assert leq == dominance_leq(partition_transpose(mu.parts), partition_transpose(lam.parts))
            if leq and lam != mu:
                assert orbit_dimension("sl", lam) < orbit_dimension("sl", mu)
    report(8, "invariant factors, bracket grading, Jordan and dominance properties hold")
