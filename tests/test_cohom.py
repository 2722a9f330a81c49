import re

import pytest

from gradedorbits.cohom import (
    Aff,
    Disjoint,
    Poly,
    Proj,
    ProjLineMinus,
    Pt,
    UnknownCase,
    counting_polynomial,
    hc_constant,
    hc_local_system,
    load_case,
    parse_space,
    stalk_table,
    torus,
)

from oracles import parity_violations


def test_hc_constant_examples():
    assert hc_constant(Proj(2)) == {0: 1, 2: 1, 4: 1}
    assert hc_constant(Disjoint((Aff(2), Aff(1)))) == {2: 1, 4: 1}
    assert hc_constant(torus()) == {1: 1, 2: 1}
    assert hc_constant(Pt()) == {0: 1}
    assert hc_constant(Aff(1)) == {2: 1}
    assert hc_constant(ProjLineMinus(1)) == {2: 1}


def test_hc_rank1_torus():
    assert hc_local_system(torus(), [-1], 5) == {}
    assert hc_local_system(torus(), [1], 0) == {1: 1, 2: 1}
    assert hc_local_system(torus(), [1], 7) == {1: 1, 2: 1}
    assert hc_local_system(torus(), [-1], 2) == {1: 1, 2: 1}
    assert hc_local_system(torus(), [-1], 0) == {}
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(torus(), [0], 0)
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(torus(), [5], 5)


def test_hc_rank1_matches_constant_when_trivial():
    for char_l in (0, 2, 3, 5, 7):
        assert hc_local_system(torus(), [1], char_l) == hc_constant(torus())


def test_counting_polynomial_examples():
    assert str(counting_polynomial(Proj(3))) == "q^3+q^2+q+1"
    assert str(counting_polynomial(Disjoint((Proj(2), Aff(2))))) == "2q^2+q+1"
    assert str(counting_polynomial(torus())) == "q-1"
    assert counting_polynomial(Proj(3))(2) == 15


def test_polynomial_matches_even_cohomology():
    for expr in (
        Pt(),
        Aff(3),
        Proj(2),
        Disjoint((Proj(2), Aff(2))),
        Disjoint((Pt(), Aff(1), Aff(2), Aff(2), Aff(3), Aff(4))),
    ):
        poly = counting_polynomial(expr)
        ranks = hc_constant(expr)
        for j, coeff in enumerate(poly.coeffs):
            assert ranks.get(2 * j, 0) == coeff
        assert all(d % 2 == 0 for d in ranks)


def test_euler_characteristic_matches_count_at_one():
    for name in ("sp4", "sl4"):
        case = load_case(name)
        for orbit in case.orbits:
            ranks = hc_constant(orbit.full_fiber)
            euler = sum((-1) ** d * r for d, r in ranks.items())
            assert euler == counting_polynomial(orbit.full_fiber)(1)


def test_space_round_trip():
    for text, tree in (
        ("(pt)", Pt()),
        ("(aff 2)", Aff(2)),
        ("(proj 3)", Proj(3)),
        ("(torus)", ProjLineMinus(2)),
        ("(projline-minus 3)", ProjLineMinus(3)),
        ("(disjoint (proj 2) (aff 2))", Disjoint((Proj(2), Aff(2)))),
    ):
        assert parse_space(text) == tree


@pytest.mark.parametrize(
    "text,message",
    [
        ("(aff 2", "unclosed '(' of 'aff'"),
        ("", "expected '(' at token 0"),
        ("(aff)", "(aff ...) takes one integer, got []"),
        ("(aff 1 2)", "(aff ...) takes one integer, got ['1', '2']"),
        ("(pt 3)", "(pt ...) takes no arguments, got ['3']"),
        ("(disjoint 3 (pt) (pt))", "(disjoint ...) takes space expressions, got ['3', Pt(), Pt()]"),
        ("(proj (pt))", "(proj ...) takes one integer, got [Pt()]"),
    ],
    ids=["unclosed", "empty", "aff-no-argument", "aff-two-arguments", "pt-argument",
         "disjoint-token", "proj-expression"],
)
def test_malformed_space_text_names_the_problem(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_space(text)


def test_case_loading_and_shapes():
    sp4 = load_case("sp4")
    assert sp4.levi_orbit_dim == 2
    assert [o.partition.label() for o in sp4.orbits] == [
        "[4]",
        "[2^2]",
        "[2,1^2]",
        "[1^4]",
    ]
    sl4 = load_case("sl4")
    assert sl4.levi_orbit_dim == 4
    assert len(sl4.orbits) == 5
    with pytest.raises(UnknownCase):
        load_case("so8")


def test_each_case_is_parsed_once():
    # every part of a case is frozen, so the loads of a name share one
    for name in ("sp4", "sl4"):
        assert load_case(name) is load_case(name.upper()) is load_case(name)
    assert load_case("sp4") is not load_case("sl4")
    for bad in ("so8", "sp6", "", "SO8"):
        with pytest.raises(UnknownCase):
            load_case(bad)


def test_cuspidal_count_at_most_full():
    for name in ("sp4", "sl4"):
        case = load_case(name)
        for orbit in case.orbits:
            full = counting_polynomial(orbit.full_fiber)
            if orbit.cuspidal_part is None:
                continue
            cusp = counting_polynomial(orbit.cuspidal_part)
            for q in (2, 3, 5, 7, 11):
                assert cusp(q) <= full(q)


@pytest.mark.parametrize("char_l", [0, 3, 5])
def test_stalk_table_sp4(char_l):
    table = stalk_table(load_case("sp4"), char_l)
    assert table["convention"] == "shift-by-dimC"
    assert table["columns"]["[4]"] == {"-2": 1}
    assert table["columns"]["[2,1^2]"] == {"0": 1, "2": 1}
    assert table["columns"]["[2^2]"] == {}
    assert table["columns"]["[1^4]"] == {}
    assert parity_violations(table) == ()


@pytest.mark.parametrize("char_l", [0, 3, 5])
def test_stalk_table_sl4(char_l):
    table = stalk_table(load_case("sl4"), char_l)
    assert table["columns"]["[4]"] == {"-4": 1}
    assert table["columns"]["[3,1]"] == {}
    assert table["columns"]["[2^2]"] == {"-2": 1, "0": 1}
    assert table["columns"]["[2,1^2]"] == {}
    assert table["columns"]["[1^4]"] == {}
    assert parity_violations(table) == ()


def test_stalk_table_char_two_anomaly():
    with pytest.raises(ValueError):
        stalk_table(load_case("sp4"), 2)
    table = stalk_table(load_case("sp4"), 2, allow_char_two=True)
    assert table["columns"]["[2^2]"] == {"-1": 1, "0": 1}
    assert "[2^2]" in parity_violations(table)


def test_stalk_table_rejects_composite():
    with pytest.raises(ValueError):
        stalk_table(load_case("sp4"), 6)


def test_local_system_scalar_accounting():
    with pytest.raises(ValueError):
        hc_local_system(torus(), [], 5)
    with pytest.raises(ValueError):
        hc_local_system(Pt(), [-1], 5)


def test_poly_str_zero():
    assert str(Poly.of([])) == "0"
    assert str(Poly.of([1, -1])) == "-q+1"


def test_local_system_spec_validation():
    hc_local_system(torus(), [-1], 5)
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(torus(), [5], 5)
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(torus(), [0], 0)
    with pytest.raises(ValueError, match="0 or prime"):
        hc_local_system(torus(), [-1], 6)
