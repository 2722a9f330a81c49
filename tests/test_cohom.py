import re

import pytest

from gradedorbits.cohom import (
    CaseData,
    FiberDatum,
    UnknownCase,
    counting_polynomial,
    hc_constant,
    hc_local_system,
    load_case,
    parse_space,
    stalk_table,
)
from gradedorbits.exactlin import Partition, RatMatrix
from gradedorbits.liegrade import (
    MatrixLieAlgebra,
    ParabolicDatum,
    Sl2Triple,
    build_algebra,
    canonical_parabolic,
)

from oracles import parity_violations, poly_at, poly_text

TORUS = ("projline-minus", 2)


def test_hc_constant_examples():
    assert hc_constant(("proj", 2)) == {0: 1, 2: 1, 4: 1}
    assert hc_constant(("disjoint", ("aff", 2), ("aff", 1))) == {2: 1, 4: 1}
    assert hc_constant(TORUS) == {1: 1, 2: 1}
    assert hc_constant(("pt",)) == {0: 1}
    assert hc_constant(("aff", 1)) == {2: 1}
    assert hc_constant(("projline-minus", 1)) == {2: 1}


def test_hc_rank1_torus():
    assert hc_local_system(TORUS, [-1], 5) == {}
    assert hc_local_system(TORUS, [1], 0) == {1: 1, 2: 1}
    assert hc_local_system(TORUS, [1], 7) == {1: 1, 2: 1}
    assert hc_local_system(TORUS, [-1], 2) == {1: 1, 2: 1}
    assert hc_local_system(TORUS, [-1], 0) == {}
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(TORUS, [0], 0)
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(TORUS, [5], 5)


def test_hc_rank1_matches_constant_when_trivial():
    for char_l in (0, 2, 3, 5, 7):
        assert hc_local_system(TORUS, [1], char_l) == hc_constant(TORUS)


def test_counting_polynomial_examples():
    assert counting_polynomial(("proj", 3)) == (1, 1, 1, 1)
    assert poly_text(counting_polynomial(("proj", 3))) == "q^3+q^2+q+1"
    assert poly_text(counting_polynomial(("disjoint", ("proj", 2), ("aff", 2)))) == "2q^2+q+1"
    assert poly_text(counting_polynomial(TORUS)) == "q-1"
    assert poly_at(counting_polynomial(("proj", 3)), 2) == 15


def test_polynomial_matches_even_cohomology():
    for expr in (
        ("pt",),
        ("aff", 3),
        ("proj", 2),
        ("disjoint", ("proj", 2), ("aff", 2)),
        ("disjoint", ("pt",), ("aff", 1), ("aff", 2), ("aff", 2), ("aff", 3), ("aff", 4)),
    ):
        poly = counting_polynomial(expr)
        ranks = hc_constant(expr)
        for j, coeff in enumerate(poly):
            assert ranks.get(2 * j, 0) == coeff
        assert all(d % 2 == 0 for d in ranks)


def test_euler_characteristic_matches_count_at_one():
    for name in ("sp4", "sl4"):
        case = load_case(name)
        for orbit in case.orbits:
            ranks = hc_constant(orbit.full_fiber)
            euler = sum((-1) ** d * r for d, r in ranks.items())
            assert euler == poly_at(counting_polynomial(orbit.full_fiber), 1)


def test_space_round_trip():
    for text, tree in (
        ("(pt)", ("pt",)),
        ("(aff 2)", ("aff", 2)),
        ("(proj 3)", ("proj", 3)),
        ("(torus)", ("projline-minus", 2)),
        ("(projline-minus 3)", ("projline-minus", 3)),
        ("(disjoint (proj 2) (aff 2))", ("disjoint", ("proj", 2), ("aff", 2))),
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
        ("(disjoint 3 (pt) (pt))",
         "(disjoint ...) takes space expressions, got ['3', ('pt',), ('pt',)]"),
        ("(proj (pt))", "(proj ...) takes one integer, got [('pt',)]"),
    ],
    ids=["unclosed", "empty", "aff-no-argument", "aff-two-arguments", "pt-argument",
         "disjoint-token", "proj-expression"],
)
def test_malformed_space_text_names_the_problem(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_space(text)


@pytest.mark.parametrize(
    "expr,text",
    [
        (("aff", -1), "(aff -1)"),
        (("disjoint",), "(disjoint)"),
        (("disjoint", ("pt",), ("aff", -1)), "(disjoint (pt) (aff -1))"),
        (("projline-minus", 0), "(projline-minus 0)"),
        (("proj", -2), "(proj -2)"),
    ],
    ids=["aff", "disjoint-empty", "disjoint-child", "projline-minus", "proj"],
)
@pytest.mark.parametrize(
    "entry",
    [counting_polynomial, hc_constant, lambda expr: hc_local_system(expr, (), 0)],
    ids=["counting_polynomial", "hc_constant", "hc_local_system"],
)
def test_hand_built_spaces_raise_as_their_text(expr, text, entry):
    with pytest.raises(ValueError) as parsed:
        parse_space(text)
    with pytest.raises(ValueError) as built:
        entry(expr)
    assert str(built.value) == str(parsed.value)


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
                assert poly_at(cusp, q) <= poly_at(full, q)


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
        hc_local_system(TORUS, [], 5)
    with pytest.raises(ValueError):
        hc_local_system(("pt",), [-1], 5)


def test_poly_str_zero():
    assert poly_text(()) == "0"
    assert poly_text((1, -1)) == "-q+1"


def test_local_system_spec_validation():
    hc_local_system(TORUS, [-1], 5)
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(TORUS, [5], 5)
    with pytest.raises(ValueError, match="invertible"):
        hc_local_system(TORUS, [0], 0)
    with pytest.raises(ValueError, match="0 or prime"):
        hc_local_system(TORUS, [-1], 6)


def _datum():
    sl2 = build_algebra("sl", 2)
    return canonical_parabolic(sl2, (1, -1), Sl2Triple.zero(2), 2)


# one value of each namedtuple record, made when its case runs
RECORDS = {
    RatMatrix: lambda: RatMatrix.zeros(2, 2),
    Partition: lambda: Partition.of([2, 1]),
    MatrixLieAlgebra: lambda: build_algebra("sp", 4),
    Sl2Triple: lambda: Sl2Triple.zero(2),
    ParabolicDatum: _datum,
    FiberDatum: lambda: load_case("sp4").orbits[0],
    CaseData: lambda: load_case("sl4"),
}
REFUSED = [
    ("(aff -1)", "affine dimension must be >= 0"),
    ("(proj -1)", "projective dimension must be >= 0"),
    ("(projline-minus 0)", "need at least one removed point"),
    ("(disjoint (pt))", "disjoint union needs at least two children"),
    ((2, 0), "parts must be positive"),
    ((-1,), "parts must be positive"),
    ((1, 2), "parts must be weakly decreasing"),
]
# texts of different constructors with the same argument
SAME_ARGUMENT = [("(aff 2)", "(proj 2)"), ("(aff 1)", "(projline-minus 1)"),
                 ("(proj 3)", "(projline-minus 3)")]
RECORD_CASES = (
    [("frozen", record) for record in RECORDS]
    + [("refused", case) for case in REFUSED]
    + [("unequal", pair) for pair in SAME_ARGUMENT]
)


@pytest.mark.parametrize(
    "check,subject",
    RECORD_CASES,
    ids=[f"{k}-{s.__name__ if k == 'frozen' else s[0]}" for k, s in RECORD_CASES],
)
def test_records_stay_immutable_checked_and_distinct(check, subject):
    if check == "frozen":
        record = RECORDS[subject]()
        assert type(record) is subject
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 0
        assert hash(record) == hash(RECORDS[subject]())
    elif check == "refused":
        value, message = subject
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_space(value) if isinstance(value, str) else Partition.of(value)
    else:
        a, b = map(parse_space, subject)
        assert a[1:] == b[1:]
        assert a != b and len({a, b}) == 2
