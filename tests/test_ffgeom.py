import random

import pytest

from gradedorbits.cohom import CaseData, FiberDatum, Pt, load_case
from gradedorbits.exactlin import IntMatrix, Partition, parse_matrix_text
from gradedorbits.ffgeom import (
    CountReport,
    LimitExceeded,
    NotStableUnderForm,
    enumerate_subspaces,
    gaussian_binomial,
    verify_fiber_counts,
)
from oracles import echelon_subspaces, flag_count_by_elimination

SP_FORM = parse_matrix_text("0,0,1,0;0,0,0,1;-1,0,0,0;0,-1,0,0")

# flag dimension and the oracle's conditions of each stratum, per flag kind
STRATA = {
    "isotropic-line": (
        1,
        {
            "full": ("stable",),
            "zero": ("stable", "middle-zero"),
            "cuspidal": ("stable", "middle-nonzero"),
        },
    ),
    "two-plane": (
        2,
        {"full": ("stable",), "cuspidal": ("stable", "sub-nonzero", "quot-nonzero")},
    ),
}


def test_enumerate_counts():
    assert len(list(enumerate_subspaces(2, 4, 2))) == 35
    assert len(list(enumerate_subspaces(2, 2, 1))) == 3
    assert len(list(enumerate_subspaces(3, 4, 1))) == 40
    assert len(list(enumerate_subspaces(5, 4, 2))) == gaussian_binomial(4, 2, 5)


def test_enumerate_unique():
    seen = set(enumerate_subspaces(3, 4, 2))
    assert len(seen) == gaussian_binomial(4, 2, 3)


def test_enumerate_matches_oracle_order():
    for p, d, k in ((2, 4, 1), (2, 4, 2), (3, 4, 2), (2, 4, 3), (3, 5, 2), (2, 5, 3)):
        assert list(enumerate_subspaces(p, d, k)) == list(echelon_subspaces(p, d, k))


def test_enumerate_guard():
    with pytest.raises(LimitExceeded):
        list(enumerate_subspaces(17, 4, 1))
    with pytest.raises(LimitExceeded):
        list(enumerate_subspaces(3, 7, 1))
    with pytest.raises(LimitExceeded):
        list(enumerate_subspaces(4, 4, 1))


def random_case(flag_kind, form, elements):
    """A case whose orbits are the given elements, labelled by position;
    only the counts of its report are meaningful."""
    orbits = tuple(
        FiberDatum(
            partition=Partition.of([i + 1]),
            representative=x,
            full_fiber=Pt(),
            zero_part=None,
            cuspidal_part=None,
            monodromy=(),
        )
        for i, x in enumerate(elements)
    )
    return CaseData("random", "-", 4, form, flag_kind, "-", 0, orbits)


def swept_rows(case, p):
    return {
        (r.orbit, r.stratum): r.count for r in verify_fiber_counts(case, [p]).rows
    }


def test_count_sp4_middle_orbit_full_fiber():
    x = parse_matrix_text("0,0,1,0;0,0,0,0;0,0,0,0;0,0,0,0")
    case = random_case("isotropic-line", SP_FORM, [x])
    assert swept_rows(case, 3)[("[1]", "full")] == 13


def test_count_sl4_subregular_cuspidal():
    x = parse_matrix_text("0,1,0,0;0,0,1,0;0,0,0,0;0,0,0,0")
    case = random_case("two-plane", None, [x])
    assert swept_rows(case, 3)[("[1]", "cuspidal")] == 2


def test_count_zero_map_fails_nonzero_conditions():
    case = random_case("two-plane", None, [IntMatrix.zeros(4, 4)])
    for p in (2, 3, 5):
        rows = swept_rows(case, p)
        assert rows[("[1]", "cuspidal")] == 0
        assert rows[("[1]", "full")] == gaussian_binomial(4, 2, p)


def test_non_nilpotent_rejected():
    case = random_case("two-plane", None, [IntMatrix.identity(4)])
    with pytest.raises(NotStableUnderForm, match="nilpotent"):
        verify_fiber_counts(case, [3])


NOT_IN_SP = parse_matrix_text("0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0")


def test_form_membership_enforced():
    case = random_case("isotropic-line", SP_FORM, [NOT_IN_SP])
    with pytest.raises(NotStableUnderForm, match="form's algebra"):
        verify_fiber_counts(case, [3])


def test_perp_self_check_raises(monkeypatch):
    """With element validation bypassed, an x outside sp4 has a stable line
    (e_2) whose perp is not stable, and the sweep's self-check catches it."""
    from gradedorbits import ffgeom

    monkeypatch.setattr(ffgeom, "_validate_element", lambda *args: None)
    case = random_case("isotropic-line", SP_FORM, [NOT_IN_SP])
    with pytest.raises(NotStableUnderForm, match="perp"):
        verify_fiber_counts(case, [3])


def test_sp4_isotropic_lines_are_all_lines():
    case = load_case("sp4")
    report = verify_fiber_counts(case, [3])
    full_rows = {r.orbit: r for r in report.rows if r.stratum == "full"}
    assert full_rows["[1^4]"].count == 3 ** 3 + 3 ** 2 + 3 + 1


def test_sp4_residue_classes():
    case = load_case("sp4")
    report = verify_fiber_counts(case, [3, 5])
    rows = {(r.orbit, r.prime, r.stratum): r for r in report.rows}
    assert rows[("[2^2]", 5, "zero")].count == 2
    assert rows[("[2^2]", 5, "cuspidal")].count == 4  # q - 1
    assert rows[("[2^2]", 3, "zero")].count == 0
    assert rows[("[2^2]", 3, "cuspidal")].count == 4  # q + 1, twisted form
    assert report.all_match


def test_sp4_sum_rule():
    case = load_case("sp4")
    report = verify_fiber_counts(case, [3, 5])
    by_key = {(r.orbit, r.prime, r.stratum): r.count for r in report.rows}
    for orbit in case.orbits:
        label = orbit.partition.label()
        for p in (3, 5):
            assert (
                by_key[(label, p, "zero")] + by_key[(label, p, "cuspidal")]
                == by_key[(label, p, "full")]
            )


def test_sl4_all_match_small_primes():
    case = load_case("sl4")
    report = verify_fiber_counts(case, [2, 3, 5])
    assert report.all_match
    rows = {(r.orbit, r.prime, r.stratum): r for r in report.rows}
    assert rows[("[2,1^2]", 2, "full")].count == 11  # 2q^2+q+1 at q=2
    assert rows[("[2^2]", 2, "full")].count == 7  # q^2+q+1 at q=2
    assert rows[("[2^2]", 2, "cuspidal")].count == 6  # q^2+q at q=2
    assert rows[("[3,1]", 3, "cuspidal")].count == 2  # q-1
    assert rows[("[1^4]", 2, "full")].count == gaussian_binomial(4, 2, 2)


def test_report_detects_mismatch():
    case = load_case("sl4")
    report = verify_fiber_counts(case, [2])
    assert isinstance(report, CountReport)
    bad = CountReport(
        case.name,
        report.rows + (report.rows[0].__class__("[4]", 2, "full", 1, 2, False),),
    )
    assert not bad.all_match


def test_strata_check_the_case():
    zero = IntMatrix.zeros(4, 4)
    with pytest.raises(ValueError, match="needs a form"):
        verify_fiber_counts(random_case("isotropic-line", None, [zero]), [3])
    with pytest.raises(ValueError, match="unknown flag kind"):
        verify_fiber_counts(random_case("three-plane", None, [zero]), [3])


def oracle_rows(case, p):
    k, strata = STRATA[case.flag_kind]
    form = case.form.entries if case.form is not None else None
    return {
        (orbit.partition.label(), stratum): flag_count_by_elimination(
            orbit.representative.entries, p, k, form, conditions
        )
        for orbit in case.orbits
        for stratum, conditions in strata.items()
    }


@pytest.mark.parametrize("name", ["sp4", "sl4"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_shipped_cases_match_oracle(name, p):
    case = load_case(name)
    assert swept_rows(case, p) == oracle_rows(case, p)


def sparse_entry(rng):
    return rng.choice((0, 0, 0, 1, -1, 2))


def random_upper_triangular(rng):
    return IntMatrix.from_rows(
        [[sparse_entry(rng) if j > i else 0 for j in range(4)] for i in range(4)]
    )


def random_sp4_nilpotent(rng):
    """g N g^-1 for N = [[A, B], [0, -A^T]] with A strictly upper triangular
    and B symmetric, and g a product of symplectic transvections."""
    a, b, c, e = (sparse_entry(rng) for _ in range(4))
    n = IntMatrix.from_rows([[0, a, b, c], [0, 0, c, e], [0, 0, 0, 0], [0, 0, -a, 0]])
    g = IntMatrix.identity(4)
    for _ in range(3):
        s, t, u = (rng.randint(-1, 1) for _ in range(3))
        if rng.random() < 0.5:
            step = [[1, 0, s, t], [0, 1, t, u], [0, 0, 1, 0], [0, 0, 0, 1]]
        else:
            step = [[1, 0, 0, 0], [0, 1, 0, 0], [s, t, 1, 0], [t, u, 0, 1]]
        g = g * IntMatrix.from_rows(step)
    g_inv = -(SP_FORM * g.transpose() * SP_FORM)
    assert g * g_inv == IntMatrix.identity(4)
    return g * n * g_inv


@pytest.mark.parametrize(
    "flag_kind,form,make",
    [("two-plane", None, random_upper_triangular), ("isotropic-line", SP_FORM, random_sp4_nilpotent)],
)
def test_random_nilpotents_match_oracle(flag_kind, form, make):
    rng = random.Random(f"ffgeom-oracle:{flag_kind}")
    case = random_case(flag_kind, form, [make(rng) for _ in range(6)])
    for p in (2, 3, 5):
        assert swept_rows(case, p) == oracle_rows(case, p)
