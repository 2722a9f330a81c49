import random

import pytest

from gradedorbits import ffgeom
from gradedorbits.cohom import CaseData, FiberDatum, Pt, load_case
from gradedorbits.exactlin import IntMatrix, Partition, jordan_matrix, parse_matrix_text
from gradedorbits.ffgeom import (
    CountReport,
    LimitExceeded,
    NotStableUnderForm,
    gaussian_binomial,
    stable_subspaces,
    verify_fiber_counts,
)
from oracles import (
    _matvec,
    echelon_subspaces,
    flag_count_by_elimination,
    stable_subspaces_by_elimination,
)

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


def zero(d):
    return tuple((0,) * d for _ in range(d))


def test_enumerate_counts():
    """x = 0 stabilises every subspace."""
    assert len(stable_subspaces(zero(4), 2, 2)) == 35
    assert len(stable_subspaces(zero(2), 2, 1)) == 3
    assert len(stable_subspaces(zero(4), 3, 1)) == 40
    assert len(stable_subspaces(zero(4), 5, 2)) == gaussian_binomial(4, 2, 5)


def test_enumerate_unique():
    x = parse_matrix_text("0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0").entries
    for rows in (zero(4), x):
        found = stable_subspaces(rows, 3, 2)
        assert len(set(found)) == len(found)
        assert set(found) <= set(echelon_subspaces(3, 4, 2))


def test_enumerate_matches_oracle_order():
    """The same subspaces as the oracle's echelon sweep, each in the
    oracle's echelon form, though not in its order."""
    for p, d, k in ((2, 4, 1), (2, 4, 2), (3, 4, 2), (2, 4, 3), (3, 5, 2), (2, 5, 3)):
        assert set(stable_subspaces(zero(d), p, k)) == set(echelon_subspaces(p, d, k))


def test_enumerate_guard():
    with pytest.raises(LimitExceeded):
        stable_subspaces(zero(4), 17, 1)
    with pytest.raises(LimitExceeded):
        stable_subspaces(zero(7), 3, 1)
    with pytest.raises(LimitExceeded):
        stable_subspaces(zero(4), 4, 1)
    with pytest.raises(LimitExceeded):
        stable_subspaces(zero(4), 3, 4)
    # the zero orbit, counted without an enumeration, meets the same walls
    with pytest.raises(LimitExceeded):
        ffgeom._sweep(3, 7, 1, None, [zero(7)], [()])


def test_fiber_count_prime_bounds(monkeypatch):
    case = load_case("sl4")
    # p = 0 is rejected before any residue mod p is taken
    for p in (0, 1, 4, 17):
        with pytest.raises(LimitExceeded):
            verify_fiber_counts(case, [p])
    # the message reads the bounds, not fixed numbers
    monkeypatch.setattr(ffgeom, "MAX_PRIME", 7)
    monkeypatch.setattr(ffgeom, "MAX_DIM", 5)
    with pytest.raises(LimitExceeded, match=r"p prime <= 7, d <= 5,"):
        verify_fiber_counts(case, [11])
    assert verify_fiber_counts(case, [7]).rows


def random_nilpotent(rng, d):
    """g N g^-1 for N strictly upper triangular (``conjugate``)."""
    n = IntMatrix.from_rows(
        [[sparse_entry(rng) if j > i else 0 for j in range(d)] for i in range(d)]
    )
    return conjugate(rng, n)


def conjugate(rng, n):
    """g n g^-1 for g a product of integer transvections, so that g^-1 is
    integer too."""
    d = n.rows
    g = g_inv = IntMatrix.identity(d)
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((1, -1, 2))
        step = [[int(r == s) for s in range(d)] for r in range(d)]
        step[i][j] = c
        g = g * IntMatrix.from_rows(step)
        step[i][j] = -c
        g_inv = IntMatrix.from_rows(step) * g_inv
    assert g * g_inv == IntMatrix.identity(d)
    return g * n * g_inv


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stable_subspaces_of_random_nilpotents_match_oracle(monkeypatch, d):
    """Also: up to dimension 3 no echelon basis is built twice."""
    rng = random.Random(f"ffgeom-stable:{d}")
    for p in (2, 3, 5):
        for _ in range(2):
            x = random_nilpotent(rng, d).entries
            for k in range(1, d):
                found, built = bases_built(monkeypatch, x, p, k)
                assert set(found) == stable_subspaces_by_elimination(x, p, k)
                assert k > 3 or len(set(built)) == len(built)


def test_stable_subspaces_of_sp4_nilpotents_match_oracle():
    rng = random.Random("ffgeom-stable:sp4")
    for p in (2, 3, 5):
        for _ in range(3):
            x = random_sp4_nilpotent(rng).entries
            for k in (1, 2, 3):
                assert set(stable_subspaces(x, p, k)) == stable_subspaces_by_elimination(x, p, k)


@pytest.mark.parametrize("parts", [[2, 2, 1, 1], [2, 2, 2]])
def test_stable_subspaces_with_two_blocks_of_size_two_match_oracle(monkeypatch, parts):
    """d = MAX_DIM, p = 2: these x have stable 4-spaces on which they have
    two Jordan blocks of size 2, each reached from more than one stable
    3-space, so the echelon-keyed dedupe of a level is what keeps them once."""
    j = jordan_matrix(Partition.of(parts))
    for x in (j, conjugate(random.Random(f"ffgeom-blocks:{parts}"), j)):
        for k in range(1, ffgeom.MAX_DIM):
            found, built = bases_built(monkeypatch, x.entries, 2, k)
            assert len(set(built)) < len(built) if k >= 4 else len(set(built)) == len(built)
            assert set(found) == stable_subspaces_by_elimination(x.entries, 2, k)


def bases_built(monkeypatch, x, p, k):
    """(stable_subspaces(x, p, k), every echelon basis it built on the way,
    in order): the returns of ``_extend``, and the yields of
    ``_grassmannian`` that lie in ker x.  Its other yields are the lines
    of some x^-1(U) / U, which x does not kill, and which ``_extend`` then
    makes into a basis."""
    extended, yielded = [], []
    extend, grassmannian = ffgeom._extend, ffgeom._grassmannian

    def recording_extend(*args):
        extended.append(extend(*args))
        return extended[-1]

    def recording_grassmannian(*args):
        for basis in grassmannian(*args):
            yielded.append(basis)
            yield basis

    with monkeypatch.context() as patch:
        patch.setattr(ffgeom, "_extend", recording_extend)
        patch.setattr(ffgeom, "_grassmannian", recording_grassmannian)
        found = stable_subspaces(x, p, k)
    x = tuple(tuple(a % p for a in row) for row in x)
    in_kernel = [b for b in yielded if not any(any(_matvec(x, v, p)) for v in b)]
    return found, extended + in_kernel


def test_each_stable_subspace_is_built_once(monkeypatch):
    """Up to dimension 3 no echelon basis is built twice, on every orbit
    representative of the shipped cases for every prime up to 13; the
    random nilpotents get the same check in their oracle test.  The zero
    orbit, which the sweep counts by the Gaussian binomial, is built as the
    Grassmannian of F_p^4 only up to p = 5 (at p = 13 it has 31,110
    planes)."""
    shipped = [o.representative.entries for c in ("sl4", "sp4") for o in load_case(c).orbits]
    for p in (2, 3, 5, 7, 11, 13):
        for x in shipped:
            if p > 5 and not any(a % p for row in x for a in row):
                continue
            for k in (1, 2, 3):
                found, built = bases_built(monkeypatch, x, p, k)
                assert len(set(built)) == len(built)
                assert set(found) <= set(built)


def test_sl4_at_13_builds_each_line_and_plane_once(monkeypatch):
    """The sl4 sweep at p = 13 builds 762 bases: its 212 stable lines and
    550 stable planes, over the orbits that are not zero mod p."""
    elements = [o.representative.entries for o in load_case("sl4").orbits]
    elements = [x for x in elements if any(a % 13 for row in x for a in row)]
    built = sum(len(bases_built(monkeypatch, x, 13, 2)[1]) for x in elements)
    lines = sum(len(stable_subspaces(x, 13, 1)) for x in elements)
    planes = sum(len(stable_subspaces(x, 13, 2)) for x in elements)
    assert (lines, planes) == (212, 550)
    assert built == lines + planes <= 762


@pytest.mark.parametrize(
    "flag_kind,form,x",
    [
        ("two-plane", None, "0,3,0,0;0,0,0,0;0,0,0,0;0,0,0,0"),
        ("isotropic-line", SP_FORM, "0,0,3,0;0,0,0,0;0,0,0,0;0,0,0,0"),
    ],
)
def test_zero_mod_p_element_matches_oracle(flag_kind, form, x):
    """3 E_ij is zero mod 3 but not over Z: its counts come from the Gaussian
    binomial at p = 3 and from the stable subspaces at p = 2 and 5."""
    case = random_case(flag_kind, form, [parse_matrix_text(x)])
    for p in (2, 3, 5):
        assert swept_rows(case, p) == oracle_rows(case, p)


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_fact_of_a_zero_mod_p_element_matches_oracle(k):
    """Every condition alone, for an x that is zero mod p, so that no fact
    of the Gaussian-binomial path hides behind another of its stratum."""
    x = parse_matrix_text("0,0,3,0;0,0,0,0;0,0,0,0;0,0,0,0").entries
    conditions = ("sub-nonzero", "quot-nonzero", "middle-zero", "middle-nonzero")
    counts = ffgeom._sweep(3, 4, k, SP_FORM, [x], [(c,) for c in conditions])
    assert counts == [
        [
            flag_count_by_elimination(x, 3, k, SP_FORM.entries, ("stable", c))
            for c in conditions
        ]
    ]
