import operator
import random

import pytest

from gradedorbits import ffgeom
from gradedorbits.cohom import CaseData, FiberDatum, load_case
from gradedorbits.exactlin import Partition, RatMatrix, parse_matrix_text
from gradedorbits.ffgeom import (
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
    fraction_rref,
    identity,
    image_dimension_by_elimination,
    jordan_matrix,
    matrix_product,
    scaled,
    stable_subspaces_by_elimination,
    transpose,
)

SP_FORM = parse_matrix_text("0,0,1,0;0,0,0,1;-1,0,0,0;0,-1,0,0")
# a form of rank 2 with radical <e_2, e_4>
DEGENERATE_FORM = parse_matrix_text("0,0,1,0;0,0,0,0;-1,0,0,0;0,0,0,0")
# a form that is neither symmetric nor alternating
SKEWED_FORM = parse_matrix_text("0,0,1,0;1,0,0,0;0,0,0,1;0,1,0,0")

# the conditions of ``ffgeom._sweep`` beyond stability, each a fact
FACTS = ("sub-nonzero", "quot-nonzero", "middle-zero", "middle-nonzero")

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
    x = parse_matrix_text("0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0").num
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
        stable_subspaces(zero(4), 131, 1)
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
    for p in (0, 1, 4, 131):
        with pytest.raises(LimitExceeded):
            verify_fiber_counts(case, [p])
    # the message reads the bounds, not fixed numbers
    monkeypatch.setattr(ffgeom, "MAX_PRIME", 7)
    monkeypatch.setattr(ffgeom, "MAX_DIM", 5)
    with pytest.raises(LimitExceeded, match=r"p prime <= 7, d <= 5,"):
        verify_fiber_counts(case, [11])
    assert verify_fiber_counts(case, [7])["rows"]


def random_nilpotent(rng, d):
    """g N g^-1 for N strictly upper triangular (``conjugate``)."""
    n = RatMatrix.from_rows(
        [[sparse_entry(rng) if j > i else 0 for j in range(d)] for i in range(d)]
    )
    return conjugate(rng, n)


def conjugate(rng, n):
    """g n g^-1 for g from ``transvections``."""
    g, g_inv = transvections(rng, n.rows)
    return matrix_product(g, n, g_inv)


def transvections(rng, d):
    """(g, g^-1) for g a product of d integer transvections, so that g^-1
    is integer too."""
    g = g_inv = identity(d)
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((1, -1, 2))
        step = [[int(r == s) for s in range(d)] for r in range(d)]
        step[i][j] = c
        g = matrix_product(g, RatMatrix.from_rows(step))
        step[i][j] = -c
        g_inv = matrix_product(RatMatrix.from_rows(step), g_inv)
    assert matrix_product(g, g_inv) == identity(d)
    return g, g_inv


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stable_subspaces_of_random_nilpotents_match_oracle(monkeypatch, d):
    """Also: up to dimension 3 no echelon basis is built twice."""
    rng = random.Random(f"ffgeom-stable:{d}")
    for p in (2, 3, 5):
        for _ in range(2):
            x = random_nilpotent(rng, d).num
            for k in range(1, d):
                found, built = bases_built(monkeypatch, x, p, k)
                assert set(found) == stable_subspaces_by_elimination(x, p, k)
                assert k > 3 or len(set(built)) == len(built)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stable_subspace_values_are_image_dimensions(d):
    """The value of each stable V is dim x(V), on the seeded nilpotents of
    ``test_stable_subspaces_of_random_nilpotents_match_oracle``."""
    rng = random.Random(f"ffgeom-stable:{d}")
    for p in (2, 3, 5):
        for _ in range(2):
            x = random_nilpotent(rng, d).num
            for k in range(1, d):
                for basis, rank in stable_subspaces(x, p, k).items():
                    assert rank == image_dimension_by_elimination(x, basis, p)


def test_stable_subspaces_of_sp4_nilpotents_match_oracle():
    rng = random.Random("ffgeom-stable:sp4")
    for p in (2, 3, 5):
        for _ in range(3):
            x = random_sp4_nilpotent(rng).num
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
            found, built = bases_built(monkeypatch, x.num, 2, k)
            assert len(set(built)) < len(built) if k >= 4 else len(set(built)) == len(built)
            assert set(found) == stable_subspaces_by_elimination(x.num, 2, k)


def bases_built(monkeypatch, x, p, k):
    """(stable_subspaces(x, p, k), every echelon basis it built on the way,
    in order), as ``recorded_bases`` gives them."""
    return recorded_bases(monkeypatch, x, p, lambda: stable_subspaces(x, p, k))


def recorded_bases(monkeypatch, x, p, run):
    """(run(), every echelon basis built on the way, in order): the returns
    of ``_extend``, and the yields of ``_grassmannian`` that lie in ker x.
    Its other yields are the lines of some x^-1(U) / U, which x does not
    kill, and which ``_extend`` then makes into a basis."""
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
        found = run()
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
    shipped = [o.representative.num for c in ("sl4", "sp4") for o in load_case(c).orbits]
    for p in (2, 3, 5, 7, 11, 13):
        for x in shipped:
            if p > 5 and not any(a % p for row in x for a in row):
                continue
            for k in (1, 2, 3):
                found, built = bases_built(monkeypatch, x, p, k)
                assert len(set(built)) == len(built)
                assert set(found) <= set(built)


def test_sl4_counts_its_stable_planes_and_builds_none(monkeypatch):
    """The sl4 sweep at p = 13 counts, over the orbits that are not zero mod
    p, 365 stable planes outside ker x, p^(n - 1) [m, 1]_p per orbit, and
    185 inside ker x, each as many as ``stable_subspaces`` lists, and calls
    neither ``_extend`` nor ``_grassmannian``; nor does ``fibers`` of sl4
    at p = 127."""
    elements = [o.representative.num for o in load_case("sl4").orbits]
    elements = [x for x in elements if any(a % 13 for row in x for a in row)]
    listed = [stable_subspaces(x, 13, 2) for x in elements]
    called = []
    for name in ("_extend", "_grassmannian"):
        run = getattr(ffgeom, name)
        monkeypatch.setattr(
            ffgeom, name, lambda *args, name=name, run=run: called.append(name) or run(*args))
    counts = ffgeom._sweep(13, 4, 2, None, elements, [(), ("sub-nonzero",)])
    planes = kernel_planes = 0
    for (every, beyond), stable in zip(counts, listed):
        assert beyond == sum(1 for rank in stable.values() if rank)
        assert every == len(stable)
        planes, kernel_planes = planes + beyond, kernel_planes + every - beyond
    assert (planes, kernel_planes) == (365, 185)
    assert verify_fiber_counts(load_case("sl4"), [127])["all_match"]
    assert called == []


def test_sp4_at_13_decides_the_lines_of_w_and_im_x(monkeypatch):
    """The sp4 sweep at p = 13 reads the form on 16 of the 198 stable lines
    of the orbits that are not zero mod p, each once: per orbit, the lines
    of W and im x.  The others are counted with one fact pattern."""
    case = load_case("sp4")
    middle_zero, decided, stable = ffgeom._middle_zero, {}, {}

    def recording_middle_zero(v, *args):
        decided[label].append(v)
        return middle_zero(v, *args)

    monkeypatch.setattr(ffgeom, "_middle_zero", recording_middle_zero)
    for orbit in case.orbits:
        x, label = orbit.representative.num, orbit.partition.label()
        if any(a % 13 for row in x for a in row):
            decided[label] = []
            ffgeom._sweep(13, 4, 1, case.form, [x], [()])
            stable[label] = len(stable_subspaces(x, 13, 1))
            assert len(set(decided[label])) == len(decided[label])
    assert {label: len(lines) for label, lines in decided.items()} == {
        "[4]": 1, "[2^2]": 14, "[2,1^2]": 1}
    assert stable == {"[4]": 1, "[2^2]": 14, "[2,1^2]": 183}


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
            full_fiber=("pt",),
            zero_part=None,
            cuspidal_part=None,
            monodromy=(),
        )
        for i, x in enumerate(elements)
    )
    return CaseData("random", "-", 4, form, flag_kind, "-", 0, orbits)


def swept_rows(case, p):
    return {
        (r["orbit"], r["stratum"]): r["count"] for r in verify_fiber_counts(case, [p])["rows"]
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
    case = random_case("two-plane", None, [RatMatrix.zeros(4, 4)])
    for p in (2, 3, 5):
        rows = swept_rows(case, p)
        assert rows[("[1]", "cuspidal")] == 0
        assert rows[("[1]", "full")] == gaussian_binomial(4, 2, p)


def test_non_nilpotent_rejected():
    case = random_case("two-plane", None, [identity(4)])
    with pytest.raises(NotStableUnderForm, match="nilpotent"):
        verify_fiber_counts(case, [3])


NOT_IN_SP = parse_matrix_text("0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0")


@pytest.mark.parametrize(
    "flag_kind,form,x,message",
    [
        ("two-plane", None, "3,0,0,0;0,3,0,0;0,0,3,0;0,0,0,3", "nilpotent"),
        ("isotropic-line", SP_FORM, "0,3,0,0;0,0,0,0;0,0,0,0;0,0,0,0", "form's algebra"),
    ],
)
def test_elements_are_validated_over_z(flag_kind, form, x, message):
    """3 I_4 is not nilpotent and 3 E_12 is not in sp4, though both are zero
    mod 3: the check over Z refuses them at p = 3 too."""
    case = random_case(flag_kind, form, [parse_matrix_text(x)])
    with pytest.raises(NotStableUnderForm, match=message):
        verify_fiber_counts(case, [3])


def test_each_element_is_validated_once_per_case(monkeypatch):
    calls = []
    validate = ffgeom._validate_element

    def recording_validate(x, form):
        calls.append((x, form))
        validate(x, form)

    monkeypatch.setattr(ffgeom, "_validate_element", recording_validate)
    x = parse_matrix_text("0,0,1,0;0,0,0,0;0,0,0,0;0,0,0,0")
    verify_fiber_counts(random_case("isotropic-line", SP_FORM, [x]), [2, 3, 5])
    assert len(calls) == 1
    calls.clear()
    case = load_case("sl4")
    verify_fiber_counts(case, [2, 3, 5])
    assert calls == [(orbit.representative, None) for orbit in case.orbits]
    # an oversized case is refused before any element is multiplied
    calls.clear()
    with pytest.raises(LimitExceeded):
        verify_fiber_counts(case, [3, 131])
    assert calls == []


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


def test_perp_check_covers_a_line_that_is_not_listed(monkeypatch):
    """Under the form I_4 the one stable line <e_1> of the regular
    nilpotent x has a perp that x does not keep, and the sweep lists no
    line: e_1 is not in W, as e_1^T e_1 = 1, nor is <e_1> im x, of rank
    3.  The check on ker x still raises."""
    monkeypatch.setattr(ffgeom, "_validate_element", lambda *args: None)
    x, form = parse_matrix_text("0,1,0,0;0,0,1,0;0,0,0,1;0,0,0,0"), identity(4)
    assert stable_subspaces(x.num, 3, 1) == {((1, 0, 0, 0),): 0}
    with pytest.raises(AssertionError, match="perp"):
        flag_count_by_elimination(x.num, 3, 1, form.num, ("stable",))
    with pytest.raises(NotStableUnderForm, match="perp"):
        verify_fiber_counts(random_case("isotropic-line", form, [x]), [3])


def test_line_facts_under_a_non_monomial_form_match_oracle():
    """Under F = g^-T B g^-1, for g from ``transvections``, the perp of a
    line is not read off a signed permutation of its coordinates; g x g^-1
    lies in the algebra of F for x in sp4."""
    rng = random.Random("ffgeom-form")
    g, g_inv = transvections(rng, 4)
    form = matrix_product(transpose(g_inv), SP_FORM, g_inv)
    assert sum(sum(1 for a in row if a) > 1 for row in form.num) == 3
    # orbits [2,1^2], [2^2] and [4] among them
    elements = [matrix_product(g, random_sp4_nilpotent(rng), g_inv) for _ in range(10)]
    case = random_case("isotropic-line", form, elements)
    for p in (2, 3, 5):
        assert swept_rows(case, p) == oracle_rows(case, p)


def test_space_expressions_are_evaluated_once_per_call(monkeypatch):
    """Each space expression that a prediction reads goes through the
    checked ``counting_polynomial`` once per call, whatever the number of
    primes, so a hand-built bad one still raises; a twisted pair's zero and
    cuspidal parts are not read."""
    evaluated = []
    counting_polynomial = ffgeom.counting_polynomial

    def recording(expr):
        evaluated.append(expr)
        return counting_polynomial(expr)

    monkeypatch.setattr(ffgeom, "counting_polynomial", recording)
    for name in ("sl4", "sp4"):
        case = load_case(name)
        evaluated.clear()
        assert verify_fiber_counts(case, [2, 3, 5, 7])["all_match"]
        attrs = [attr for _, _, attr in ffgeom._strata_for(case)[1]]
        exprs = [getattr(o, attr) for o in case.orbits
                 for attr in (attrs[:1] if o.zero_part_twisted_pair else attrs)]
        assert sorted(map(str, evaluated)) == sorted(str(e) for e in exprs if e is not None)
    case = random_case("two-plane", None, [NOT_IN_SP])
    case = case._replace(orbits=(case.orbits[0]._replace(full_fiber=("aff", -1)),))
    with pytest.raises(ValueError, match="aff"):
        verify_fiber_counts(case, [2])


def test_sweep_reads_a_form_on_lines_only():
    x = parse_matrix_text("0,0,1,0;0,0,0,0;0,0,0,0;0,0,0,0").num
    with pytest.raises(ValueError, match="lines only, got k = 2"):
        ffgeom._sweep(3, 4, 2, SP_FORM, [x], [("middle-zero",)])


def test_sp4_isotropic_lines_are_all_lines():
    case = load_case("sp4")
    report = verify_fiber_counts(case, [3])
    full_rows = {r["orbit"]: r for r in report["rows"] if r["stratum"] == "full"}
    assert full_rows["[1^4]"]["count"] == 3 ** 3 + 3 ** 2 + 3 + 1


def test_sp4_residue_classes():
    case = load_case("sp4")
    report = verify_fiber_counts(case, [3, 5])
    rows = {(r["orbit"], r["prime"], r["stratum"]): r["count"] for r in report["rows"]}
    assert rows[("[2^2]", 5, "zero")] == 2
    assert rows[("[2^2]", 5, "cuspidal")] == 4  # q - 1
    assert rows[("[2^2]", 3, "zero")] == 0
    assert rows[("[2^2]", 3, "cuspidal")] == 4  # q + 1, twisted form
    assert report["all_match"]


def test_sp4_sum_rule():
    case = load_case("sp4")
    report = verify_fiber_counts(case, [3, 5])
    by_key = {(r["orbit"], r["prime"], r["stratum"]): r["count"] for r in report["rows"]}
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
    assert report["all_match"]
    rows = {(r["orbit"], r["prime"], r["stratum"]): r["count"] for r in report["rows"]}
    assert rows[("[2,1^2]", 2, "full")] == 11  # 2q^2+q+1 at q=2
    assert rows[("[2^2]", 2, "full")] == 7  # q^2+q+1 at q=2
    assert rows[("[2^2]", 2, "cuspidal")] == 6  # q^2+q at q=2
    assert rows[("[3,1]", 3, "cuspidal")] == 2  # q-1
    assert rows[("[1^4]", 2, "full")] == gaussian_binomial(4, 2, 2)


def test_report_detects_mismatch():
    # every fiber of this case is predicted to be a point; E_12 has 11 stable
    # planes over F_2
    x = parse_matrix_text("0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0")
    report = verify_fiber_counts(random_case("two-plane", None, [x]), [2])
    assert not report["all_match"]
    assert [(r["stratum"], r["count"], r["predicted"], r["match"]) for r in report["rows"]] == [
        ("full", 11, 1, False),
        ("cuspidal", 0, 0, True),
    ]


def test_strata_check_the_case():
    zero = RatMatrix.zeros(4, 4)
    with pytest.raises(ValueError, match="needs a form"):
        verify_fiber_counts(random_case("isotropic-line", None, [zero]), [3])
    with pytest.raises(ValueError, match="unknown flag kind"):
        verify_fiber_counts(random_case("three-plane", None, [zero]), [3])


def oracle_rows(case, p):
    k, strata = STRATA[case.flag_kind]
    form = case.form.num if case.form is not None else None
    return {
        (orbit.partition.label(), stratum): flag_count_by_elimination(
            orbit.representative.num, p, k, form, conditions
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
    return RatMatrix.from_rows(
        [[sparse_entry(rng) if j > i else 0 for j in range(4)] for i in range(4)]
    )


def random_sp4_nilpotent(rng):
    """g N g^-1 for N = [[A, B], [0, -A^T]] with A strictly upper triangular
    and B symmetric, and g a product of symplectic transvections."""
    a, b, c, e = (sparse_entry(rng) for _ in range(4))
    n = RatMatrix.from_rows([[0, a, b, c], [0, 0, c, e], [0, 0, 0, 0], [0, 0, -a, 0]])
    g = identity(4)
    for _ in range(3):
        s, t, u = (rng.randint(-1, 1) for _ in range(3))
        if rng.random() < 0.5:
            step = [[1, 0, s, t], [0, 1, t, u], [0, 0, 1, 0], [0, 0, 0, 1]]
        else:
            step = [[1, 0, 0, 0], [0, 1, 0, 0], [s, t, 1, 0], [t, u, 0, 1]]
        g = matrix_product(g, RatMatrix.from_rows(step))
    g_inv = scaled(matrix_product(SP_FORM, transpose(g), SP_FORM), -1)
    assert matrix_product(g, g_inv) == identity(4)
    return matrix_product(g, n, g_inv)


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
    x = parse_matrix_text("0,0,3,0;0,0,0,0;0,0,0,0;0,0,0,0").num
    swept, oracle = single_fact_counts(x, 3, k, SP_FORM, FACTS)
    assert swept == oracle


def single_fact_counts(x, p, k, form, facts):
    """(the sweep's, the oracle's) counts of the x-stable k-subspaces that
    meet each of ``facts`` alone."""
    return condition_counts(x, p, k, form, [(f,) for f in facts])


def condition_counts(x, p, k, form, condition_sets):
    """(the sweep's, the oracle's) counts of the x-stable k-subspaces that
    meet every condition of each of ``condition_sets``."""
    swept = ffgeom._sweep(p, len(x), k, form, [x], condition_sets)[0]
    form = form.num if form is not None else None
    return swept, [
        flag_count_by_elimination(x, p, k, form, ("stable", *conditions))
        for conditions in condition_sets
    ]


def degenerate_form_nilpotent(rng):
    """A nilpotent x with x^T B + B x = 0 for B = DEGENERATE_FORM, whose
    radical is R = <e_2, e_4>: x keeps R, acting on it by a nilpotent, and
    acts on F^4 / R, where B is the form of sl_2, by a nilpotent of sl_2."""
    b, e = (rng.choice((1, -1, 2)) for _ in range(2))
    a = rng.choice((((0, b), (0, 0)), ((0, 0), (b, 0)), ((b, b), (-b, -b)), ((0, 0), (0, 0))))
    f = rng.choice((((0, e), (0, 0)), ((0, 0), (e, 0))))
    rows = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[2 * i][2 * j] = a[i][j]
            rows[2 * i + 1][2 * j] = sparse_entry(rng)
            rows[2 * i + 1][2 * j + 1] = f[i][j]
    x = RatMatrix.from_rows(rows)
    ffgeom._validate_element(x, DEGENERATE_FORM)
    return x


def rank_one_keeping_perps(rng):
    """x = u (B u)^T for B = SKEWED_FORM and a u with u^T B u = 0: nilpotent
    of rank 1, and w^T B x = 0 for w in ker x = (B u)^perp, so x keeps the
    perp of every line of ker x.  x is not in the algebra of B, and its
    image <u> need not lie in W."""
    while True:
        u = [sparse_entry(rng) for _ in range(4)]
        bu = [sum(map(operator.mul, row, u)) for row in SKEWED_FORM.num]
        if any(u) and sum(map(operator.mul, u, bu)) == 0:
            return RatMatrix.from_rows([[a * b for b in bu] for a in u])


SWEEP_ORACLE_CASES = ["no-form-d2", "no-form-d3", "no-form-d4", "no-form-d5",
                      "sp4", "non-monomial", "degenerate", "skewed"]


@pytest.mark.parametrize("kind", SWEEP_ORACLE_CASES)
def test_sweep_counts_match_oracle(kind):
    """The sweep's count of all stable subspaces and of each fact alone
    against the oracle, for p = 2, 3 and 5: seeded random nilpotents with
    no form at k = 1 and 2, and at k = 1 the nilpotents of sp4 under the
    standard form, under the non-monomial form of
    ``test_line_facts_under_a_non_monomial_form_match_oracle`` and under a
    form of rank 2, and elements of rank 1 that keep the perps of a form
    neither symmetric nor alternating, as the lines of W and im x are all
    that can differ under any form."""
    rng = random.Random(f"ffgeom-sweep:{kind}")
    g = g_inv = identity(4)
    form = {"sp4": SP_FORM, "degenerate": DEGENERATE_FORM, "skewed": SKEWED_FORM}.get(kind)
    if kind == "non-monomial":
        g, g_inv = transvections(random.Random("ffgeom-form"), 4)
        form = matrix_product(transpose(g_inv), SP_FORM, g_inv)
    sets = [()] + [(f,) for f in (FACTS if form is not None else FACTS[:2])]
    for p in (2, 3, 5):
        if form is None:
            d = int(kind[-1])
            xs = [random_nilpotent(rng, d).num for _ in range(2)]
            cases = [(x, k) for x in xs for k in (1, 2) if k < d]
        else:
            make = {"degenerate": degenerate_form_nilpotent,
                    "skewed": rank_one_keeping_perps}.get(kind, random_sp4_nilpotent)
            cases = [(matrix_product(g, make(rng), g_inv).num, 1) for _ in range(4)]
        for x, k in cases:
            swept, oracle = condition_counts(x, p, k, form, sets)
            assert swept == oracle, (x, p, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_fact_of_a_nonzero_element_matches_oracle(k):
    """sub-nonzero and quot-nonzero alone, with no form, on conjugated
    Jordan matrices of rank below k, of rank k, where quot-nonzero compares
    the echelon bases of V and im x, and of rank above k, where it holds
    with no reduction; a wrong pattern key or rank shortcut then cannot
    hide behind another fact of its stratum."""
    rng = random.Random(f"ffgeom-facts:{k}")
    shapes = [[2, 1, 1], [2, 2], [3, 1], [4]] + ([[5]] if k == 3 else [])
    ranks = set()
    for parts in shapes:
        x = conjugate(rng, jordan_matrix(Partition.of(parts))).num
        ranks.add(len(x) - len(parts))
        for p in (2, 3, 5):
            swept, oracle = single_fact_counts(x, p, k, None, ("sub-nonzero", "quot-nonzero"))
            assert swept == oracle, (parts, p)
    assert k in ranks and max(ranks) > k and (k == 1 or min(ranks) < k)


@pytest.mark.parametrize("d,p", [(5, 2), (5, 3), (ffgeom.MAX_DIM, 2)])
def test_plane_facts_of_every_jordan_type_match_oracle(d, p):
    """sub-nonzero and quot-nonzero, alone and together, on the planes of a
    conjugated Jordan matrix of every type of dimension d, against the
    oracle: the planes outside ker x are counted, not listed, and those of
    rank x = 2 with im x ⊄ ker x hold one, V = im x, that holds im x."""
    rng = random.Random(f"ffgeom-plane-facts:{d}:{p}")
    sets = [("sub-nonzero",), ("quot-nonzero",), ("sub-nonzero", "quot-nonzero")]
    exceptions = 0
    for partition in Partition.all_of(d):
        x = conjugate(rng, jordan_matrix(partition)).num
        exceptions += len(partition.parts) == d - 2 and partition.parts[0] == 3
        swept, oracle = condition_counts(x, p, 2, None, sets)
        assert swept == oracle, (partition, p)
    assert exceptions == 1


@pytest.mark.parametrize("monomial", [True, False])
def test_each_fact_of_a_line_under_a_form_matches_oracle(monomial):
    """Every condition alone on the lines of nonzero sp4 nilpotents, of
    rank 1 and above, under the standard form and under g^-T B g^-1."""
    rng = random.Random(f"ffgeom-line-facts:{monomial}")
    g, g_inv = (identity(4),) * 2 if monomial else transvections(rng, 4)
    form = matrix_product(transpose(g_inv), SP_FORM, g_inv)
    assert monomial == all(sum(1 for a in row if a) == 1 for row in form.num)
    ranks = set()
    for _ in range(8):
        x = matrix_product(g, random_sp4_nilpotent(rng), g_inv).num
        if not any(map(any, x)):
            continue
        ranks.add(min(len(fraction_rref(x)[1]), 2))
        for p in (2, 3, 5):
            swept, oracle = single_fact_counts(x, p, 1, form, FACTS)
            assert swept == oracle, (x, p)
    assert ranks == {1, 2}
