import random
import re
from dataclasses import replace

import pytest

import oracles
from gradedorbits import rootdata
from gradedorbits.exactlin import RatMatrix, hermite_rows, invariant_factors, is_prime
from gradedorbits.rootdata import (
    RootDatum,
    TooLarge,
    UnsupportedType,
    prime_report,
    standard_root_datum,
)
from oracles import (
    bad_primes_by_highest_root_search,
    byte_tables,
    closed_families_by_join_closure,
    closed_families_by_w_search,
    closed_subsystems,
    closure_by_members,
    in_hermite_span,
    orbit_families,
    pairing,
    prime_report_by_all_families,
    simple_reflections,
    snf_invariant_factors_by_minors,
    sorted_families,
    walk,
)


def test_root_counts():
    assert len(standard_root_datum("sl", 4).roots) == 12
    assert len(standard_root_datum("sp", 4).roots) == 8
    sl2 = standard_root_datum("sl", 2)
    assert set(sl2.roots) == {(1, -1), (-1, 1)}


def test_unsupported_type():
    with pytest.raises(UnsupportedType):
        standard_root_datum("so", 4)
    with pytest.raises(UnsupportedType):
        standard_root_datum("sp", 3)


@pytest.mark.parametrize("kind,n", [("sl", 2), ("sl", 3), ("sl", 4), ("sp", 4)])
def test_root_datum_axioms(kind, n):
    rd = standard_root_datum(kind, n)
    roots = set(rd.roots)
    for alpha, alphav in zip(rd.roots, rd.coroots):
        assert pairing(alpha, alphav) == 2
        assert tuple(-x for x in alpha) in roots
    # reflections permute the root set
    for alpha, alphav in zip(rd.roots, rd.coroots):
        for beta in rd.roots:
            c = pairing(beta, alphav)
            image = tuple(b - c * a for b, a in zip(beta, alpha))
            assert image in roots


def test_closed_subsystems_sl2():
    rd = standard_root_datum("sl", 2)
    subs = closed_subsystems(rd)
    assert len(subs) == 2
    sizes = sorted(len(s.member_indices) for s in subs)
    assert sizes == [0, 2]


def test_closed_subsystems_sp4_contains_long_a1a1():
    rd = standard_root_datum("sp", 4)
    long_roots = {(2, 0), (-2, 0), (0, 2), (0, -2)}
    target = tuple(
        sorted(i for i, r in enumerate(rd.roots) if r in long_roots)
    )
    subs = {s.member_indices for s in closed_subsystems(rd)}
    assert target in subs


def test_closed_subsystems_sl4_sizes():
    rd = standard_root_datum("sl", 4)
    sizes = {len(s.member_indices) for s in closed_subsystems(rd)}
    assert sizes == {0, 2, 4, 6, 12}


@pytest.mark.parametrize("kind,n", [("sp", 4), ("sl", 4)])
def test_closure_idempotence(kind, n):
    rd = standard_root_datum(kind, n)
    for sub in closed_subsystems(rd):
        if not sub.member_indices:
            continue
        hnf = hermite_rows([rd.roots[i] for i in sub.member_indices])
        inside = {i for i, r in enumerate(rd.roots) if in_hermite_span(hnf, r)}
        assert inside == set(sub.member_indices)


def test_closed_subsystems_include_empty_and_full():
    rd = standard_root_datum("sp", 4)
    fams = {s.member_indices for s in closed_subsystems(rd)}
    assert () in fams
    assert tuple(range(8)) in fams


def test_guard():
    """The bound is on n, per type: SL(21) and Sp(26) are the largest
    accepted."""
    assert rootdata.MAX_N == {"sl": 21, "sp": 26}
    for kind, largest in rootdata.MAX_N.items():
        rd = standard_root_datum(kind, largest)
        assert len(rd.roots) == (largest * (largest - 1) if kind == "sl" else largest**2 // 2)
        with pytest.raises(TooLarge):
            standard_root_datum(kind, largest + 2)


@pytest.mark.parametrize(
    "kind,n,limit",
    [("sl", 99999999999, 21), ("sl", 22, 21), ("sp", 28, 26)],
    ids=["sl-huge", "sl22", "sp28"],
)
def test_guard_before_any_root_is_built(monkeypatch, kind, n, limit):
    def build_nothing(*args):
        raise AssertionError("roots were built")

    monkeypatch.setattr(rootdata, "_family", build_nothing)
    label = f"{'SL' if kind == 'sl' else 'Sp'}({n})"
    message = f"{label} is too large: the prime report is limited to n <= {limit}"
    with pytest.raises(TooLarge, match=rf"^{re.escape(message)}$"):
        standard_root_datum(kind, n)


def test_prime_report_sl4():
    rep = prime_report(standard_root_datum("sl", 4))
    assert rep.pretty_good_excluded == (2,)
    assert rep.rather_good_excluded == (2,)
    assert rep.good_excluded == ()
    assert rep.torsion == ()


def test_prime_report_sp4():
    rep = prime_report(standard_root_datum("sp", 4))
    assert rep.good_excluded == (2,)
    assert rep.torsion == (2,)
    assert rep.pretty_good_excluded == (2,)
    assert rep.rather_good_excluded == (2,)


def test_prime_report_sl2():
    rep = prime_report(standard_root_datum("sl", 2))
    assert rep.torsion == ()
    assert rep.rather_good_excluded == (2,)


def test_pretty_good_contains_full_system_torsion():
    for kind, n in [("sl", 3), ("sl", 4), ("sp", 4)]:
        rep = prime_report(standard_root_datum(kind, n))
        assert set(rep.pretty_good_excluded) >= set(rep.torsion)
        assert set(rep.pretty_good_excluded) >= set(rep.good_excluded)
        assert set(rep.rather_good_excluded) >= set(rep.good_excluded)


def test_prime_report_invariant_under_root_order():
    rd = standard_root_datum("sp", 4)
    shuffled = _shuffled(rd, 3)
    assert shuffled.roots != rd.roots
    assert prime_report(shuffled) == prime_report(rd)


def _shuffled(rd, seed):
    order = list(range(len(rd.roots)))
    random.Random(seed).shuffle(order)
    return replace(
        rd,
        roots=tuple(rd.roots[i] for i in order),
        coroots=tuple(rd.coroots[i] for i in order),
    )


# ---------------------------------------------------------------------------
# the Weyl-group search of the oracles against the join-closure oracle


SEARCHED = [("sl", n) for n in range(2, 8)] + [("sp", n) for n in (2, 4, 6, 8)]


def _search(rd, side, with_w=True):
    """(families, representatives) of the search on one side of ``rd``,
    sorted, under W or under the trivial group."""
    on_roots, on_coroots = simple_reflections(rd)
    reflections = on_roots if side == "roots" else on_coroots
    seen, reps = closed_families_by_w_search(
        getattr(rd, side), reflections if with_w else ()
    )
    return sorted_families(seen), sorted_families(reps)


@pytest.mark.parametrize("side", ["roots", "coroots"])
@pytest.mark.parametrize("kind,n", SEARCHED)
def test_closed_families_equal_join_closure_oracle(deadline, kind, n, side):
    rd = standard_root_datum(kind, n)
    expected = closed_families_by_join_closure(getattr(rd, side))
    with deadline(10):
        families, reps = _search(rd, side)
        # the trivial group: every family is its own orbit
        trivial = _search(rd, side, with_w=False)
    assert families == expected
    assert set(reps) <= set(expected)
    assert trivial == (expected, expected)


@pytest.mark.parametrize("side", ["roots", "coroots"])
def test_closed_families_equal_oracle_in_shuffled_order(side):
    rd = _shuffled(standard_root_datum("sp", 6), 7)
    families, _ = _search(rd, side)
    assert families == closed_families_by_join_closure(getattr(rd, side))


@pytest.mark.parametrize(
    "n,partitions", [(2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15)]
)
def test_sl_orbit_representatives_are_integer_partitions(n, partitions):
    """The closed families of SL_n are the set partitions of n points, and
    W = S_n permutes the points, so the orbits are the integer partitions
    of n: one representative of each block-size multiset."""
    rd = standard_root_datum("sl", n)
    _, reps = _search(rd, "roots")
    assert len(reps) == partitions

    def block_sizes(family):
        """Each point's block size, 1 + its roots e_i - e_j in the family."""
        sizes = [1] * n
        for k in family:
            sizes[rd.roots[k].index(1)] += 1
        return tuple(sorted(sizes))

    assert len({block_sizes(f) for f in reps}) == partitions


LABELLED = [("sl", n) for n in range(2, 10)] + [("sp", n) for n in range(2, 14, 2)]


@pytest.mark.parametrize("side", ["roots", "coroots"])
@pytest.mark.parametrize("kind,n", LABELLED)
def test_label_families_are_exactly_the_w_orbits(deadline, kind, n, side):
    """Each family that ``orbit_families`` writes down is closed, no two
    lie in one W-orbit, and their orbits cover every family the search
    finds: the labels are the orbits, orbit by orbit."""
    rd = standard_root_datum(kind, n)
    vectors = getattr(rd, side)
    labelled = orbit_families(rd)[side == "coroots"]
    on_roots, on_coroots = simple_reflections(rd)
    reflections = on_roots if side == "roots" else on_coroots
    generators = [byte_tables(perm) for perm in reflections]
    with deadline(10):
        families, reps = closed_families_by_w_search(vectors, reflections)
    covered = set()
    for family in labelled:
        assert closure_by_members(vectors, family) == tuple(sorted(family))
        orbit = walk(sum(1 << k for k in family), generators)[0]
        assert not orbit & covered
        covered |= orbit
    assert covered == families
    assert len(labelled) == len(reps)


def test_label_counts():
    """The orbit counts: p(n) for SL(n), and 2, 5, 10, 20, 36, 65 on each
    side of Sp(2m) for m = 1 to 6."""
    for n, partitions in ((2, 2), (6, 11), (9, 30), (12, 77), (19, 490)):
        assert [len(s) for s in orbit_families(standard_root_datum("sl", n))] == [partitions] * 2
    for m, count in enumerate((2, 5, 10, 20, 36, 65), start=1):
        assert [len(s) for s in orbit_families(standard_root_datum("sp", 2 * m))] == [count] * 2


@pytest.mark.parametrize("kind,n", SEARCHED)
def test_simple_reflections_are_involutive_permutations(kind, n):
    rd = standard_root_datum(kind, n)
    on_roots, on_coroots = simple_reflections(rd)
    assert len(on_roots) == len(on_coroots) == (n - 1 if kind == "sl" else n // 2)
    for perms, vectors in ((on_roots, rd.roots), (on_coroots, rd.coroots)):
        for perm in perms:
            assert sorted(perm) == list(range(len(vectors)))
            assert all(perm[perm[k]] == k for k in range(len(vectors)))
            assert perm != tuple(range(len(vectors)))


def test_reflection_image_outside_the_list_is_an_error():
    """SL(3) without the roots +-(e_0 - e_2): a simple reflection maps one
    simple root to their sum, which is not listed."""
    rd = standard_root_datum("sl", 3)
    kept = tuple(r for r in rd.roots if r not in {(1, 0, -1), (-1, 0, 1)})
    partial = RootDatum(
        kind="sl",
        label="partial",
        ambient_rank=3,
        roots=kept,
        coroots=kept,
        x_relations=rd.x_relations,
        y_basis=rd.y_basis,
    )
    with pytest.raises(ValueError, match="not listed"):
        simple_reflections(partial)
    with pytest.raises(ValueError, match="not listed"):
        closed_subsystems(partial)


@pytest.mark.parametrize("kind,n", SEARCHED)
def test_prime_report_equals_all_family_oracle(kind, n):
    rd = standard_root_datum(kind, n)
    assert prime_report(rd) == prime_report_by_all_families(rd)


@pytest.mark.parametrize("kind,n", [("sl", 6), ("sp", 8)])
def test_one_torsion_quotient_per_orbit_representative(monkeypatch, kind, n):
    rd = standard_root_datum(kind, n)
    quotients = []
    torsion = rootdata.torsion_primes_of_quotient

    def counted(rows):
        quotients.append(rows)
        return torsion(rows)

    monkeypatch.setattr(rootdata, "torsion_primes_of_quotient", counted)
    prime_report(rd)
    root_labels, coroot_labels = orbit_families(rd)
    root_families, root_reps = _search(rd, "roots")
    coroot_families, coroot_reps = _search(rd, "coroots")
    # one per label on each side, the centre's being the whole system's
    # X-side quotient; a label per orbit
    assert len(quotients) == len(root_labels) + len(coroot_labels)
    assert (len(root_labels), len(coroot_labels)) == (len(root_reps), len(coroot_reps))
    assert len(root_reps) < len(root_families)
    assert len(coroot_reps) < len(coroot_families)


@pytest.mark.parametrize(
    "kind,n,side,closures",
    [("sl", 6, "roots", 18), ("sl", 6, "coroots", 18),
     ("sp", 8, "roots", 55), ("sp", 8, "coroots", 56)],
)
def test_closures_per_search(monkeypatch, kind, n, side, closures):
    """A representative is joined with one vector from each orbit of the
    simple reflections fixing it, and +-v once: the singleton-closure
    search took 114 closures per side for SL(6) and 219 and 221 for Sp(8)."""
    calls = []
    close = oracles._close

    def counted(*args):
        calls.append(args)
        return close(*args)

    monkeypatch.setattr(oracles, "_close", counted)
    _search(standard_root_datum(kind, n), side)
    assert len(calls) == closures


@pytest.mark.parametrize("side", ["roots", "coroots"])
@pytest.mark.parametrize("kind,n", [("sl", 5), ("sp", 6)])
def test_search_under_a_subgroup_equals_oracle(kind, n, side):
    """Any group of linear permutations gives every family: here the one
    generated by the first simple reflection alone."""
    rd = standard_root_datum(kind, n)
    on_roots, on_coroots = simple_reflections(rd)
    first = (on_roots if side == "roots" else on_coroots)[:1]
    seen, reps = closed_families_by_w_search(getattr(rd, side), first)
    expected = closed_families_by_join_closure(getattr(rd, side))
    assert sorted_families(seen) == expected
    assert len(expected) > len(reps) > len(expected) // 2


BASED = [("sl", n) for n in range(2, 13)] + [("sp", n) for n in range(2, 18, 2)]


@pytest.mark.parametrize("kind,n", BASED)
def test_label_basis_spans_the_family_lattice(kind, n):
    """Each label's basis is independent and spans the lattice of all the
    vectors of its family, on both sides."""
    rank = standard_root_datum(kind, n).ambient_rank
    for components in rootdata._COMPONENTS[kind]:
        for label in rootdata._labels(components, rank):
            basis = rootdata._basis(rank, label)
            hnf = hermite_rows(basis)
            assert len(hnf) == len(basis)
            assert hnf == hermite_rows(rootdata._family(rank, label))


@pytest.mark.parametrize("kind,n", BASED)
def test_bad_primes_equal_highest_root_search(kind, n):
    """The basis of the whole system's label is the simple system of a
    height functional, and the highest root written down has the bad
    primes that a search over every positive root finds."""
    rd = standard_root_datum(kind, n)
    rank = rd.ambient_rank
    simple = rootdata._basis(rank, (("A" if kind == "sl" else "C", rank),))
    assert set(simple) == {rd.roots[k] for k in oracles._simple_roots(rd)}
    assert rootdata._bad_primes(rd, simple) == bad_primes_by_highest_root_search(rd)


def test_coordinates_come_from_one_elimination_and_must_be_integers():
    basis = ((2, 0), (0, 1))
    assert rootdata._coords_in_basis(basis, [(4, 3), (0, -1)]) == ((2, 3), (0, -1))
    with pytest.raises(ValueError, match="not in the integer span"):
        rootdata._coords_in_basis(basis, [(4, 3), (1, 0)])
    with pytest.raises(ValueError, match="not in the span"):
        rootdata._coords_in_basis(((1, -1, 0),), [(1, 0, 0)])


@pytest.mark.parametrize("kind,n", [("sl", 3), ("sl", 4), ("sl", 5), ("sp", 4), ("sp", 6)])
def test_quotient_invariant_factors_equal_minors_oracle(monkeypatch, kind, n):
    """Every matrix whose torsion decides a prime report has the invariant
    factors of the minors-gcd oracle."""
    quotients = []
    torsion = rootdata.torsion_primes_of_quotient

    def recorded(rows):
        quotients.append([list(r) for r in rows])
        return torsion(rows)

    monkeypatch.setattr(rootdata, "torsion_primes_of_quotient", recorded)
    prime_report(standard_root_datum(kind, n))
    quotients = [rows for rows in quotients if rows]
    assert quotients
    for rows in quotients:
        got = invariant_factors(RatMatrix.from_rows(rows))
        assert got == snf_invariant_factors_by_minors(rows)


def test_prime_report_shares_the_search_when_coroots_equal_roots(monkeypatch):
    """SL writes down one list of label bases for both sides: p(4) = 5
    bases for SL(4), against 5 a side for Sp(4)."""
    built = []
    basis = rootdata._basis

    def counted(rank, label):
        built.append(label)
        return basis(rank, label)

    sl, sp = standard_root_datum("sl", 4), standard_root_datum("sp", 4)
    monkeypatch.setattr(rootdata, "_basis", counted)
    prime_report(sl)
    assert len(built) == 5
    built.clear()
    prime_report(sp)
    assert len(built) == 10


# ---------------------------------------------------------------------------
# closed forms, independent of the search


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


@pytest.mark.parametrize(
    "n,bell", [(2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877), (8, 4140)]
)
def test_sl_closed_families_are_set_partitions(deadline, n, bell):
    """A Z-closed set of type A roots e_i - e_j is the set of roots inside
    the blocks of a set partition of {0, ..., n-1}, so there are Bell(n)."""
    rd = standard_root_datum("sl", n)
    index = {r: k for k, r in enumerate(rd.roots)}

    def root(i, j):
        return tuple((k == i) - (k == j) for k in range(n))

    expected = {
        tuple(sorted(index[root(i, j)] for b in part for i in b for j in b if i != j))
        for part in _set_partitions(list(range(n)))
    }
    with deadline(10):
        got = [s.member_indices for s in closed_subsystems(rd)]
    assert len(got) == len(expected) == bell
    assert set(got) == expected


@pytest.mark.parametrize("n", [*range(2, 9), rootdata.MAX_N["sl"]])
def test_sl_prime_report_closed_form(deadline, n):
    """SL_n has no torsion primes (Steinberg); its pretty good exclusions
    are the primes dividing n (Herpel, Trans. AMS 2013)."""
    with deadline(10):
        rep = prime_report(standard_root_datum("sl", n))
    assert rep.torsion == ()
    assert rep.pretty_good_excluded == tuple(
        p for p in range(2, n + 1) if n % p == 0 and is_prime(p)
    )


@pytest.mark.parametrize("m", [*range(1, 6), rootdata.MAX_N["sp"] // 2])
def test_sp_prime_report_closed_form(deadline, m):
    """Sp_2m for m >= 2 has torsion prime 2 and pretty good exclusion 2.
    Sp_2 is SL_2: no torsion primes, and 2 divides n = 2."""
    with deadline(10):
        rep = prime_report(standard_root_datum("sp", 2 * m))
    assert rep.torsion == ((2,) if m >= 2 else ())
    assert rep.pretty_good_excluded == (2,)
