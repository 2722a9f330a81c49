import random
from unittest import mock

import pytest

from gradedorbits import liegrade
from gradedorbits.exactlin import RatMatrix, nullspace, parse_matrix_text, solve_linear
from gradedorbits.liegrade import (
    BadForm,
    NonIntegralWeights,
    NoTriple,
    NotSimultaneouslyDiagonal,
    Sl2Triple,
    _all_cells,
    _brackets,
    _equations,
    _integer_eigenvalues,
    _matrix,
    _piece,
    _solve_f,
    _solve_h,
    adapted_sl2_triple,
    build_algebra,
    canonical_parabolic,
    check_n_rigid,
    chi_prime,
    graded_component,
    validate_cocharacter,
    weight_matrix,
)

from oracles import (
    brackets_in_span,
    conjugated_piece_by_nullspace,
    dense_bracket,
    diagonalising_basis,
    fraction_rref,
    identity,
    in_span_by_rref,
    matrix_product,
    matrix_sum,
    rat_inverse,
    rigidity_by_conjugates,
    scaled,
    sl2_relations,
    sp_in_cells_by_nullspace,
    standard_symplectic_form,
    subspace_in_cells_by_nullspace,
    transpose,
    triple_f_by_full_system,
    triple_h_by_full_system,
    whole_algebra,
)


def unit(d, i, j, value=1):
    rows = [[0] * d for _ in range(d)]
    rows[i][j] = value
    return RatMatrix.from_rows(rows)


WORKED_CHI = (1, 0, 0, -1)
# x with cells (2,1) and (4,3): a degree -1 nilpotent of Jordan type [2,2]
WORKED_X = RatMatrix.from_rows(
    [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
)
# a degree -1 element under WORKED_CHI whose triple has a non-diagonal h
NON_TORAL_X = RatMatrix.from_rows(
    [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, -2, 2, 0]]
)


def _off_diagonal(h):
    return any(i != j for i, j in h.support())


WEIGHT_MATRIX_EXPECTED = [
    [0, 1, 1, 2],
    [-1, 0, 0, 1],
    [-1, 0, 0, 1],
    [-2, -1, -1, 0],
]

CHI_PRIME_WEIGHT_MATRIX = [
    [0, -2, 0, -2],
    [2, 0, 2, 0],
    [0, -2, 0, -2],
    [2, 0, 2, 0],
]

COMBINED_INDICATOR = [
    [0, 0, 2, 2],
    [0, 0, 2, 2],
    [-2, -2, 0, 0],
    [-2, -2, 0, 0],
]


def test_build_algebra_dimensions():
    assert len(whole_algebra(build_algebra("sl", 2))) == 3
    assert len(whole_algebra(build_algebra("sl", 4))) == 15
    sp4 = build_algebra("sp", 4)
    assert len(whole_algebra(sp4)) == 10
    for m in whole_algebra(sp4):
        assert sp4.contains(m)


@pytest.mark.parametrize(
    "kind,d", [("sl", d) for d in range(1, 7)] + [("sp", d) for d in (2, 4, 6, 8)]
)
def test_lazy_basis_equals_the_eager_one(kind, d):
    # the whole algebra, built from its cells as the degree-0 piece of the
    # zero cocharacter, is the basis that an eager constructor wrote down:
    # sl: E_ij row-major off the diagonal, then e_a - e_(a+1); sp: the
    # Fraction nullspace of M^T B + B M = 0 on all cells
    got = graded_component(build_algebra(kind, d), (0,) * d, 0)
    if kind == "sl":
        want = tuple(unit(d, i, j) for i in range(d) for j in range(d) if i != j) + tuple(
            matrix_sum(unit(d, a, a), unit(d, a + 1, a + 1, -1)) for a in range(d - 1)
        )
    else:
        form = standard_symplectic_form(d).num
        want = sp_in_cells_by_nullspace(form, [(i, j) for i in range(d) for j in range(d)])
    assert got == want
    assert len(got) == (d * d - 1 if kind == "sl" else d * (d + 1) // 2)


def test_sp_bracket_closed():
    sp4 = build_algebra("sp", 4)
    basis = whole_algebra(sp4)[:4]
    for a in basis:
        for b in basis:
            assert sp4.contains(dense_bracket(a, b))


def test_bad_form_rejected():
    # an odd dimension has no symplectic form
    for d in (1, 3, 5):
        with pytest.raises(BadForm):
            build_algebra("sp", d)


def test_weight_matrix_examples():
    assert weight_matrix(WORKED_CHI).num == tuple(
        tuple(r) for r in WEIGHT_MATRIX_EXPECTED
    )
    assert weight_matrix((0, 0, 0)).is_zero()
    assert weight_matrix((-1, 1, -1, 1)).num == tuple(
        tuple(r) for r in CHI_PRIME_WEIGHT_MATRIX
    )


def test_graded_component_dimensions():
    sl4 = build_algebra("sl", 4)
    assert len(graded_component(sl4, WORKED_CHI, 2)) == 1
    assert len(graded_component(sl4, WORKED_CHI, -1)) == 4
    assert len(graded_component(sl4, WORKED_CHI, 99)) == 0
    assert len(graded_component(sl4, WORKED_CHI, 0)) == 5


@pytest.mark.parametrize(
    "kind,d,weights",
    [("sl", 4, (1, 0, 0, -1)), ("sp", 4, (2, 1, -2, -1))],
)
def test_bracket_respects_grading(kind, d, weights):
    alg = build_algebra(kind, d)
    chi = tuple(weights)
    spread = max(weights) - min(weights)
    comps = {
        n: graded_component(alg, chi, n) for n in range(-spread, spread + 1)
    }
    degs = [n for n, c in comps.items() if c]
    total = sum(len(comps[n]) for n in degs)
    assert total == len(whole_algebra(alg))
    for a in degs:
        for b in degs:
            target_basis = comps.get(a + b, ())
            for x in comps[a]:
                for y in comps[b]:
                    z = dense_bracket(x, y)
                    if z.is_zero():
                        continue
                    assert in_span_by_rref(target_basis, z)


def test_adapted_triple_worked_example():
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, WORKED_X)
    assert triple.bracket_relations_hold()
    assert triple.h.num == ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1))
    weights = chi_prime(triple, WORKED_CHI)
    assert weights == (-1, 1, -1, 1)
    assert weight_matrix(weights).num == tuple(
        tuple(r) for r in CHI_PRIME_WEIGHT_MATRIX
    )
    # placement
    g1 = graded_component(sl4, WORKED_CHI, 1)
    g0 = graded_component(sl4, WORKED_CHI, 0)
    assert in_span_by_rref(g0, triple.h)
    assert in_span_by_rref(g1, triple.f)


def test_adapted_triple_sl2():
    sl2 = build_algebra("sl", 2)
    chi = (1, -1)
    triple = adapted_sl2_triple(sl2, chi, 2, unit(2, 0, 1))
    assert triple.h.num == ((1, 0), (0, -1))
    assert triple.f.num == ((0, 0), (1, 0))


def test_adapted_triple_zero_rejected():
    sl4 = build_algebra("sl", 4)
    with pytest.raises(NoTriple):
        adapted_sl2_triple(sl4, WORKED_CHI, -1, RatMatrix.zeros(4, 4))


def test_adapted_triple_degree_zero_rejected():
    sl4 = build_algebra("sl", 4)
    with pytest.raises(ValueError):
        adapted_sl2_triple(sl4, WORKED_CHI, 0, WORKED_X)


def test_chi_prime_standard_jordan_two_two():
    e = RatMatrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    f = transpose(e)
    h = RatMatrix.from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    )
    triple = Sl2Triple(e, h, f)
    assert triple.bracket_relations_hold()
    # e has degree 1 under (1, 0, 1, 0), and h degree 0
    assert chi_prime(triple, (1, 0, 1, 0)) == (1, -1, 1, -1)


def test_bracket_relations_hold_says_no_to_each_broken_relation():
    # sl2 in the top left block of sl_3: as given, conjugated by
    # p = 1 + E_01 / 4 (h.den = 2, f.den = 16) and rescaled to (2e, h, f/2).
    # z is central in the block, so e + z breaks [h, e] = 2e alone, f + z
    # breaks [h, f] = -2f alone and 2f breaks [e, f] = h alone
    e, f = unit(3, 0, 1), unit(3, 1, 0)
    h = RatMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    p = RatMatrix.from_rows([[1, "1/4", 0], [0, 1, 0], [0, 0, 1]])
    conjugated = tuple(matrix_product(rat_inverse(p), m, p) for m in (e, h, f))
    assert (conjugated[1].den, conjugated[2].den) == (2, 16)
    z = RatMatrix.from_rows([["1/3", 0, 0], [0, "1/3", 0], [0, 0, "-2/3"]])
    for e, h, f in ((e, h, f), conjugated, (scaled(e, 2), h, scaled(f, "1/2"))):
        assert sl2_relations(e, h, f) == (True, True, True)
        assert Sl2Triple(e, h, f).bracket_relations_hold()
        broken = (
            ((matrix_sum(e, z), h, f), (False, True, True)),
            ((e, h, matrix_sum(f, z)), (True, False, True)),
            ((e, h, scaled(f, 2)), (True, True, False)),
        )
        for triple, holds in broken:
            assert sl2_relations(*triple) == holds
            assert not Sl2Triple(*triple).bracket_relations_hold()


def test_chi_prime_is_the_spectrum_of_h_on_each_block():
    # on the block of the weight-0 coordinates 1 and 2, h has eigenvalues
    # -1 and 1, listed in ascending order whatever the basis of the block
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, NON_TORAL_X)
    assert _off_diagonal(triple.h)
    assert chi_prime(triple, WORKED_CHI) == (-1, -1, 1, 1)


@pytest.mark.parametrize(
    "rows,weights,error,message",
    [
        # an entry of h between the chi-weight blocks of 1 and 0
        ([[1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], (1, 0, 0, -1),
         NotSimultaneouslyDiagonal, "grading blocks"),
        ([["1/2", 0], [0, "-1/2"]], (0, 0), NonIntegralWeights, "non-integer diagonal entry"),
        # the eigenvalues of [[0, 2], [1, 0]] are +-sqrt(2)
        ([[0, 2], [1, 0]], (0, 0), NonIntegralWeights, "integer spectrum"),
        # the Jordan block [[1, 1], [0, 1]] has a line of eigenvectors for
        # its one eigenvalue, one weight for two places
        ([[1, 1, 0], [0, 1, 0], [0, 0, -2]], (1, 1, -2), NonIntegralWeights, "not diagonalisable"),
    ],
    ids=["across-blocks", "non-integer-diagonal", "non-integral-eigenvalue", "jordan-block"],
)
def test_chi_prime_refusals(rows, weights, error, message):
    h = RatMatrix.from_rows(rows)
    zero = RatMatrix.zeros(h.rows, h.rows)
    with pytest.raises(error, match=message):
        chi_prime(Sl2Triple(zero, h, zero), tuple(weights))


def assert_pieces_form_a_parabolic(alg, datum, triple):
    """The p, n and l that the oracle builds on the datum's cells, in the
    basis that diagonalises h: p and l are subalgebras, n is an ideal of p,
    dim p = dim l + dim n, e, h and f lie in l, and dim p + dim p^- =
    dim g + dim l for the opposite parabolic p^- on the cells of indicator
    <= 0.  p comes from the oracle.  Returns the pieces."""
    p = diagonalising_basis(triple.h, datum.chi)
    pieces = {k: conjugated_piece_by_nullspace(alg, p, datum.cells(k)) for k in "pnl"}
    par, nil, levi = pieces["p"], pieces["n"], pieces["l"]
    assert brackets_in_span(par, par, par)
    assert brackets_in_span(par, nil, nil)
    assert brackets_in_span(levi, levi, levi)
    assert len(par) == len(levi) + len(nil)
    p_inv = rat_inverse(p)
    for part in (triple.e, triple.h, triple.f):
        assert in_span_by_rref(levi, matrix_product(p_inv, part, p))
    d = alg.dim_ambient
    ind = datum.indicator.num
    opp_cells = [(i, j) for i in range(d) for j in range(d) if ind[i][j] <= 0]
    opposite = conjugated_piece_by_nullspace(alg, p, opp_cells)
    assert len(par) + len(opposite) == len(whole_algebra(alg)) + len(levi)
    return pieces


def test_canonical_parabolic_worked_example():
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, WORKED_X)
    datum = canonical_parabolic(sl4, WORKED_CHI, triple, -1)
    assert datum.indicator.num == tuple(tuple(r) for r in COMBINED_INDICATOR)
    assert datum.levi_blocks == ((0, 1), (2, 3))
    assert datum.levi_block_shape == (2, 2)
    # the cells of each piece, row-major, from the indicator alone
    for which, keep in (("p", lambda s: s >= 0), ("n", lambda s: s > 0), ("l", lambda s: s == 0)):
        want = [(i, j) for i in range(4) for j in range(4) if keep(COMBINED_INDICATOR[i][j])]
        assert datum.cells(which) == want
    pieces = assert_pieces_form_a_parabolic(sl4, datum, triple)
    assert [len(pieces[k]) for k in "pnl"] == [11, 4, 7]
    # cells partition
    d = 4
    for i in range(d):
        for j in range(d):
            s = datum.indicator.num[i][j]
            assert (s > 0) + (s == 0) + (s < 0) == 1


def test_canonical_parabolic_single_hom_orbit():
    sl4 = build_algebra("sl", 4)
    x = unit(4, 1, 0)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, x)
    datum = canonical_parabolic(sl4, WORKED_CHI, triple, -1)
    assert datum.levi_blocks == ((0, 1), (2,), (3,))
    assert datum.levi_block_shape == (2, 1, 1)
    assert check_n_rigid(datum, triple, -1, datum.cells("l")) is None


def test_canonical_parabolic_rejects_degree_zero():
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, WORKED_X)
    with pytest.raises(ValueError):
        canonical_parabolic(sl4, WORKED_CHI, triple, 0)


def test_rigidity_full_algebra_fails_with_witness():
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, WORKED_X)
    datum = canonical_parabolic(sl4, WORKED_CHI, triple, -1)
    assert check_n_rigid(datum, triple, -1, _all_cells(4)) == (0, 1)


def test_rigidity_witness_is_the_first_misplaced_cell_row_major():
    """e on the cells (0,3), (1,0), (2,4), (4,1), (3,2), none of chi-degree
    n = 1, with h = f = 0, so chi' = 0 and p = 1: the witness is the
    bidegree (0, w0 - w3) = (0, 3) of the cell (0,3), first in row-major
    order, though the support, a frozenset, does not list it first."""
    cells = [(0, 3), (1, 0), (2, 4), (4, 1), (3, 2)]
    rows = [[0] * 5 for _ in range(5)]
    for i, j in cells:
        rows[i][j] = 1
    e = RatMatrix.from_rows(rows)
    assert set(e.support()) == set(cells)
    zero = RatMatrix.zeros(5, 5)
    triple = Sl2Triple(e, zero, zero)
    chi = (2, 1, 0, -1, -2)
    alg = build_algebra("sl", 5)
    datum = canonical_parabolic(alg, chi, triple, 1)
    assert check_n_rigid(datum, triple, 1, []) == (0, 3)
    assert rigidity_by_conjugates(whole_algebra(alg), chi, triple, 1) == (0, 3)


def test_rigidity_witness_is_a_cell_of_e_as_given():
    # at k = 1 the e of degree -1 is misplaced; with h not diagonal the
    # witness is still the first cell of e row-major, (1, 0), of bidegree
    # (m, m') = (chi'_1 - chi'_0, w_1 - w_0) = (0, -1), not a cell of e
    # conjugated by a basis that diagonalises h
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, NON_TORAL_X)
    assert _off_diagonal(triple.h)
    datum = canonical_parabolic(sl4, WORKED_CHI, triple, -1)
    assert check_n_rigid(datum, triple, 1, []) == (0, -1)


def test_rigidity_levi_holds():
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, WORKED_X)
    datum = canonical_parabolic(sl4, WORKED_CHI, triple, -1)
    assert check_n_rigid(datum, triple, -1, datum.cells("l")) is None


def test_rigidity_sl2_principal():
    sl2 = build_algebra("sl", 2)
    chi = (1, -1)
    triple = adapted_sl2_triple(sl2, chi, 2, unit(2, 0, 1))
    assert check_n_rigid(canonical_parabolic(sl2, chi, triple, 2), triple, 2, _all_cells(2)) is None


def test_standard_form_matches_block_shape():
    b = standard_symplectic_form(4)
    assert b.num == ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def test_triple_well_defined_on_orbit():
    # conjugating x by a degree-zero permutation gives a conjugate triple
    sl4 = build_algebra("sl", 4)
    g = RatMatrix.from_rows(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )  # swaps the two weight-zero coordinates
    conjugated = matrix_product(g, WORKED_X, g)  # g is its own inverse
    t1 = adapted_sl2_triple(sl4, WORKED_CHI, -1, WORKED_X)
    t2 = adapted_sl2_triple(sl4, WORKED_CHI, -1, conjugated)
    assert t2.bracket_relations_hold()
    w1 = chi_prime(t1, WORKED_CHI)
    w2 = chi_prime(t2, WORKED_CHI)
    assert sorted(w1) == sorted(w2)


# ---------------------------------------------------------------------------
# graded pieces from their cells against the generic nullspace


def _seeded_cochars(kind, d, count, seed):
    rng = random.Random(f"{kind}{d}:{seed}")
    out = []
    for _ in range(count):
        if kind == "sl":
            w = [rng.randint(-3, 3) for _ in range(d - 1)]
            w.append(-sum(w))
        else:
            half = [rng.randint(-3, 3) for _ in range(d // 2)]
            w = half + [-x for x in half]
        out.append(tuple(w))
    return out


def _cells_of_degree(w, n):
    d = len(w)
    return {(i, j) for i in range(d) for j in range(d) if w[i] - w[j] == n}


@pytest.mark.parametrize(
    "kind,d", [("sl", 2), ("sl", 3), ("sl", 4), ("sl", 5), ("sp", 2), ("sp", 4), ("sp", 6)]
)
def test_graded_component_matches_nullspace_oracle(kind, d):
    alg = build_algebra(kind, d)
    basis = whole_algebra(alg)
    for chi in _seeded_cochars(kind, d, 4, seed=0):
        spread = max(chi) - min(chi)
        for n in range(-spread - 1, spread + 2):
            got = graded_component(alg, chi, n)
            want = subspace_in_cells_by_nullspace(basis, _cells_of_degree(chi, n))
            assert got == want, (chi, n)


def _random_basis_change(d, rng):
    """A seeded invertible rational matrix: a diagonal one times
    elementary ones."""
    p = RatMatrix.from_rows(
        [[rng.choice((1, 2, 3)) if i == j else 0 for j in range(d)] for i in range(d)]
    )
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        p = matrix_product(p, matrix_sum(identity(d), unit(d, i, j, rng.choice((-2, -1, 1, 2)))))
    return p


@pytest.mark.parametrize("conjugate", [False, True], ids=["own", "conjugated"])
@pytest.mark.parametrize(
    "kind,d", [("sl", 3), ("sl", 4), ("sl", 5), ("sp", 4), ("sp", 6)],
    ids=["sl3", "sl4", "sl5", "sp4", "sp6"],
)
def test_piece_spans_what_the_oracle_spans(kind, d, conjugate):
    # random cell sets, also ones with only some diagonal cells; with a
    # basis change p the piece is that of p^-1 alg p: for sl the package's,
    # as p^-1 sl p = sl, and for sp the oracle's of p^T B p, which the
    # parabolic tests build on and which is checked here against the
    # conjugated basis
    alg = build_algebra(kind, d)
    whole = whole_algebra(alg)
    rng = random.Random(f"piece:{kind}{d}:True:{conjugate}")
    for _ in range(20):
        p = _random_basis_change(d, rng) if conjugate else None
        basis = whole
        if p is not None:
            p_inv = rat_inverse(p)
            basis = tuple(matrix_product(p_inv, m, p) for m in whole)
        density = rng.choice((0.3, 0.6, 0.9))
        cells = {(i, j) for i in range(d) for j in range(d) if rng.random() < density}
        if kind == "sp" and p is not None:
            got = conjugated_piece_by_nullspace(alg, p, cells)
        else:
            got = tuple(_matrix(d, c) for c in _piece(alg, cells))
        want = subspace_in_cells_by_nullspace(basis, cells)
        assert all(m.support() <= cells for m in got)
        ranked = [[v for row in m.num for v in row] for m in got]
        assert len(got) == len(want) == len(fraction_rref(ranked)[1])
        assert all(in_span_by_rref(want, m) for m in got)


def test_sp_cocharacter_validated_for_every_form():
    # chi must preserve the form: w_i + w_s(i) = 0 for the partner
    # s(i) = i +- d/2 that B pairs i with
    sp4 = build_algebra("sp", 4)
    chi = (1, 0, 0, 0)
    with pytest.raises(ValueError, match=r"w\[0\] \+ w\[2\] = 0, as B\[0\]\[2\] != 0"):
        validate_cocharacter(sp4, chi)
    with pytest.raises(ValueError, match="sp cocharacter"):
        graded_component(sp4, chi, 0)
    with pytest.raises(ValueError, match=r"w\[1\] \+ w\[3\] = 0"):
        validate_cocharacter(sp4, (1, 1, -1, 0))
    validate_cocharacter(sp4, (2, 1, -2, -1))


def test_adapted_triple_rejects_x_outside_piece():
    sp4 = build_algebra("sp", 4)
    chi = (1, 0, -1, 0)
    # a degree-1 cell whose partner cell is missing: not in sp4
    with pytest.raises(ValueError, match="graded component"):
        adapted_sl2_triple(sp4, chi, 1, unit(4, 0, 1))
    sl4 = build_algebra("sl", 4)
    # in sl4 but with a cell of degree 2
    with pytest.raises(ValueError, match="graded component"):
        adapted_sl2_triple(sl4, WORKED_CHI, -1, unit(4, 3, 0))
    with pytest.raises(ValueError, match="4x4"):
        adapted_sl2_triple(sl4, WORKED_CHI, -1, unit(3, 1, 0))


def test_sl_parabolic_skips_conjugation_with_same_spans():
    # x with a non-diagonal h: the sl piece on the parabolic's cells stands
    # in for the part of its conjugate there
    sl4 = build_algebra("sl", 4)
    triple = adapted_sl2_triple(sl4, WORKED_CHI, -1, NON_TORAL_X)
    p = diagonalising_basis(triple.h, WORKED_CHI)
    assert p != identity(4)
    datum = canonical_parabolic(sl4, WORKED_CHI, triple, -1)
    p_inv = rat_inverse(p)
    conjugated = tuple(matrix_product(p_inv, m, p) for m in whole_algebra(sl4))
    for which in "pnl":
        got = tuple(_matrix(4, c) for c in _piece(sl4, datum.cells(which)))
        mask = datum.mask(which).num
        cells = {(i, j) for i in range(4) for j in range(4) if mask[i][j]}
        want = subspace_in_cells_by_nullspace(conjugated, cells)
        assert len(got) == len(want)
        assert all(in_span_by_rref(want, m) for m in got)


# ---------------------------------------------------------------------------
# the paths of a non-diagonal h: eigenvalues, the toral test, sp pieces


def test_integer_eigenvalues_match_nullspace_scan():
    rng = random.Random("eigen")
    for _ in range(60):
        k = rng.randint(1, 4)
        den = rng.choice((1, 2, 3))
        if rng.random() < 0.5:
            # integer spectrum: q diag(e) q^-1 for a unimodular q, times den
            q = identity(k)
            for _ in range(3):
                i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
                if i != j:
                    q = matrix_product(q, matrix_sum(identity(k), unit(k, i, j, rng.choice((-1, 1)))))
            diag = RatMatrix.from_rows(
                [[rng.randint(-3, 3) * den if a == b else 0 for b in range(k)] for a in range(k)]
            )
            num = [list(row) for row in matrix_product(q, diag, rat_inverse(q)).num]
        else:
            num = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        bound = rng.randint(3, 6)
        def shifted(m):
            return [[num[a][b] - (m * den if a == b else 0) for b in range(k)] for a in range(k)]

        want = [m for m in range(-bound, bound + 1) if nullspace(shifted(m))]
        assert _integer_eigenvalues(num, den, bound) == want, (num, den)


TRIPLE_SPECS = [
    ("sl", (1, 0, 0, -1), -1),
    ("sl", (1, 1, 0, 0, -1, -1), 1),
    ("sl", (1, 1, 0, 0, 0, -1, -1), 1),
    ("sp", (1, 0, -1, 0), 1),
    ("sp", (1, 1, 0, -1, -1, 0), 1),
    ("sp", (1, 1, 0, 0, -1, -1, 0, 0), 1),
]


def _random_piece_elements(alg, chi, n, count, seed):
    """Seeded random nonzero elements of g_n (nilpotent, as n != 0)."""
    piece = graded_component(alg, chi, n)
    rng = random.Random(f"{alg.kind}{chi}{n}:{seed}")
    out = []
    while len(out) < count:
        x = RatMatrix.zeros(alg.dim_ambient, alg.dim_ambient)
        for b in piece:
            if rng.random() < 0.6:
                x = matrix_sum(x, scaled(b, rng.choice((-2, -1, 1, 2))))
        if not x.is_zero():
            out.append(x)
    return out


@pytest.mark.parametrize("kind,weights,n", TRIPLE_SPECS)
def test_f_only_solve_and_toral_check_keep_the_triple(kind, weights, n):
    alg = build_algebra(kind, len(weights))
    chi = tuple(weights)
    d = alg.dim_ambient
    g0 = graded_component(alg, chi, 0)
    gm = graded_component(alg, chi, -n)
    gm_cells = _piece(alg, _cells_of_degree(chi, -n))
    diag = tuple(_matrix(d, c) for c in _piece(alg, {(i, i) for i in range(d)}))
    for x in _random_piece_elements(alg, chi, n, 6, seed=1):
        xf = _brackets(x, gm_cells)
        # the f-only system gives the h of the system in (h, f), and an f0
        # in g_-n with [x, f0] = h
        solved = _solve_h(x, gm_cells, xf)
        h = triple_h_by_full_system(x, g0, gm)
        assert (solved is None) == (h is None)
        if solved is not None:
            assert solved[0] == h
            assert dense_bracket(x, solved[1]) == h
        # the (h, f) system over the diagonal of g_0 gives the toral h; when
        # that h has a triple, the h solve gives it, f0 included
        h = triple_h_by_full_system(x, diag, gm)
        f = _solve_f(h, gm_cells, xf, x) if h is not None else None
        toral = f is not None and all(sl2_relations(x, h, f))
        triple = adapted_sl2_triple(alg, chi, n, x)
        if toral:
            assert solved == (h, f)
            assert (triple.h, triple.f) == (h, f)
        else:
            assert _off_diagonal(triple.h)


def _routed_triple(kind, chi, n, x_text):
    """The triple of x and the number of ``_solve_f`` calls that
    ``adapted_sl2_triple`` made for it."""
    alg = build_algebra(kind, len(chi))
    x = parse_matrix_text(x_text)
    with mock.patch.object(liegrade, "_solve_f", wraps=liegrade._solve_f) as spy:
        triple = adapted_sl2_triple(alg, chi, n, x)
    assert triple.bracket_relations_hold()
    return alg, x, triple, spy.call_count


def test_non_toral_triple_takes_f_from_the_h_solve():
    # the f0 of the h solve is the triple's f: no f solve runs
    _, x, triple, calls = _routed_triple(
        "sp", (1, 0, -1, 0), 1, "0,1,0,-1;0,0,-1,0;0,0,0,0;0,0,-1,0"
    )
    assert calls == 0
    assert _off_diagonal(triple.h)
    assert triple.f.text() == "0,0,0,0;1,0,0,0;0,0,0,-1;0,0,0,0"


def test_non_toral_triple_falls_back_to_the_eigen_solve():
    # here f0 = E_12 - E_24 / 2 has [x, f0] = h but not [h, f0] = -2 f0, so
    # the eigen solve finds f, the one of the full f system
    chi, n = (1, 0, 0, -1), -1
    alg, x, triple, calls = _routed_triple(
        "sl", chi, n, "0,0,0,0;1,0,0,0;1,0,0,0;0,-2,2,0"
    )
    assert calls == 1
    gm = graded_component(alg, chi, -n)
    assert triple.f == triple_f_by_full_system(x, triple.h, gm)
    assert triple.f.text() == "0,1/2,1/2,0;0,0,0,-1/4;0,0,0,1/4;0,0,0,0"


def test_toral_h_refuses_a_non_integral_diagonal_solution():
    # on the cells of x = E_13 + E_23, [h, x] = 2x and trace 0 have the one
    # diagonal solution h = diag(2/3, 2/3, -4/3), which no sl2-triple has:
    # the (h, f) system over the diagonal has no solution, and the h found
    # is not diagonal
    alg = build_algebra("sl", 3)
    chi = (1, 1, -2)
    x = RatMatrix.from_rows([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    diag = tuple(_matrix(3, c) for c in _piece(alg, [(i, i) for i in range(3)]))
    assert triple_h_by_full_system(x, diag, graded_component(alg, chi, -3)) is None
    triple = adapted_sl2_triple(alg, chi, 3, x)
    assert triple.bracket_relations_hold()
    assert _off_diagonal(triple.h)


def test_toral_h_centres_every_component_of_the_cells():
    # the cells (2,1) and (4,3) of the worked x lie in two components, and
    # each block of h has trace 0; a coordinate that no cell reaches gets 0.
    # The h solve gives each toral triple, f included: no f solve runs.
    _, _, triple, calls = _routed_triple("sl", WORKED_CHI, -1, WORKED_X.text())
    assert calls == 0
    assert triple.h == RatMatrix.from_rows(
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    )
    _, _, triple, calls = _routed_triple("sl", (0, -1, 1), 2, "0,0,0;0,0,0;0,3,0")
    assert calls == 0
    assert triple.h == RatMatrix.from_rows([[0, 0, 0], [0, -1, 0], [0, 0, 1]])


def test_equations_only_on_reached_cells():
    # c1 E_01 + c2 (E_01 + E_10) = 3 E_01 + E_22 has no solution: the cell
    # (2, 2) of the target is reached by no column, and its row says 0 = 1
    columns = [{(0, 1): 1}, {(0, 1): 1, (1, 0): 1}]
    rows, rhs = _equations(columns, {(0, 1): 3, (2, 2): 1})
    assert (rows, rhs) == ([[1, 1], [0, 1], [0, 0]], [3, 0, 1])
    assert solve_linear(rows, rhs) is None
    rows, rhs = _equations(columns, {(0, 1): 3})
    assert solve_linear(rows, rhs) == ((3, 0), 1)


def _reached(basis):
    """The cells that some element of the basis reaches, row-major."""
    return sorted(set().union(*(m.support() for m in basis)))


@pytest.mark.parametrize("kind,weights,n", TRIPLE_SPECS)
def test_canonical_levi_is_rigid(kind, weights, n):
    # every Levi cell has 2m' = n*m by definition, in the diagonalising
    # basis; check_n_rigid must not conjugate the cells again
    alg = build_algebra(kind, len(weights))
    chi = tuple(weights)
    non_diagonal = 0
    for x in _random_piece_elements(alg, chi, n, 6, seed=3):
        triple = adapted_sl2_triple(alg, chi, n, x)
        datum = canonical_parabolic(alg, chi, triple, n)
        non_diagonal += _off_diagonal(triple.h)
        assert check_n_rigid(datum, triple, n, datum.cells("l")) is None
    assert non_diagonal


@pytest.mark.parametrize("kind,weights,n", TRIPLE_SPECS)
def test_parabolic_pieces_on_the_indicator_cells_form_a_parabolic(kind, weights, n):
    # the structural checks on the oracle's pieces, for parabolics with a
    # basis change p != 1 among them
    alg = build_algebra(kind, len(weights))
    chi = tuple(weights)
    moved = 0
    for x in _random_piece_elements(alg, chi, n, 6, seed=3):
        triple = adapted_sl2_triple(alg, chi, n, x)
        datum = canonical_parabolic(alg, chi, triple, n)
        moved += _off_diagonal(triple.h)
        assert_pieces_form_a_parabolic(alg, datum, triple)
    assert moved


@pytest.mark.parametrize("kind,weights,n", [s for s in TRIPLE_SPECS if s[0] == "sp"])
def test_sp_parabolic_spans_match_conjugated_basis(kind, weights, n):
    # the oracle's pieces of p^-1 sp p = sp of p^T B p on the cells span
    # what the conjugated basis spans there
    alg = build_algebra(kind, len(weights))
    chi = tuple(weights)
    d = alg.dim_ambient
    checked = 0
    for x in _random_piece_elements(alg, chi, n, 6, seed=2):
        triple = adapted_sl2_triple(alg, chi, n, x)
        datum = canonical_parabolic(alg, chi, triple, n)
        if not _off_diagonal(triple.h):
            continue
        p = diagonalising_basis(triple.h, chi)
        checked += 1
        p_inv = rat_inverse(p)
        conjugated = tuple(matrix_product(p_inv, m, p) for m in whole_algebra(alg))
        for which in "pnl":
            got = conjugated_piece_by_nullspace(alg, p, datum.cells(which))
            mask = datum.mask(which).num
            cells = {(i, j) for i in range(d) for j in range(d) if mask[i][j]}
            want = subspace_in_cells_by_nullspace(conjugated, cells)
            assert len(got) == len(want)
            assert all(in_span_by_rref(want, m) for m in got)
    assert checked


@pytest.mark.parametrize("kind,weights,n", TRIPLE_SPECS)
def test_check_n_rigid_given_the_datum_keeps_the_report(kind, weights, n):
    # chi' comes from the datum; on the cells that a basis conjugated by
    # the oracle's p reaches, the report, witness included, is the one of
    # recomputing chi' and scanning every cell.  The conjugated algebra
    # reaches every cell.
    alg = build_algebra(kind, len(weights))
    chi = tuple(weights)
    d = alg.dim_ambient
    for x in _random_piece_elements(alg, chi, n, 6, seed=4):
        triple = adapted_sl2_triple(alg, chi, n, x)
        datum = canonical_parabolic(alg, chi, triple, n)
        p = diagonalising_basis(triple.h, chi)
        p_inv = rat_inverse(p)
        conjugated = tuple(matrix_product(p_inv, m, p) for m in whole_algebra(alg))
        assert _reached(conjugated) == _all_cells(d)
        pieces = [conjugated_piece_by_nullspace(alg, p, datum.cells(k)) for k in "lp"]
        for k in (n, -n, 2 * n):
            for basis in (conjugated, *pieces):
                want = rigidity_by_conjugates(basis, chi, triple, k)
                assert check_n_rigid(datum, triple, k, _reached(basis)) == want


def test_check_n_rigid_given_the_datum_solves_nothing(monkeypatch):
    from gradedorbits import liegrade

    def solved(*args):
        raise AssertionError("chi' or a piece was computed")

    for kind, weights, n in TRIPLE_SPECS:
        alg = build_algebra(kind, len(weights))
        chi = tuple(weights)
        for x in _random_piece_elements(alg, chi, n, 3, seed=4):
            triple = adapted_sl2_triple(alg, chi, n, x)
            datum = canonical_parabolic(alg, chi, triple, n)
            with monkeypatch.context() as patch:
                for name in ("chi_prime", "_piece"):
                    patch.setattr(liegrade, name, solved)
                report = check_n_rigid(datum, triple, n, datum.cells("l"))
            assert report is None


@pytest.mark.parametrize("kind,weights,n", TRIPLE_SPECS)
def test_check_n_rigid_on_an_algebra_builds_no_basis(kind, weights, n, matrix_calls):
    # the whole algebra is every cell of the diagonalising basis: no basis
    # and no piece is built, and the report is the one of conjugating the
    # matrix basis by the oracle's p.  The triple builds its h and f, twice
    # at most, and nothing else builds a matrix from cells: fewer than the
    # whole algebra has elements
    chi = tuple(weights)
    alg = build_algebra(kind, len(weights))
    whole = whole_algebra(alg)
    for x in _random_piece_elements(alg, chi, n, 4, seed=5):
        matrix_calls.clear()
        triple = adapted_sl2_triple(alg, chi, n, x)
        datum = canonical_parabolic(alg, chi, triple, n)
        cells = _all_cells(alg.dim_ambient)
        reports = [check_n_rigid(datum, triple, k, cells) for k in (n, -n, 2 * n)]
        assert len(matrix_calls) <= 4 < len(whole)
        p = diagonalising_basis(triple.h, chi)
        conjugated = tuple(matrix_product(rat_inverse(p), m, p) for m in whole)
        for k, report in zip((n, -n, 2 * n), reports):
            assert report == rigidity_by_conjugates(conjugated, chi, triple, k)


def test_check_n_rigid_on_sl48_builds_no_basis(matrix_calls):
    d = 48
    alg = build_algebra("sl", d)
    chi = tuple([1] + [0] * (d - 2) + [-1])
    triple = adapted_sl2_triple(alg, chi, 1, unit(d, 0, 1))
    datum = canonical_parabolic(alg, chi, triple, 1)
    # chi' = (1, -1, 0, ..., 0): the cell (0, 2) has m = 1 and m' = 1
    assert check_n_rigid(datum, triple, 1, _all_cells(d)) == (1, 1)
    # h and f alone, of the d^2 - 1 elements of sl_48
    assert matrix_calls == [d, d]
