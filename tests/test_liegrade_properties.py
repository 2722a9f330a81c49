"""Property tests: the closed-form sp pieces of ``liegrade`` against the
Fraction nullspace of M^T B + B M = 0, and the toral triple against the
full (h, f) and f systems.  Needs Hypothesis (the ``test`` extra); without
it this module is skipped and the rest of the suite still runs."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedorbits import liegrade
from gradedorbits.exactlin import RatMatrix
from gradedorbits.liegrade import (
    Cocharacter,
    Sl2Triple,
    _matrix,
    _monomial_involution,
    _piece,
    _sp_in_cells,
    _toral_h,
    adapted_sl2_triple,
    build_algebra,
    graded_component,
    standard_symplectic_form,
)

from oracles import sp_in_cells_by_nullspace, triple_f_by_full_system, triple_h_by_full_system

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def monomial_forms(draw, min_half=1):
    """An antisymmetric form with one nonzero per row: the standard form,
    the standard form with rows and columns permuted alike, or a form that
    pairs the coordinates at random with entries +-1 and +-2."""
    m = draw(st.integers(min_half, 4))
    d = 2 * m
    kind = draw(st.sampled_from(["standard", "permuted", "scaled"]))
    standard = standard_symplectic_form(d).num
    if kind == "standard":
        return kind, [list(r) for r in standard]
    order = draw(st.permutations(range(d)))
    if kind == "permuted":
        return kind, [[standard[order[i]][order[j]] for j in range(d)] for i in range(d)]
    form = [[0] * d for _ in range(d)]
    for a, b in zip(order[::2], order[1::2]):
        v = draw(st.sampled_from([1, -1, 2, -2]))
        form[a][b], form[b][a] = v, -v
    return kind, form


@st.composite
def forms_with_cells(draw):
    """A monomial form with a cell set of one of the shapes the package asks
    for: a graded piece g_n, the p, n or l cells of an indicator
    sign(n)(n m' - 2 m), or an arbitrary set.  The weights preserve the
    form: w_i + w_s(i) = 0 where s pairs i with its partner."""
    kind, form = draw(monomial_forms())
    d = len(form)
    partner = _monomial_involution(form)

    def weights():
        w = [None] * d
        for i in range(d):
            if w[i] is None:
                w[i] = draw(st.integers(-3, 3))
                w[partner[i]] = -w[i]
        return w

    shape = draw(st.sampled_from(["piece", "p", "n", "l", "any"]))
    cells = [(i, j) for i in range(d) for j in range(d)]
    if shape == "any":
        return kind, form, shape, draw(st.sets(st.sampled_from(cells)))
    w = weights()
    n = draw(st.integers(-3, 3).filter(bool))
    if shape == "piece":
        return kind, form, shape, {(i, j) for i, j in cells if w[i] - w[j] == n}
    wp = weights()
    sign = 1 if n > 0 else -1
    keep = {"p": lambda s: s >= 0, "n": lambda s: s > 0, "l": lambda s: s == 0}[shape]
    return kind, form, shape, {
        (i, j) for i, j in cells if keep(sign * (n * (wp[i] - wp[j]) - 2 * (w[i] - w[j])))
    }


@PROPERTY
@given(forms_with_cells())
def test_monomial_sp_piece_equals_nullspace(case):
    kind, form, shape, cells = case
    assert _monomial_involution(form) is not None
    got = tuple(_matrix(len(form), c) for c in _sp_in_cells(form, cells))
    assert got == sp_in_cells_by_nullspace(form, cells), (kind, shape)


def _non_monomial(form, i, j, c):
    """The form with c times row j added to row i and column j to column i:
    antisymmetric, with two nonzeros in row i when j is neither i nor the
    partner of i."""
    rows = [list(r) for r in form]
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for r in rows:
        r[i] += c * r[j]
    return rows


@PROPERTY
@given(monomial_forms(min_half=2), st.data())
def test_non_monomial_sp_piece_equals_nullspace(case, data):
    # adding c times row j of the form to row i, and column j to column i,
    # with j neither i nor the partner of i, gives an antisymmetric form
    # with two nonzeros in row i, which takes the nullspace
    _, form = case
    d = len(form)
    partner = _monomial_involution(form)
    i = data.draw(st.integers(0, d - 1))
    j = data.draw(st.sampled_from([j for j in range(d) if j not in (i, partner[i])]))
    rows = _non_monomial(form, i, j, data.draw(st.sampled_from([1, -1, 2])))
    cells = data.draw(st.sets(st.sampled_from([(a, b) for a in range(d) for b in range(d)])))
    assert _monomial_involution(rows) is None
    got = tuple(_matrix(d, c) for c in _sp_in_cells(rows, cells))
    assert got == sp_in_cells_by_nullspace(rows, cells)
    # membership from the cells of M against the dense M^T B + B M, for the
    # standard form and the non-monomial one: a random M, a sum of piece
    # elements (in sp_B) and that sum with one cell added
    entries = st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d)
    cell = data.draw(st.sampled_from(sorted(cells) or [(0, 0)]))
    for b in (standard_symplectic_form(d).num, rows):
        alg = build_algebra("sp", d, RatMatrix.from_rows(b))
        dense = alg.form
        flat = data.draw(entries)
        inside = RatMatrix.zeros(d, d)
        for m in (_matrix(d, c) for c in _sp_in_cells(b, cells)):
            inside = inside + m
        unit = [[int((r, c) == cell) for c in range(d)] for r in range(d)]
        for m in (RatMatrix.from_rows([flat[r * d:(r + 1) * d] for r in range(d)]),
                  inside, inside + RatMatrix.from_rows(unit)):
            assert alg.contains(m) == (m.transpose() * dense + dense * m).is_zero()
        assert alg.contains(inside)


@st.composite
def graded_elements(draw):
    """(kind, algebra, chi, n, x) with x a nonzero element of g_n: sl_d, or
    sp for a standard, permuted, scaled or non-monomial form.  For the
    non-monomial form of ``_non_monomial``, w_i = w_j keeps chi preserving it."""
    kind = draw(st.sampled_from(["sl", "sp", "non-monomial"]))
    if kind == "sl":
        d = draw(st.integers(2, 6))
        w = draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))
        alg, w = build_algebra("sl", d), w + [-sum(w)]
    else:
        _, form = draw(monomial_forms(min_half=2 if kind == "non-monomial" else 1))
        d = len(form)
        partner = _monomial_involution(form)
        w = [None] * d
        if kind == "non-monomial":
            i = draw(st.integers(0, d - 1))
            j = draw(st.sampled_from([j for j in range(d) if j not in (i, partner[i])]))
            form = _non_monomial(form, i, j, draw(st.sampled_from([1, -1, 2])))
            w[i] = w[j] = draw(st.integers(-2, 2))
            w[partner[i]] = w[partner[j]] = -w[i]
        for k in range(d):
            if w[k] is None:
                w[k] = draw(st.integers(-2, 2))
                w[partner[k]] = -w[k]
        alg = build_algebra("sp", d, RatMatrix.from_rows(form))
    chi = Cocharacter.of(w)
    n = draw(st.sampled_from([-2, -1, 1, 2]))
    piece = graded_component(alg, chi, n).basis
    assume(piece)
    coeffs = draw(st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=len(piece), max_size=len(piece)))
    x = RatMatrix.zeros(d, d)
    for c, b in zip(coeffs, piece):
        x = x + b.scale(c)
    assume(not x.is_zero())
    return kind, alg, chi, n, x


@PROPERTY
@given(graded_elements())
def test_toral_triple_equals_full_systems(case):
    # every triple has the h of the full (h, f) system over the diagonal of
    # g_0 when that gives a triple, else over all of g_0, and the f of the
    # full f system; where the diagonal system fixes h, that h is the
    # triple's, and its f is solved for on the ad-h weight -2 part of g_-n
    # alone on every form
    _, alg, chi, n, x = case
    d = alg.dim_ambient
    with mock.patch.object(liegrade, "_solve_f", wraps=liegrade._solve_f) as spy:
        triple = adapted_sl2_triple(alg, chi, n, x)
    diag = _piece(alg, [(i, i) for i in range(d)])
    gm = graded_component(alg, chi, -n).basis
    cells = [(i, j) for i in range(d) for j in range(d) if chi.weights[i] - chi.weights[j] == -n]
    gm_oracle = gm if alg.kind == "sl" else sp_in_cells_by_nullspace(alg.form.num, cells)
    diag_basis = tuple(_matrix(d, c) for c in diag)
    h_diag = triple_h_by_full_system(x, diag_basis, gm) if diag else None
    f_diag = None if h_diag is None else triple_f_by_full_system(x, h_diag, gm_oracle)
    if f_diag is not None and Sl2Triple(x, h_diag, f_diag).bracket_relations_hold():
        h = h_diag
    else:
        h = triple_h_by_full_system(x, graded_component(alg, chi, 0).basis, gm)
    assert (triple.h, triple.f) == (h, triple_f_by_full_system(x, h, gm_oracle))
    _, fixed = _toral_h(x, diag) if diag else (False, None)
    if fixed is None:
        return
    assert h_diag is None or h_diag == fixed
    if h_diag is not None:
        assert h == h_diag
        # the first f solve found it: no other route ran
        assert len(spy.call_args_list) == 1
    first = spy.call_args_list[0]
    a = [fixed.num[i][i] for i in range(d)]
    assert first.kwargs == {"eigen": False}
    assert all(a[i] - a[j] == -2 for fb in first.args[1] for i, j in fb)
