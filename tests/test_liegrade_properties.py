"""Property tests: the closed-form sp pieces of ``liegrade`` against the
Fraction nullspace of M^T B + B M = 0.  Needs Hypothesis (the ``test``
extra); without it this module is skipped and the rest of the suite still
runs."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedorbits.liegrade import _monomial_involution, _sp_in_cells, standard_symplectic_form

from oracles import sp_in_cells_by_nullspace

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def monomial_forms(draw, min_half=1):
    """An antisymmetric form with one nonzero per row: the standard form,
    the standard form with rows and columns permuted alike, or a form that
    pairs the coordinates at random with entries +-1 and +-2."""
    m = draw(st.integers(min_half, 4))
    d = 2 * m
    kind = draw(st.sampled_from(["standard", "permuted", "scaled"]))
    standard = standard_symplectic_form(d).entries
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
    assert _sp_in_cells(form, cells) == sp_in_cells_by_nullspace(form, cells), (kind, shape)


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
    c = data.draw(st.sampled_from([1, -1, 2]))
    rows = [list(r) for r in form]
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for r in rows:
        r[i] += c * r[j]
    cells = data.draw(st.sets(st.sampled_from([(a, b) for a in range(d) for b in range(d)])))
    assert _monomial_involution(rows) is None
    assert _sp_in_cells(rows, cells) == sp_in_cells_by_nullspace(rows, cells)
