"""Property tests: the closed-form sp pieces of ``liegrade`` against the
Fraction nullspace of M^T B + B M = 0, membership in sp from the cells
against the dense equation, and the toral triple against the full (h, f)
and f systems.  Needs Hypothesis (the ``test`` extra); without it this
module is skipped and the rest of the suite still runs."""

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
    _piece,
    _sp_in_cells,
    _toral_h,
    adapted_sl2_triple,
    build_algebra,
    graded_component,
)

from oracles import (
    sp_in_cells_by_nullspace,
    standard_symplectic_form,
    triple_f_by_full_system,
    triple_h_by_full_system,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def sp_weights(draw, d):
    """Weights that preserve the standard form of sp_d: w_(i + d/2) = -w_i."""
    half = [draw(st.integers(-3, 3)) for _ in range(d // 2)]
    return half + [-a for a in half]


@st.composite
def sp_cells(draw):
    """(d, cells) for sp_d, d = 2 to 8, with a cell set of one of the shapes
    the package asks for: a graded piece g_n, the p, n or l cells of an
    indicator sign(n)(n m' - 2 m), or an arbitrary set."""
    d = 2 * draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["piece", "p", "n", "l", "any"]))
    cells = [(i, j) for i in range(d) for j in range(d)]
    if shape == "any":
        return d, shape, draw(st.sets(st.sampled_from(cells)))
    w = sp_weights(draw, d)
    n = draw(st.integers(-3, 3).filter(bool))
    if shape == "piece":
        return d, shape, {(i, j) for i, j in cells if w[i] - w[j] == n}
    wp = sp_weights(draw, d)
    sign = 1 if n > 0 else -1
    keep = {"p": lambda s: s >= 0, "n": lambda s: s > 0, "l": lambda s: s == 0}[shape]
    return d, shape, {
        (i, j) for i, j in cells if keep(sign * (n * (wp[i] - wp[j]) - 2 * (w[i] - w[j])))
    }


@PROPERTY
@given(sp_cells())
def test_monomial_sp_piece_equals_nullspace(case):
    d, shape, cells = case
    got = tuple(_matrix(d, c) for c in _sp_in_cells(d, cells))
    assert got == sp_in_cells_by_nullspace(standard_symplectic_form(d).num, cells), shape


@PROPERTY
@given(sp_cells(), st.data())
def test_sp_membership_from_cells_equals_the_dense_equation(case, data):
    # a random M, a sum of piece elements (in sp) and that sum with one
    # cell added, against the dense M^T B + B M
    d, _, cells = case
    alg = build_algebra("sp", d)
    form = standard_symplectic_form(d)
    flat = data.draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d))
    inside = RatMatrix.zeros(d, d)
    for m in (_matrix(d, c) for c in _sp_in_cells(d, cells)):
        inside = inside + m
    cell = data.draw(st.sampled_from(sorted(cells) or [(0, 0)]))
    unit = [[int((r, c) == cell) for c in range(d)] for r in range(d)]
    for m in (RatMatrix.from_rows([flat[r * d:(r + 1) * d] for r in range(d)]),
              inside, inside + RatMatrix.from_rows(unit)):
        assert alg.contains(m) == (m.transpose() * form + form * m).is_zero()
    assert alg.contains(inside)


@st.composite
def graded_elements(draw):
    """(kind, algebra, chi, n, x) with x a nonzero element of g_n of sl_d or
    sp_d."""
    kind = draw(st.sampled_from(["sl", "sp"]))
    if kind == "sl":
        d = draw(st.integers(2, 6))
        w = draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))
        w.append(-sum(w))
    else:
        d = 2 * draw(st.integers(1, 4))
        half = draw(st.lists(st.integers(-2, 2), min_size=d // 2, max_size=d // 2))
        w = half + [-a for a in half]
    alg = build_algebra(kind, d)
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
    # full f system; the diagonal system gives the closed-form h whenever it
    # has a solution, and the f of that h is solved for on the ad-h weight
    # -2 part of g_-n alone
    _, alg, chi, n, x = case
    d = alg.dim_ambient
    with mock.patch.object(liegrade, "_solve_f", wraps=liegrade._solve_f) as spy:
        triple = adapted_sl2_triple(alg, chi, n, x)
    diag_basis = tuple(_matrix(d, c) for c in _piece(alg, [(i, i) for i in range(d)]))
    gm = graded_component(alg, chi, -n).basis
    cells = [(i, j) for i in range(d) for j in range(d) if chi.weights[i] - chi.weights[j] == -n]
    gm_oracle = gm
    if alg.kind == "sp":
        gm_oracle = sp_in_cells_by_nullspace(standard_symplectic_form(d).num, cells)
    h_diag = triple_h_by_full_system(x, diag_basis, gm)
    f_diag = None if h_diag is None else triple_f_by_full_system(x, h_diag, gm_oracle)
    if f_diag is not None and Sl2Triple(x, h_diag, f_diag).bracket_relations_hold():
        h = h_diag
    else:
        h = triple_h_by_full_system(x, graded_component(alg, chi, 0).basis, gm)
    assert (triple.h, triple.f) == (h, triple_f_by_full_system(x, h, gm_oracle))
    fixed = _toral_h(x)
    assert h_diag is None or h_diag == fixed
    if fixed is None:
        return
    if h_diag is not None:
        assert h == h_diag
        # the first f solve found it: no other route ran
        assert len(spy.call_args_list) == 1
    first = spy.call_args_list[0]
    a = [fixed.num[i][i] for i in range(d)]
    assert first.kwargs == {"eigen": False}
    assert all(a[i] - a[j] == -2 for fb in first.args[1] for i, j in fb)
