"""Property test: the x-stable subspaces that ``ffgeom`` builds against the
oracle's sweep of the whole Grassmannian, for random nilpotent x.  Needs
Hypothesis (the ``test`` extra); without it this module is skipped and the
rest of the suite still runs."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedorbits.exactlin import IntMatrix
from gradedorbits.ffgeom import stable_subspaces

from oracles import stable_subspaces_by_elimination


@st.composite
def nilpotents(draw):
    """(x, p): g N g^-1 for N strictly upper triangular and g a product of
    transvections, over F_p for p in {2, 3} and d <= 5."""
    d = draw(st.integers(2, 5))
    p = draw(st.sampled_from((2, 3)))
    entry = st.sampled_from((0, 0, 1, -1, 2))
    n = IntMatrix.from_rows([[draw(entry) if j > i else 0 for j in range(d)] for i in range(d)])
    g = g_inv = IntMatrix.identity(d)
    for _ in range(draw(st.integers(0, d))):
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        c = draw(st.sampled_from((1, -1, 2)))
        step = [[int(r == s) for s in range(d)] for r in range(d)]
        step[i][j] = c
        g = g * IntMatrix.from_rows(step)
        step[i][j] = -c
        g_inv = IntMatrix.from_rows(step) * g_inv
    return (g * n * g_inv).entries, p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nilpotents())
def test_stable_subspaces_match_oracle(case):
    x, p = case
    for k in range(1, len(x)):
        found = stable_subspaces(x, p, k)
        assert len(set(found)) == len(found)
        assert set(found) == stable_subspaces_by_elimination(x, p, k)
