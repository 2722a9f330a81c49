"""Matrix realizations of sl_n and sp_2n with diagonal cocharacter gradings.

A cocharacter is stored as its integer weight vector w; the grading places
a matrix cell (i, j) in degree w_i - w_j.  On top of the grading this
module builds graded sl2-triples (e in g_n, h in g_0, f in g_-n), the
second grading coming from the triple's semisimple element, the canonical
parabolic/nilradical/Levi attached to a graded nilpotent, and the rigidity
test comparing the two gradings.

sp_d is the algebra of the standard form B = [[0, I], [-I, 0]], which pairs
the coordinate k with s(k) = k +- d/2.  Every piece of the algebra, graded
or not, is the part of it on a set of matrix cells, and ``_piece`` writes
it down from the cells alone, as integer cell maps {(i, j): entry}: for sl
the units E_ij on off-diagonal cells plus a Cartan chain on the diagonal
ones, for sp one cell, or a pair of cells that B links, per element.  A
piece becomes d x d matrices only where they are read: ``graded_component``
and ``MatrixLieAlgebra.basis``, which the triple, the parabolic and
``check_n_rigid`` never read.  The canonical parabolic is its indicator on
the cells of the basis that diagonalises both gradings: ``cells`` and
``mask`` read p, n and l off it, and ``check_n_rigid`` tests a set of
those cells.

The triple stays on cells too: a diagonal h is read off the cells of x
(``_toral_h``), the equations are written only on the cells that x, a
bracket (``_ad``) or a right-hand side reaches, and only e, h and f are
built as matrices.  Everything is exact, and returned
values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .exactlin import (
    Cocharacter,
    DomainError,
    RatMatrix,
    bracket,
    nullspace,
    rat_inverse,
    solve_linear,
)


class BadForm(ValueError):
    """sp of an odd dimension, which has no symplectic form."""


class NoTriple(DomainError):
    """No graded sl2-triple through the given element."""


class NonIntegralWeights(ValueError):
    """Semisimple element with non-integral spectrum (broken triple)."""


class NotSimultaneouslyDiagonal(ValueError):
    """Basis change for h does not commute with the ambient grading."""


@dataclass(frozen=True)
class MatrixLieAlgebra:
    kind: str  # "sl" or "sp"
    dim_ambient: int

    @cached_property
    def basis(self) -> tuple:
        """The piece on all cells, built on first use: the triple and the
        parabolic need only pieces on some cells."""
        d = self.dim_ambient
        return tuple(_matrix(d, c) for c in _piece(self, _all_cells(d)))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, m: RatMatrix) -> bool:
        if self.kind == "sl":
            return sum(m.num[i][i] for i in range(m.rows)) == 0
        # M^T B + B M = 0 links each cell (k, l) with (s(l), s(k)) alone
        d = self.dim_ambient
        h = d // 2
        return all(
            m.num[(l + h) % d][(k + h) % d] == _sp_sign(h, k, l) * c
            for (k, l), c in _cells(m).items()
        )


@dataclass(frozen=True)
class GradedComponent:
    degree: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Sl2Triple:
    e: RatMatrix
    h: RatMatrix
    f: RatMatrix

    def bracket_relations_hold(self) -> bool:
        # brackets and scalings come normalized, and a normalized matrix is
        # equal to another exactly when they are the same rational matrix
        e, h, f = self.e, self.h, self.f
        return (
            bracket(h, e) == e.scale(2)
            and bracket(h, f) == f.scale(-2)
            and bracket(e, f) == h._normalized()
        )

    @staticmethod
    def zero(d: int) -> "Sl2Triple":
        z = RatMatrix.zeros(d, d)
        return Sl2Triple(z, z, z)


# which cells of a parabolic's indicator the parabolic, its nilradical and
# its Levi keep
_PIECE_TESTS = {"p": lambda s: s >= 0, "n": lambda s: s > 0, "l": lambda s: s == 0}


@dataclass(frozen=True)
class ParabolicDatum:
    chi: Cocharacter
    chi_prime: Cocharacter
    basis_change: RatMatrix
    indicator: RatMatrix  # sign(n) * (n*m - 2*m') per cell
    levi_blocks: tuple  # coordinate classes, first-occurrence order

    @property
    def levi_block_shape(self) -> tuple:
        return tuple(len(b) for b in self.levi_blocks)

    def cells(self, which: str) -> list:
        """The cells of the indicator that the piece ``which`` ("p", "n" or
        "l") keeps, row-major."""
        keep = _PIECE_TESTS[which]
        ind = self.indicator.num
        return [(i, j) for i, row in enumerate(ind) for j, s in enumerate(row) if keep(s)]

    def mask(self, which: str) -> RatMatrix:
        pick = _PIECE_TESTS[which]
        return RatMatrix.from_rows([[int(pick(s)) for s in row] for row in self.indicator.num])


def _matrix(d, cells, den=1) -> RatMatrix:
    """The d x d matrix of an integer cell map {(i, j): entry} over den."""
    rows = [[0] * d for _ in range(d)]
    for (i, j), v in cells.items():
        rows[i][j] = v
    return RatMatrix(d, d, tuple(map(tuple, rows)), den)._normalized()


def _cells(m: RatMatrix) -> dict:
    """The nonzero cells of the numerator of m, {(i, j): entry}."""
    return {(i, j): x for i, row in enumerate(m.num) for j, x in enumerate(row) if x}


def _all_cells(d) -> list:
    return [(i, j) for i in range(d) for j in range(d)]


def _sl_in_cells(cells) -> tuple:
    """Basis of the part of sl_d on the cell set: E_ij for each off-diagonal
    cell, row-major, then e_a - e_b for consecutive diagonal cells (a, a),
    (b, b) of the set.  On all cells this is the basis of ``build_algebra``."""
    cells = sorted(cells)
    diag = [i for (i, j) in cells if i == j]
    return tuple(
        [{(i, j): 1} for (i, j) in cells if i != j]
        + [{(a, a): 1, (b, b): -1} for a, b in zip(diag, diag[1:])]
    )


def _sp_sign(h, k, l) -> int:
    """The c with M_s(l)s(k) = c M_kl for every M in sp_2h: 1 when k and l
    lie in different halves, else -1 (the -A^T block)."""
    return 1 if (k < h) != (l < h) else -1


def _sp_in_cells(d, cells) -> tuple:
    """Basis of the part of sp_d on the cell set, as the primitive integer
    nullspace of M^T B + B M = 0 lists it.  Entry (i, j) of M^T B + B M
    links the cell (s(i), j) with (s(j), i) alone, so a cell linked to
    itself spans a piece element on its own, a pair of linked cells spans
    one with the sign ``_sp_sign`` gives, and a cell whose partner is
    outside the set is 0.  Listed in the nullspace's order, one element per
    free column (the cell itself, or the later of the pair), with the
    nullspace's scaling, this is its basis without elimination."""
    h = d // 2
    cells = sorted(cells)
    cell_set = set(cells)
    out = []
    for k, l in cells:
        first = ((l + h) % d, (k + h) % d)
        if first == (k, l):
            out.append({(k, l): 1})
        elif first < (k, l) and first in cell_set:
            out.append({first: 1, (k, l): _sp_sign(h, k, l)})
    return tuple(out)


def _piece(alg: MatrixLieAlgebra, cells) -> tuple:
    """Basis of the part of alg on the cell set: integer cell maps
    {(i, j): entry}, which ``_matrix`` turns into matrices."""
    if alg.kind == "sl":
        return _sl_in_cells(cells)
    return _sp_in_cells(alg.dim_ambient, cells)


def build_algebra(kind: str, d: int) -> MatrixLieAlgebra:
    kind = kind.lower()
    if kind not in ("sl", "sp"):
        raise ValueError(f"unsupported algebra type {kind!r}")
    if kind == "sp" and d % 2:
        raise BadForm("ambient dimension must be even")
    return MatrixLieAlgebra(kind, d)


def validate_cocharacter(alg: MatrixLieAlgebra, chi: Cocharacter) -> None:
    if len(chi) != alg.dim_ambient:
        raise ValueError("cocharacter length does not match ambient dimension")
    w = chi.weights
    if alg.kind == "sl" and sum(w) != 0:
        raise DomainError("cochar", "sl cocharacter weights must sum to zero")
    if alg.kind == "sp":
        # chi preserves B exactly when w_i + w_s(i) = 0 for every i
        d = alg.dim_ambient
        for i in range(d):
            j = (i + d // 2) % d
            if w[i] + w[j] != 0:
                raise DomainError(
                    "cochar",
                    f"sp cocharacter must satisfy w[{i}] + w[{j}] = 0, as B[{i}][{j}] != 0"
                )


def weight_matrix(chi: Cocharacter) -> RatMatrix:
    w = chi.weights
    return RatMatrix.from_rows([[wi - wj for wj in w] for wi in w])


def graded_component(alg: MatrixLieAlgebra, chi: Cocharacter, n: int) -> GradedComponent:
    validate_cocharacter(alg, chi)
    w = chi.weights
    d = alg.dim_ambient
    cells = [(i, j) for i in range(d) for j in range(d) if w[i] - w[j] == n]
    return GradedComponent(n, tuple(_matrix(d, c) for c in _piece(alg, cells)))


def _ad(a):
    """m -> [a, m] on cell maps, for a given as one: a cell m_kl adds
    a_ik m_kl to (i, l) for each cell (i, k) of a and subtracts m_kl a_lj
    from (k, j) for each cell (l, j); cells that sum to 0 are left out."""
    by_row, by_col = {}, {}
    for (i, j), v in a.items():
        by_row.setdefault(i, []).append((j, v))
        by_col.setdefault(j, []).append((i, v))

    def ad(m):
        out = {}
        for (k, l), c in m.items():
            for i, v in by_col.get(k, ()):
                out[i, l] = out.get((i, l), 0) + v * c
            for j, v in by_row.get(l, ()):
                out[k, j] = out.get((k, j), 0) - c * v
        return {cell: v for cell, v in out.items() if v}

    return ad


def _brackets(x: RatMatrix, piece) -> list:
    """[X, F] for each cell map F of the piece, X = x.den * x."""
    return list(map(_ad(_cells(x)), piece))


def _equations(columns, target):
    """Rows and right-hand side of sum_k c_k columns[k] = target, for cell
    maps: one equation per cell, row-major, on which a column or the target
    has a key.  On every other cell the equation is 0 = 0, which changes
    neither the solutions nor the reduced row echelon form."""
    cells = sorted(set(target).union(*columns))
    return [[c.get(k, 0) for c in columns] for k in cells], [target.get(k, 0) for k in cells]


def _combination(coeffs, piece, d, den=1) -> RatMatrix:
    """sum_k coeffs[k] piece[k] / den as a d x d matrix, for rational
    coefficients and integer cell maps."""
    common = lcm(*(c.denominator for c in coeffs))
    acc = {}
    for c, m in zip(coeffs, piece):
        for k, v in m.items():
            acc[k] = acc.get(k, 0) + c.numerator * (common // c.denominator) * v
    return _matrix(d, acc, common * den)


def _solve_h(x, xf):
    """The h of the system [x, f] = h, [h, x] = 2x with f in span(gm) and h
    in g0, or None if it has no solution.  ``xf`` holds the ``_brackets``
    [X, F_k] of the gm basis, X = x.den * x.

    [x, f] = h fixes h by f, and [x, f] lies in g0.  So the system is
    [[x, f], x] = 2x in the f coefficients alone, written as
    [X, [X, f]] = -2 x.den X.  In the system in (h, f), h unknowns first,
    every h column is a pivot, as the basis of h is independent; its
    reduced row echelon form therefore gives these f coefficients, free
    ones set to 0, and h = [x, f].  Equations are written only on the
    cells that x or a bracket reaches."""
    if not xf:
        return None
    x_cells = _cells(x)
    ad_x = _ad(x_cells)
    rows, rhs = _equations([ad_x(b) for b in xf], {k: -2 * x.den * v for k, v in x_cells.items()})
    sol = solve_linear(rows, rhs)
    return None if sol is None else _combination(sol, xf, x.rows, x.den)


def _solve_f(h, piece, xf, x, eigen=True):
    """The f in the span of the piece's cell maps with [x, f] = h and, when
    ``eigen``, [h, f] = -2f, or None; ``xf`` holds the ``_brackets`` of the
    piece.  For X = x.den * x and H = h.den * h the equations read
    h.den [X, f] = x.den H and [H, f] + 2 h.den f = 0, written only on the
    cells that h, a piece element or a bracket reaches."""
    cols = xf if h.den == 1 else [{k: h.den * v for k, v in b.items()} for b in xf]
    h_cells = _cells(h)
    rows, rhs = _equations(cols, {k: x.den * v for k, v in h_cells.items()})
    if eigen:
        shifted = [
            {k: hf.get(k, 0) + 2 * h.den * fb.get(k, 0) for k in hf.keys() | fb.keys()}
            for fb, hf in zip(piece, map(_ad(h_cells), piece))
        ]
        eig_rows, eig_rhs = _equations(shifted, {})
        rows += eig_rows
        rhs += eig_rhs
    sol = solve_linear(rows, rhs)
    return None if sol is None else _combination(sol, piece, x.rows)


def _toral_h(x):
    """The diagonal h of every sl2-triple through x that has one, or None.

    For h = diag(a), [h, x] = 2x says a_i - a_j = 2 on every cell (i, j) of
    x.  That fixes a up to a constant on each connected component of the
    graph that the cells of x draw on the coordinates.  x maps the
    coordinates of a component among themselves, so the block of
    h = [x, f] on a component is the commutator of the blocks of x and f
    there, of trace 0, which fixes the constant.  None when two cells
    conflict or an entry is not an integer, as the h of every sl2-triple
    has integer eigenvalues; the caller's f solve rejects an h that no
    triple has."""
    d = x.rows
    steps = [[] for _ in range(d)]
    for i, j in x.support():
        steps[i].append((j, -2))
        steps[j].append((i, 2))
    a = [None] * d
    for root in range(d):
        if a[root] is not None:
            continue
        a[root] = 0
        component = [root]
        for k in component:  # grows as the walk reaches new coordinates
            for l, step in steps[k]:
                if a[l] is None:
                    a[l] = a[k] + step
                    component.append(l)
                elif a[l] != a[k] + step:
                    return None
        shift, rest = divmod(sum(a[k] for k in component), len(component))
        if rest:
            return None
        for k in component:
            a[k] -= shift
    return _matrix(d, {(i, i): v for i, v in enumerate(a)})


def adapted_sl2_triple(
    alg: MatrixLieAlgebra, chi: Cocharacter, n: int, x: RatMatrix
) -> Sl2Triple:
    """Graded sl2-triple (e=x, h, f) with e in g_n, h in g_0, f in g_-n.

    A toral h (diagonal, inside g_0) is preferred when one exists, which
    keeps reported weight vectors deterministic.  Every toral triple
    through x has the h = diag(a) of ``_toral_h``, read off the cells of x,
    and its f is the one element of g_-n with [x, f] = h and [h, f] = -2f.
    So f lies on the cells of degree -n where a_i - a_j = -2, and
    [x, f] = h is solved over the piece on those cells alone.  When that
    fails, no triple through x has a diagonal h: [x, f0] = h, [h, x] = 2x
    is solved over all of g_-n as one linear feasibility problem in f0
    (``_solve_h``), and f is solved for with [h, f] = -2f adjoined.  Pieces
    stay cell maps throughout; only e, h and f are built as matrices, and
    the bracket relations are verified exactly every time.
    """
    if n == 0:
        raise DomainError("degree", "degree must be nonzero")
    validate_cocharacter(alg, chi)
    d = alg.dim_ambient
    if (x.rows, x.cols) != (d, d):
        raise ValueError(f"x must be a {d}x{d} matrix")
    if x.is_zero():
        raise NoTriple("x", "the zero element admits no sl2-triple")
    # g_n is the part of the algebra on the cells of degree n; as n != 0, x
    # raises every chi-weight by n and is nilpotent
    w = chi.weights
    if not alg.contains(x) or any(w[i] - w[j] != n for (i, j) in x.support()):
        raise DomainError("x", "x does not lie in the requested graded component")
    minus_n = [(i, j) for i, j in _all_cells(d) if w[i] - w[j] == -n]
    h = _toral_h(x)
    if h is not None:
        a = [h.num[i][i] for i in range(d)]
        fs = _piece(alg, [(i, j) for i, j in minus_n if a[i] - a[j] == -2])
        f = _solve_f(h, fs, _brackets(x, fs), x, eigen=False)
        triple = Sl2Triple(x, h, f)
        if f is not None and triple.bracket_relations_hold():
            return triple
    gm = _piece(alg, minus_n)
    xf = _brackets(x, gm)
    h = _solve_h(x, xf)
    f = None if h is None else _solve_f(h, gm, xf, x)
    triple = Sl2Triple(x, h, f)
    if f is not None and triple.bracket_relations_hold():
        return triple
    raise NoTriple("x", "the graded triple equations are infeasible")


# ---------------------------------------------------------------------------
# the second grading and the canonical parabolic


def _blocks_by_weight(weights):
    blocks = {}
    for i, w in enumerate(weights):
        blocks.setdefault(w, []).append(i)
    return blocks


def _integer_eigenvalues(num, den, bound):
    """The integers m in [-bound, bound], ascending, that are eigenvalues of
    num / den for a square integer matrix num: the m with m * den a root of
    det(t I - num).  The characteristic polynomial comes from the
    Faddeev-LeVerrier recursion M_i = num M_(i-1) + c_(k-i+1) I and
    c_(k-i) = -tr(num M_i) / i, an exact division, with M_0 = 0, c_k = 1."""
    k = len(num)
    coeffs = [0] * k + [1]
    prod = [[0] * k for _ in range(k)]  # num M_(i-1)
    for i in range(1, k + 1):
        c = coeffs[k - i + 1]
        m_i = [[prod[r][s] + (c if r == s else 0) for s in range(k)] for r in range(k)]
        prod = [
            [sum(num[r][t] * m_i[t][s] for t in range(k)) for s in range(k)]
            for r in range(k)
        ]
        coeffs[k - i] = -sum(prod[r][r] for r in range(k)) // i
    out = []
    for m in range(-bound, bound + 1):
        value = 0
        for c in reversed(coeffs):
            value = value * m * den + c
        if value == 0:
            out.append(m)
    return out


def chi_prime(triple: Sl2Triple, chi: Cocharacter):
    """Weights of the triple's h, with the change of basis that diagonalises
    it block-by-block inside the chi-grading.

    Returns (cocharacter, basis_change).  When h is already diagonal the
    basis change is the identity and the weights are the diagonal entries.
    """
    h = triple.h
    d = h.rows
    diagonal = all(h.num[i][j] == 0 for i in range(d) for j in range(d) if i != j)
    if diagonal:
        if any(h.num[i][i] % h.den for i in range(d)):
            raise NonIntegralWeights("h has a non-integer diagonal entry")
        return Cocharacter.of([h.num[i][i] // h.den for i in range(d)]), RatMatrix.identity(d)

    w = chi.weights
    if any(h.num[i][j] for i in range(d) for j in range(d) if w[i] != w[j]):
        raise NotSimultaneouslyDiagonal("h does not preserve the grading blocks")
    block_lists = list(_blocks_by_weight(w).values())
    col_vectors = [None] * d
    weights = [None] * d
    for idx in block_lists:
        k = len(idx)
        # the block of h times its denominator: m is an eigenvalue of the
        # block of h exactly when m * den is one of this integer block
        block = [[h.num[i][j] for j in idx] for i in idx]
        found = []
        for m in _integer_eigenvalues(block, h.den, d):
            shifted = [
                [block[a][b] - (m * h.den if a == b else 0) for b in range(k)]
                for a in range(k)
            ]
            for vec in nullspace(shifted):
                found.append((m, vec))
        if len(found) != k:
            raise NonIntegralWeights("h is not diagonalisable with integer spectrum")
        for pos, (m, vec) in zip(idx, found):
            col = [0] * d
            for a, i in enumerate(idx):
                col[i] = vec[a]
            col_vectors[pos] = col
            weights[pos] = m
    p = RatMatrix.from_rows(
        [[col_vectors[j][i] for j in range(d)] for i in range(d)]
    )
    return Cocharacter.of(weights), p


def canonical_parabolic(
    alg: MatrixLieAlgebra, chi: Cocharacter, triple: Sl2Triple, n: int
) -> ParabolicDatum:
    """Parabolic, nilradical and Levi attached to a graded triple.

    In a basis where both gradings are diagonal, a cell of bidegree
    (m', m) = (chi-weight, h-weight) goes to the parabolic when
    sign(n)*(n*m - 2*m') >= 0, to the nilradical when strict, and to the
    Levi on equality.  The indicator fixes all three.
    """
    if n == 0:
        raise DomainError("degree", "degree must be nonzero")
    validate_cocharacter(alg, chi)
    chip, p = chi_prime(triple, chi)
    # the potential sign(n)*(n*w' - 2*w) of each coordinate; a cell's
    # indicator is the potential of its row minus that of its column, and
    # the Levi blocks are the coordinates of equal potential
    sign = 1 if n > 0 else -1
    potential = [sign * (n * a - 2 * b) for a, b in zip(chip.weights, chi.weights)]
    return ParabolicDatum(
        chi=chi,
        chi_prime=chip,
        basis_change=p,
        indicator=RatMatrix.from_rows([[a - b for b in potential] for a in potential]),
        levi_blocks=tuple(tuple(b) for b in _blocks_by_weight(potential).values()),
    )


@dataclass(frozen=True)
class RigidityReport:
    is_rigid: bool
    witness: tuple | None  # (m, m') of the first violated cell


def check_n_rigid(datum: ParabolicDatum, triple: Sl2Triple, n: int, cells) -> RigidityReport:
    """The h-grading refines the cocharacter grading exactly on the cells.

    chi, chi' and the basis change p that diagonalises h come from
    ``datum``, the ``canonical_parabolic`` of the triple.  The triple's
    placement (e in g_n, h in g_0, f in g_-n) is checked first, cell by
    cell in row-major order, then each cell of the diagonalising basis in
    the order given: a cell of bidegree (m, m') = (chi'-weight, chi-weight)
    is compatible iff 2*m' = n*m.  The first misplaced or incompatible cell
    is returned as the witness.

    On the Levi's cells, ``datum.cells("l")`` with n the degree of the datum,
    2*m' = n*m holds by definition, so only placement can fail there.  The
    whole algebra reaches every cell in any basis (sl_d for d >= 2, and
    p^-1 sp_d p = B'^-1 Sym for B' = p^T B p), and a diagonal cell is always
    compatible, so for it every cell is passed.
    """
    w = datum.chi.weights
    wp = datum.chi_prime.weights
    p = datum.basis_change
    # p keeps each chi-weight block, so conjugating by it keeps every graded
    # piece: only a misplaced triple is conjugated, for its witness cell
    placement = [(triple.e, n), (triple.h, 0), (triple.f, -n)]
    if p != RatMatrix.identity(len(w)) and any(
        w[i] - w[j] != k for m, k in placement for (i, j) in m.support()
    ):
        p_inv = rat_inverse(p)
        placement = [(p_inv * m * p, k) for m, k in placement]
    for mat, expected in placement:
        for (i, j) in sorted(mat.support()):
            if w[i] - w[j] != expected:
                return RigidityReport(False, (wp[i] - wp[j], w[i] - w[j]))
    for i, j in cells:
        if 2 * (w[i] - w[j]) != n * (wp[i] - wp[j]):
            return RigidityReport(False, (wp[i] - wp[j], w[i] - w[j]))
    return RigidityReport(True, None)
