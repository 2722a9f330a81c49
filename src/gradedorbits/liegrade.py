"""Matrix realizations of sl_n and sp_2n with diagonal cocharacter gradings.

A cocharacter is the plain tuple w of its integer weights; the grading
places a matrix cell (i, j) in degree w_i - w_j.  On top of the grading this
module builds graded sl2-triples (e in g_n, h in g_0, f in g_-n), the
second grading coming from the triple's semisimple element, the canonical
parabolic/nilradical/Levi attached to a graded nilpotent, and the rigidity
test comparing the two gradings, which returns the first cell where they
disagree as its witness, or None.

sp_d is the algebra of the standard form B = [[0, I], [-I, 0]], which pairs
the coordinate k with s(k) = k +- d/2.  Every piece of the algebra, graded
or not, is the part of it on a set of matrix cells, and ``_piece`` writes
it down from the cells alone, as integer cell maps {(i, j): entry}: for sl
the units E_ij on off-diagonal cells plus a Cartan chain on the diagonal
ones, for sp one cell, or a pair of cells that B links, per element.  A
piece becomes d x d matrices only in ``graded_component``, which the
triple, the parabolic and ``check_n_rigid`` never call; the whole algebra
is its degree-0 piece for the zero cocharacter.  The canonical parabolic
is its indicator on the cells of a basis, never built, that diagonalises
both gradings: ``cells`` and ``mask`` read p, n and l off it, and
``check_n_rigid`` tests a set of those cells.

The triple stays on cells too: the equations are written only on the
cells that x, a bracket or a right-hand side reaches, and only e, h and f
are built as matrices.  ``_ad`` is the one Lie bracket: it writes the
equations and checks the bracket relations of every triple.  Everything
is exact, and returned values are immutable.
"""

from __future__ import annotations

from collections import namedtuple

from .exactlin import DomainError, RatMatrix, nullspace, solve_linear


class BadForm(ValueError):
    """sp of an odd dimension, which has no symplectic form."""


class NoTriple(DomainError):
    """No graded sl2-triple through the given element."""


class NonIntegralWeights(ValueError):
    """Semisimple element with non-integral spectrum (broken triple)."""


class NotSimultaneouslyDiagonal(ValueError):
    """h does not preserve the chi-weight blocks."""


class MatrixLieAlgebra(namedtuple("MatrixLieAlgebra", "kind dim_ambient")):
    """sl_d or sp_d: ``kind`` is "sl" or "sp", ``dim_ambient`` is d."""

    __slots__ = ()

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


class Sl2Triple(namedtuple("Sl2Triple", "e h f")):
    __slots__ = ()

    def bracket_relations_hold(self) -> bool:
        """[h, e] = 2e, [h, f] = -2f and [e, f] = h, exactly: on the
        numerator cell maps E, H and F, [H, E] = 2 h.den E,
        [H, F] = -2 h.den F and h.den [E, F] = e.den f.den H, with the
        brackets from ``_ad``."""
        e, h, f = _cells(self.e), _cells(self.h), _cells(self.f)
        ad_h, h_den = _ad(h), self.h.den

        def times(c, cells):
            return {k: c * v for k, v in cells.items()}

        return (
            ad_h(e) == times(2 * h_den, e)
            and ad_h(f) == times(-2 * h_den, f)
            and times(h_den, _ad(e)(f)) == times(self.e.den * self.f.den, h)
        )

    @staticmethod
    def zero(d: int) -> "Sl2Triple":
        z = RatMatrix.zeros(d, d)
        return Sl2Triple(z, z, z)


# which cells of a parabolic's indicator the parabolic, its nilradical and
# its Levi keep
_PIECE_TESTS = {"p": lambda s: s >= 0, "n": lambda s: s > 0, "l": lambda s: s == 0}


class ParabolicDatum(namedtuple("ParabolicDatum", "chi chi_prime indicator levi_blocks")):
    """The weights chi and chi' of both gradings, the ``RatMatrix`` indicator
    with sign(n) * (n*m - 2*m') in each cell, and the Levi blocks as
    coordinate classes in first-occurrence order."""

    __slots__ = ()

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
    (b, b) of the set.  On all cells this is a basis of sl_d."""
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


def validate_cocharacter(alg: MatrixLieAlgebra, chi: tuple) -> None:
    if len(chi) != alg.dim_ambient:
        raise ValueError("cocharacter length does not match ambient dimension")
    if alg.kind == "sl" and sum(chi) != 0:
        raise DomainError("cochar", "sl cocharacter weights must sum to zero")
    if alg.kind == "sp":
        # chi preserves B exactly when w_i + w_s(i) = 0 for every i
        d = alg.dim_ambient
        for i in range(d):
            j = (i + d // 2) % d
            if chi[i] + chi[j] != 0:
                raise DomainError(
                    "cochar",
                    f"sp cocharacter must satisfy w[{i}] + w[{j}] = 0, as B[{i}][{j}] != 0"
                )


def weight_matrix(chi: tuple) -> RatMatrix:
    return RatMatrix.from_rows([[wi - wj for wj in chi] for wi in chi])


def graded_component(alg: MatrixLieAlgebra, chi: tuple, n: int) -> tuple:
    """A basis of the degree-n piece g_n, as d x d matrices."""
    validate_cocharacter(alg, chi)
    d = alg.dim_ambient
    cells = [(i, j) for i in range(d) for j in range(d) if chi[i] - chi[j] == n]
    return tuple(_matrix(d, c) for c in _piece(alg, cells))


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


def _combination(sol, piece, d, den=1) -> RatMatrix:
    """sum_k coeffs[k] piece[k] / (common * den) as a d x d matrix, for
    integer cell maps and sol = (coeffs, common) from ``solve_linear``."""
    coeffs, common = sol
    acc = {}
    for c, m in zip(coeffs, piece):
        for k, v in m.items():
            acc[k] = acc.get(k, 0) + c * v
    return _matrix(d, acc, common * den)


def _solve_h(x, piece, xf):
    """(h, f0) with [x, f0] = h in g0, [h, x] = 2x and f0 in the span of the
    piece's cell maps, or None; ``xf`` holds their ``_brackets`` [X, F_k],
    X = x.den * x.  This is [X, [X, f0]] = -2 x.den X in f0 alone, on the
    cells that x or a bracket reaches, free coefficients 0; h is that of
    the system in (h, f0), as its h columns are all pivots."""
    if not xf:
        return None
    x_cells = _cells(x)
    ad_x = _ad(x_cells)
    rows, rhs = _equations([ad_x(b) for b in xf], {k: -2 * x.den * v for k, v in x_cells.items()})
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    return _combination(sol, xf, x.rows, x.den), _combination(sol, piece, x.rows)


def _solve_f(h, piece, xf, x):
    """The f in the span of the piece's cell maps with [x, f] = h and
    [h, f] = -2f, or None; ``xf`` holds the ``_brackets`` of the piece.
    For X = x.den * x and H = h.den * h the equations read
    h.den [X, f] = x.den H and [H, f] + 2 h.den f = 0, written only on the
    cells that h, a piece element or a bracket reaches."""
    cols = xf if h.den == 1 else [{k: h.den * v for k, v in b.items()} for b in xf]
    h_cells = _cells(h)
    rows, rhs = _equations(cols, {k: x.den * v for k, v in h_cells.items()})
    shifted = [
        {k: hf.get(k, 0) + 2 * h.den * fb.get(k, 0) for k in hf.keys() | fb.keys()}
        for fb, hf in zip(piece, map(_ad(h_cells), piece))
    ]
    eig_rows, eig_rhs = _equations(shifted, {})
    sol = solve_linear(rows + eig_rows, rhs + eig_rhs)
    return None if sol is None else _combination(sol, piece, x.rows)


def _checked(x, h, f):
    """The triple (x, h, f), or None when f is None or a relation fails."""
    triple = Sl2Triple(x, h, f)
    return triple if f is not None and triple.bracket_relations_hold() else None


def adapted_sl2_triple(
    alg: MatrixLieAlgebra, chi: tuple, n: int, x: RatMatrix
) -> Sl2Triple:
    """Graded sl2-triple (e=x, h, f) with e in g_n, h in g_0, f in g_-n.

    ``_solve_h`` gives h and an f0 over g_-n.  Given x and h, f is unique:
    the difference z of two has [x, z] = 0 and ad-h weight -2, but a vector
    killed by x has weight >= 0.  So f0 is f when the relations hold, and
    only otherwise is f solved for with [h, f] = -2f adjoined.  A toral
    triple (x, diag(a), f), when one exists, is the one found, which keeps
    reported weight vectors deterministic: ad-diag(a) grades the f0
    system, x raising weights by 2, so the weight -2 part of f0 solves it
    on pivot columns, where the solution is unique, and is f0; ad_x^2 is
    injective on weight -2 (sl2 theory), so f0 = f.  The bracket
    relations are verified exactly on every triple returned.
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
    if not alg.contains(x) or any(chi[i] - chi[j] != n for (i, j) in x.support()):
        raise DomainError("x", "x does not lie in the requested graded component")
    gm = _piece(alg, [(i, j) for i, j in _all_cells(d) if chi[i] - chi[j] == -n])
    xf = _brackets(x, gm)
    solved = _solve_h(x, gm, xf)
    if solved:
        h, f0 = solved
        triple = _checked(x, h, f0) or _checked(x, h, _solve_f(h, gm, xf, x))
        if triple:
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


def chi_prime(triple: Sl2Triple, chi: tuple) -> tuple:
    """Weights of the triple's h: its diagonal when h is diagonal, else on
    each chi-weight block, which h must preserve, the integer eigenvalues
    in ascending order, each as often as the dimension of its eigenspace:
    the weights of h in any basis that diagonalises it block by block."""
    h = triple.h
    d = h.rows
    if all(i == j for i, j in h.support()):
        if any(h.num[i][i] % h.den for i in range(d)):
            raise NonIntegralWeights("h has a non-integer diagonal entry")
        return tuple(h.num[i][i] // h.den for i in range(d))

    if any(chi[i] != chi[j] for i, j in h.support()):
        raise NotSimultaneouslyDiagonal("h does not preserve the grading blocks")
    weights = [None] * d
    for idx in _blocks_by_weight(chi).values():
        k = len(idx)
        # the block of h times its denominator: m is an eigenvalue of the
        # block of h exactly when m * den is one of this integer block
        block = [[h.num[i][j] for j in idx] for i in idx]
        spectrum = []
        for m in _integer_eigenvalues(block, h.den, d):
            shifted = [
                [block[a][b] - (m * h.den if a == b else 0) for b in range(k)]
                for a in range(k)
            ]
            spectrum += [m] * len(nullspace(shifted))
        if len(spectrum) != k:
            raise NonIntegralWeights("h is not diagonalisable with integer spectrum")
        for pos, m in zip(idx, spectrum):
            weights[pos] = m
    return tuple(weights)


def canonical_parabolic(
    alg: MatrixLieAlgebra, chi: tuple, triple: Sl2Triple, n: int
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
    chip = chi_prime(triple, chi)
    # the potential sign(n)*(n*w' - 2*w) of each coordinate; a cell's
    # indicator is the potential of its row minus that of its column, and
    # the Levi blocks are the coordinates of equal potential
    sign = 1 if n > 0 else -1
    potential = [sign * (n * a - 2 * b) for a, b in zip(chip, chi)]
    return ParabolicDatum(
        chi=chi,
        chi_prime=chip,
        indicator=RatMatrix.from_rows([[a - b for b in potential] for a in potential]),
        levi_blocks=tuple(tuple(b) for b in _blocks_by_weight(potential).values()),
    )


def check_n_rigid(datum: ParabolicDatum, triple: Sl2Triple, n: int, cells):
    """The witness (m, m') of the first cell where the h-grading fails to
    refine the cocharacter grading, or None when it refines it exactly on
    the cells, that is, when the triple is rigid there.

    chi and chi' come from ``datum``, the ``canonical_parabolic`` of the
    triple.  The triple's placement (e in g_n, h in g_0, f in g_-n) is
    checked first on e, h and f as given, row-major (a basis change that
    diagonalises h keeps every graded piece), then each cell of the
    diagonalising basis in the order given: a cell of bidegree (m, m') =
    (chi'-weight, chi-weight) is compatible iff 2*m' = n*m.  The first
    misplaced or incompatible cell gives the witness.

    On the Levi's cells, ``datum.cells("l")`` with n the degree of the datum,
    2*m' = n*m holds by definition, so only placement can fail there.  The
    whole algebra reaches every cell in any basis (sl_d for d >= 2, and
    p^-1 sp_d p = B'^-1 Sym for B' = p^T B p), and a diagonal cell is always
    compatible, so for it every cell is passed.
    """
    w, wp = datum.chi, datum.chi_prime
    for mat, expected in ((triple.e, n), (triple.h, 0), (triple.f, -n)):
        for (i, j) in sorted(mat.support()):
            if w[i] - w[j] != expected:
                return wp[i] - wp[j], w[i] - w[j]
    for i, j in cells:
        if 2 * (w[i] - w[j]) != n * (wp[i] - wp[j]):
            return wp[i] - wp[j], w[i] - w[j]
    return None
