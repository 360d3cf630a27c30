"""Finite-dimensional representations of the pointed hull relations.

A representation is a triple of rational matrices (e1, s12, s21) obeying
the seven pointed relations: e1 idempotent, both s-matrices square-zero,
and the unit and annihilation laws that make s12 run from the second
point to the first and s21 back.  Such a triple decomposes the space
into the two eigenblocks of e1, with s12 and s21 carried by a pair of
blocks A and B; classification is the orbit problem for (A, B) under
basis changes of the two eigenspaces.

These pairs are representations of the oriented 2-cycle, classified in
every dimension by strings (the nilpotent part) and the invariant
factors of AB (the part where A and B are invertible).  normal_form
computes both with an explicit change of basis, so are_conjugate is
exact and polynomial in every dimension, is_simple is exact in every
dimension, and is_indecomposable is exact in every dimension except on
one invariant factor of degree 3 or more, which would need factoring
over the rationals.
match_label reads the family off the normal form, and classify reads
each listed family's flags and summands off one normal form of its
representative.  match_label, the family tables and
find_proper_submodule (a vertex line, off one kernel per e1 eigenvalue)
are complete up to dimension 3, classify(4) is a documented best
effort, and anything larger is refused rather than approximated.
Everything here is exact.  A QMatrix is integer rows over one
denominator, and the normal form runs on integer vectors; Fractions are
built only where a value is handed out: entries read back, the
invariant factors and find_proper_submodule's vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Sequence

from .linalg import QMatrix, integer_kernel, kernel_basis, mat_mul, pivot_columns, rank
from .weyl import _exact_number, _memo, _tally

_ONE = Fraction(1)


class UnsupportedDimensionError(ValueError):
    pass


class RelationViolation(ValueError):
    """Raised when a matrix triple breaks the pointed relations.

    violations lists every broken law as (name, residual matrix), not
    just the first one found.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        names = ", ".join(name for name, _ in self.violations)
        super().__init__(f"relations violated: {names}")


def _qmat(data) -> QMatrix:
    if isinstance(data, QMatrix):
        return data
    return QMatrix(data)


class Representation:
    """A matrix triple acted on by conjugation."""

    __slots__ = ("e1", "s12", "s21", "label", "params")

    def __init__(self, e1, s12, s21, label: str | None = None,
                 params: dict | None = None):
        self.e1 = _qmat(e1)
        self.s12 = _qmat(s12)
        self.s21 = _qmat(s21)
        n = self.e1.nrows
        if n == 0:
            raise ValueError("a representation needs dimension at least 1")
        for m in (self.e1, self.s12, self.s21):
            if m.shape != (n, n):
                raise ValueError("the three matrices must be square, same size")
        self.label = label
        self.params = dict(params) if params else {}

    @property
    def n(self) -> int:
        return self.e1.nrows

    @property
    def e2(self) -> QMatrix:
        return QMatrix.identity(self.n) - self.e1

    def triple(self) -> tuple[QMatrix, QMatrix, QMatrix]:
        return (self.e1, self.s12, self.s21)

    def conjugate(self, g: QMatrix) -> "Representation":
        g = _qmat(g)
        ginv = g.inverse()
        if ginv is None:
            raise ValueError("change of basis must be invertible")
        return Representation(
            g * self.e1 * ginv, g * self.s12 * ginv, g * self.s21 * ginv
        )

    def direct_sum(self, other: "Representation") -> "Representation":
        def block(a: QMatrix, b: QMatrix) -> QMatrix:
            za = QMatrix.zeros(a.nrows, b.ncols)
            zb = QMatrix.zeros(b.nrows, a.ncols)
            return QMatrix.from_blocks([[a, za], [zb, b]])

        return Representation(
            block(self.e1, other.e1),
            block(self.s12, other.s12),
            block(self.s21, other.s21),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return self.triple() == other.triple()

    def __hash__(self) -> int:
        return hash(self.triple())

    def __repr__(self) -> str:
        tag = self.label or f"dim {self.n}"
        return f"Representation<{tag}>"


def validate(rep: Representation) -> None:
    """Check all seven pointed relations, collecting every violation."""
    e1, s12, s21 = rep.triple()
    checks = (
        ("S12^2 = 0", s12 * s12),
        ("S21^2 = 0", s21 * s21),
        ("E1^2 = E1", e1 * e1 - e1),
        ("E1*S12 = S12", e1 * s12 - s12),
        ("S21*E1 = S21", s21 * e1 - s21),
        ("S12*E1 = 0", s12 * e1),
        ("E1*S21 = 0", e1 * s21),
    )
    bad = [(name, residual) for name, residual in checks if not residual.is_zero()]
    if bad:
        raise RelationViolation(bad)


def evaluate_word(rep: Representation, word: Sequence[str]) -> QMatrix:
    table = {"e1": rep.e1, "e2": rep.e2, "s12": rep.s12, "s21": rep.s21}
    out = QMatrix.identity(rep.n)
    for name in word:
        if name not in table:
            raise KeyError(f"no matrix for generator {name!r}")
        out = out * table[name]
    return out


def satisfies(rep: Representation, relation) -> bool:
    """Whether the rep satisfies every equation of an ext-layer relation."""
    for lhs, rhs in relation.equations:
        left = evaluate_word(rep, lhs)
        right = (
            QMatrix.zeros(rep.n, rep.n) if rhs is None else evaluate_word(rep, rhs)
        )
        if left != right:
            return False
    return True


# -- quiver coordinates ----------------------------------------------------


@dataclass(frozen=True)
class QuiverForm:
    """Block coordinates of a representation.

    basis columns list an eigenbasis of e1 (the dim-p eigenvalue-1 part
    first); conjugating by basis^-1 puts the triple into block shape
    with a sitting in the upper right of s12 and b in the lower left of
    s21.
    """

    dims: tuple[int, int]
    a: QMatrix
    b: QMatrix
    basis: QMatrix


@_memo
def quiver_form(rep: Representation) -> QuiverForm:
    """Block coordinates, checking the relations on the way.

    e1 is idempotent exactly when its eigenvectors for 1 and 0 span the
    space, and then the other six relations say that s12 sits in the
    upper right block and s21 in the lower left.  So the relations are
    checked by block shape; a broken one raises validate()'s full
    RelationViolation, on every call, since exceptions are not cached.

    An e1 that is already diag(1, ..., 1, 0, ..., 0), as every
    representative's is, has the identity for basis, and its blocks are
    read off s12 and s21 as they stand.

    Memoized per triple for the life of the process: equal triples share
    one immutable form, and clear_caches() empties the memo.
    """
    n, rows = rep.n, rep.e1._num
    p = sum(1 for i in range(n) if rows[i][i] == 1)
    # a 0/1 matrix is stored over the denominator 1
    if rep.e1._den == 1 and all(x == (i == j < p) for i, row in enumerate(rows)
                                for j, x in enumerate(row)):
        s12, s21 = rep.s12._num, rep.s21._num
        if all(s12[i][j] == 0 == s21[j][i] for i in range(n) for j in range(n) if not i < p <= j):
            return QuiverForm((p, n - p),
                              QMatrix._int(tuple(row[p:] for row in s12[:p]), rep.s12._den, n - p),
                              QMatrix._int(tuple(row[:p] for row in s21[p:]), rep.s21._den, p),
                              QMatrix.identity(n))
    elif (split := _eigenbasis(rep.e1)) is not None:
        p, basis, binv = split
        blocks = _conjugated_blocks(rep, p, basis, binv)
        if blocks is not None:
            return QuiverForm((p, n - p), *blocks, basis)
    validate(rep)
    raise AssertionError("the relations hold but the blocks are out of shape")


def _conjugated_blocks(rep: Representation, p: int, basis: QMatrix,
                       binv: QMatrix) -> tuple[QMatrix, QMatrix] | None:
    """a and b of binv s12 basis and binv s21 basis, or None when a block
    that must be zero is not.

    binv is invertible, so X = s12 basis and Y = s21 basis decide on their
    own that the first p columns of binv X and the last q of binv Y are
    zero; binv times the other columns gives a, b and the last two zero
    blocks.  Only those columns are multiplied by binv.
    """
    n = rep.n
    x, y = rep.s12 * basis, rep.s21 * basis
    if any(any(row[:p]) or any(y_row[p:]) for row, y_row in zip(x._num, y._num)):
        return None
    xa = binv * QMatrix._int(tuple(row[p:] for row in x._num), x._den, n - p)
    yb = binv * QMatrix._int(tuple(row[:p] for row in y._num), y._den, p)
    if any(map(any, xa._num[p:])) or any(map(any, yb._num[:p])):
        return None
    return QMatrix._int(xa._num[:p], xa._den, n - p), QMatrix._int(yb._num[p:], yb._den, p)


def _eigenbasis(e1: QMatrix) -> tuple[int, QMatrix, QMatrix] | None:
    """(p, basis, basis^-1), the columns of basis the kernel bases of
    e1 - I (p vectors) and of e1, or None when those do not span.

    A kernel_basis vector is 1 at its own free column and 0 at the other
    free columns, and where the two kernels span, e1 projects onto the
    first along the second.  So the coordinates of x are e1 x at the
    first kernel's free columns, then x - e1 x at the second's.
    """
    n, rows, den = e1.nrows, e1._num, e1._den
    ones, zeros = (integer_kernel(m, n) for m in (
        [[x - den if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)], rows))
    if len(ones) + len(zeros) != n:
        return None
    binv = tuple(rows[_free(v)] for v in ones) + tuple(
        tuple(den * (i == c) - x for i, x in enumerate(rows[c])) for c in map(_free, zeros))
    return len(ones), _exact(ones + zeros, n).transpose(), QMatrix._int(binv, den, n)


def _rep_from_blocks(p: int, q: int, a_rows, b_rows,
                     label: str | None = None,
                     params: dict | None = None) -> Representation:
    n = p + q

    def block(entry) -> QMatrix:
        return QMatrix._of(tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))

    return Representation(
        block(lambda i, j: int(i == j < p)),
        block(lambda i, j: a_rows[i][j - p] if i < p <= j else 0),
        block(lambda i, j: b_rows[i - p][j] if j < p <= i else 0),
        label=label, params=params,
    )


# -- the canonical families -------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    label: str
    dims: tuple[int, int]
    parameter: str | None
    a_rows: Callable[[Fraction | None], list]
    b_rows: Callable[[Fraction | None], list]


def _const(rows):
    return lambda _v: rows


def _families() -> dict[str, FamilySpec]:
    specs = [
        FamilySpec("T_1_1", (1, 0), None, _const([]), _const([])),
        FamilySpec("T_1_2", (0, 1), None, _const([]), _const([])),
        FamilySpec("T_2_1", (0, 2), None, _const([]), _const([])),
        FamilySpec("T_2_2", (2, 0), None, _const([]), _const([])),
        FamilySpec("T_2_3", (1, 1), None, _const([[0]]), _const([[0]])),
        FamilySpec("T_2_4", (1, 1), None, _const([[0]]), _const([[1]])),
        FamilySpec("T_2_5", (1, 1), None, _const([[1]]), _const([[0]])),
        FamilySpec("T_2_6", (1, 1), "a", _const([[1]]), lambda v: [[v]]),
        FamilySpec("T_3_1", (0, 3), None, _const([]), _const([])),
        FamilySpec("T_3_2", (3, 0), None, _const([]), _const([])),
        FamilySpec("T_3_3", (1, 2), None, _const([[0, 0]]), _const([[0], [0]])),
        FamilySpec("T_3_4", (1, 2), None, _const([[0, 0]]), _const([[1], [0]])),
        FamilySpec("T_3_5", (1, 2), None, _const([[1, 0]]), _const([[0], [0]])),
        FamilySpec("T_3_6", (1, 2), None, _const([[1, 0]]), _const([[0], [1]])),
        FamilySpec("T_3_7", (1, 2), "b", _const([[1, 0]]), lambda v: [[v], [0]]),
        FamilySpec("T_3_8", (2, 1), None, _const([[0], [0]]), _const([[0, 0]])),
        FamilySpec("T_3_9", (2, 1), None, _const([[0], [0]]), _const([[0, 1]])),
        FamilySpec("T_3_10", (2, 1), None, _const([[0], [1]]), _const([[0, 0]])),
        FamilySpec("T_3_11", (2, 1), None, _const([[0], [1]]), _const([[1, 0]])),
        FamilySpec("T_3_12", (2, 1), "c", _const([[0], [1]]), lambda v: [[0, v]]),
        FamilySpec("T_4_1", (0, 4), None, _const([]), _const([])),
        FamilySpec("T_4_2", (4, 0), None, _const([]), _const([])),
        FamilySpec("T_4_3", (1, 3), None,
                   _const([[0, 0, 0]]), _const([[0], [0], [0]])),
        FamilySpec("T_4_4", (1, 3), None,
                   _const([[0, 0, 0]]), _const([[1], [0], [0]])),
        FamilySpec("T_4_5", (1, 3), None,
                   _const([[1, 0, 0]]), _const([[0], [0], [0]])),
        FamilySpec("T_4_6", (1, 3), None,
                   _const([[1, 0, 0]]), _const([[0], [1], [0]])),
        FamilySpec("T_4_7", (1, 3), "e",
                   _const([[1, 0, 0]]), lambda v: [[v], [0], [0]]),
        FamilySpec("T_4_8", (3, 1), None,
                   _const([[0], [0], [0]]), _const([[0, 0, 0]])),
        FamilySpec("T_4_9", (3, 1), None,
                   _const([[0], [0], [0]]), _const([[0, 0, 1]])),
        FamilySpec("T_4_10", (3, 1), None,
                   _const([[0], [0], [1]]), _const([[0, 0, 0]])),
        FamilySpec("T_4_11", (3, 1), None,
                   _const([[0], [0], [1]]), _const([[1, 0, 0]])),
        FamilySpec("T_4_12", (3, 1), "e",
                   _const([[0], [0], [1]]), lambda v: [[0, 0, v]]),
        FamilySpec("T_4_13", (2, 2), None,
                   _const([[0, 0], [0, 0]]), _const([[0, 0], [0, 0]])),
        FamilySpec("T_4_14", (2, 2), None,
                   _const([[0, 0], [0, 0]]), _const([[1, 0], [0, 0]])),
        FamilySpec("T_4_15", (2, 2), None,
                   _const([[0, 0], [0, 0]]), _const([[1, 0], [0, 1]])),
        FamilySpec("T_4_16", (2, 2), None,
                   _const([[1, 0], [0, 0]]), _const([[0, 0], [0, 0]])),
        FamilySpec("T_4_17", (2, 2), None,
                   _const([[1, 0], [0, 0]]), _const([[0, 1], [0, 0]])),
        FamilySpec("T_4_18", (2, 2), None,
                   _const([[1, 0], [0, 0]]), _const([[0, 0], [1, 0]])),
        FamilySpec("T_4_19", (2, 2), None,
                   _const([[1, 0], [0, 0]]), _const([[0, 0], [0, 1]])),
        FamilySpec("T_4_20", (2, 2), None,
                   _const([[1, 0], [0, 0]]), _const([[0, 1], [1, 0]])),
        FamilySpec("T_4_21", (2, 2), "e",
                   _const([[1, 0], [0, 0]]), lambda v: [[v, 0], [0, 0]]),
        FamilySpec("T_4_22", (2, 2), "e",
                   _const([[1, 0], [0, 0]]), lambda v: [[v, 0], [0, 1]]),
        FamilySpec("T_4_23", (2, 2), None,
                   _const([[1, 0], [0, 1]]), _const([[0, 0], [0, 0]])),
        FamilySpec("T_4_24", (2, 2), None,
                   _const([[1, 0], [0, 1]]), _const([[0, 1], [0, 0]])),
        FamilySpec("T_4_25", (2, 2), "e",
                   _const([[1, 0], [0, 1]]), lambda v: [[v, 1], [0, v]]),
        FamilySpec("T_4_26", (2, 2), "e",
                   _const([[1, 0], [0, 1]]), lambda v: [[v, 0], [0, v]]),
    ]
    return {s.label: s for s in specs}


FAMILIES = _families()


def representative(label: str, params: dict | None = None) -> Representation:
    """Canonical representative of a family, by label.

    Parametric families need their parameter supplied and nonzero;
    whatever extra keys arrive in params are ignored.
    """
    spec = FAMILIES.get(label)
    if spec is None:
        raise KeyError(f"unknown family label {label!r}")
    value = None
    if spec.parameter is not None:
        if not params or spec.parameter not in params:
            raise ValueError(
                f"family {label} needs parameter {spec.parameter!r}"
            )
        value = _exact_number(params[spec.parameter])
        if value == 0:
            raise ValueError(
                f"parameter {spec.parameter!r} of {label} must be nonzero"
            )
    p, q = spec.dims
    rep = _rep_from_blocks(
        p, q, spec.a_rows(value), spec.b_rows(value),
        label=label,
        params={spec.parameter: value} if spec.parameter else None,
    )
    return rep


# -- conjugacy, simplicity, decomposability ---------------------------------


def intertwiners(rep1: Representation, rep2: Representation) -> list[QMatrix]:
    """Basis of {g : g x = x' g for the three matrices}."""
    if rep1.n != rep2.n:
        raise ValueError("intertwiners need equal dimensions")
    n = rep1.n
    rows = []
    for x, xp in zip(rep1.triple(), rep2.triple()):
        # (g x - xp g)[i][j] = sum_k g[i][k] x[k][j] - xp[i][k] g[k][j]
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += x[k, j]
                    row[k * n + j] -= xp[i, k]
                rows.append(row)
    basis = []
    for vec in kernel_basis(rows, n * n):
        basis.append(QMatrix([vec[i * n : (i + 1) * n] for i in range(n)]))
    return basis


@dataclass(frozen=True)
class NormalForm:
    """The conjugation invariants of a representation, and a basis.

    dims is (p, q); strings lists the nilpotent summands as (start
    vertex, length), vertex 1 being e1's eigenvalue-1 side, sorted;
    factors are the invariant factors of AB on im (AB)^n, monic with the
    constant term first, each divisible by the next.  Together they
    classify the representation.  The columns of basis are a change of
    basis g for which g^-1 rep g is the block normal form the invariants
    determine: a T-chain x, Tx, T^2 x, ... per summand, T = s12 + s21,
    its vertex-1 vectors first.  Forms compare by their invariants only.
    """

    dims: tuple[int, int]
    strings: tuple[tuple[int, int], ...]
    factors: tuple[tuple[Fraction, ...], ...]
    basis: QMatrix = field(compare=False)

    def _steps(self) -> list[tuple[int, int, int]]:
        """(vertex, chain, step) of each basis position, in order: chains are
        the strings then the factors, and the basis is sorted by those keys,
        as _block_normal_form has it."""
        chains = [(v - 1, n) for v, n in self.strings] + [(0, 2 * len(f) - 2) for f in self.factors]
        return sorted(((v + i) % 2, c, i) for c, (v, n) in enumerate(chains) for i in range(n))

    def blocks(self) -> list[tuple[int, ...]]:
        """Basis positions of each summand's chain, strings then factors."""
        order = self._steps()
        return [tuple(k for k, x in enumerate(order) if x[1] == c)
                for c in range(len(self.strings) + len(self.factors))]

    def _images(self) -> list[dict[int, Fraction]]:
        """T = s12 + s21 in the basis, read off the invariants: column k as
        {position: coefficient}.  T maps each chain vector to the next, a
        string's last vector to 0, and a factor chain's last vector,
        M^d x, to -sum f_i M^i x."""
        order = self._steps()
        at = {(c, i): k for k, (_, c, i) in enumerate(order)}
        out = []
        for _, c, i in order:
            f = self.factors[c - len(self.strings)] if c >= len(self.strings) else ()
            nxt = at.get((c, i + 1))
            out.append({nxt: _ONE} if nxt is not None else
                       {at[c, 2 * j]: -x for j, x in enumerate(f[:-1]) if x})
        return out


def _new_span(below: list, vectors: list) -> list[int]:
    """Indices of the vectors outside the span of below and the vectors
    before them: the pivot columns, past below's, of the matrix whose
    columns are below followed by the vectors."""
    pivots = pivot_columns(zip(*below, *vectors))
    return [c - len(below) for c in pivots if c >= len(below)]


def _powers(t: QMatrix, vec: Sequence[int], length: int) -> list[list[int]]:
    """vec, N vec, N^2 vec, ..., length integer vectors in all, N = t's
    integer rows: t^i vec times den^i."""
    out = [list(vec)]
    while len(out) < length:
        out.append(t._times(out[-1]))
    return out


def _chain(t: QMatrix, vec: Sequence[int], den: int, length: int) -> list[tuple[list[int], int]]:
    """vec / den, t vec / den, t^2 vec / den, ..., length exact vectors in
    all, each an integer vector over a positive denominator, in lowest terms."""
    out = []
    while True:
        g = gcd(den, *vec)
        out.append(([x // g for x in vec], den // g))
        if len(out) == length:
            return out
        vec, den = t._times(out[-1][0]), out[-1][1] * t._den


def _free(vec: Sequence[int]) -> int:
    """The free column of an integer_kernel vector: its last nonzero entry."""
    return max(i for i, x in enumerate(vec) if x)


def _over(pairs: list[tuple[Sequence[int], int]], ncols: int) -> QMatrix:
    """The matrix whose rows are the exact vectors v / e of (v, e) pairs."""
    den = lcm(*(e for _, e in pairs))
    return QMatrix._int(tuple(tuple(x * (den // e) for x in v) for v, e in pairs), den, ncols)


def _exact(vectors: list[list[int]], ncols: int) -> QMatrix:
    """The matrix whose rows are kernel_basis's vectors, from integer_kernel's:
    each divided by its last nonzero entry."""
    return _over([(v, v[_free(v)]) for v in vectors], ncols)


@_memo
def normal_form(rep: Representation) -> NormalForm:
    """Invariants and a change of basis to the block normal form of the
    quiver form's blocks (see _block_normal_form).

    Memoized per triple like quiver_form: equal triples share one
    immutable form, and clear_caches() empties the memo.
    """
    form = quiver_form(rep)
    nf = _block_normal_form(form.dims[0], form.dims[1], form.a, form.b)
    if form.basis == QMatrix.identity(rep.n):  # a split e1's
        return nf
    return replace(nf, basis=form.basis * nf.basis)


def _block_normal_form(p: int, q: int, a: QMatrix, b: QMatrix) -> NormalForm:
    """The normal form of block data, its basis in block coordinates.

    T = s12 + s21 is graded, so ker T^l splits over the two vertices.
    On vertex v's columns T^l has one nonzero row block, X_v(l): B, AB,
    BAB, ... from vertex 0 and A, BA, ABA, ... from vertex 1.  So each
    level of the kernel flag is one block product and one kernel per
    vertex, up to T^l = 0 or the Fitting index, where the kernels stop
    growing.
    The nilpotent summands are graded Jordan chains of T: a string of
    length l starting at a vertex has its top in a complement of
    ker T^(l-1) + T ker T^(l+1) inside ker T^l at that vertex.  The flag's
    dimensions give the number of such strings, so the complement is
    computed only where one exists.  On im (AB)^n, where A and B are
    invertible, M = T^2 acts as AB and is split into cyclic chains.  Each
    chain starts at a maximal vector (its Krylov space as large as the
    minimal polynomial allows), taken from the moment curve sum c^i w_i
    at c = 0, 1, ..., k^2: each of the at most k proper subspaces of
    non-maximal vectors meets that curve in at most k - 1 points.  A dual
    vector f with f(M^i v) = [i = d - 1] cuts out an invariant complement
    for the next chain.  Exact and polynomial in n; nothing is factored
    and nothing is random.

    All of it runs on integers.  Kernels, spans and ranks need vectors only
    up to a nonzero factor, so the flag holds primitive integer vectors and
    T acts by its integer rows; where a value enters the basis or the
    factors, it is exact: a chain starts at kernel_basis's vector, the
    flag's divided by its last nonzero entry, and goes on over one
    denominator per vector.
    """
    _tally("reps.block_normal_form")
    n = p + q
    t = QMatrix.from_blocks([[QMatrix.zeros(p, p), a], [b, QMatrix.zeros(q, q)]])
    # flag[l][v] spans ker T^l inside vertex v (0 for e1's 1-eigenspace),
    # up to T^l = 0 or the Fitting index, where the kernels stop growing;
    # xs[v] is X_v(l), whose rows sit at vertex v + l
    flag = [[[], []]]
    xs = [b, a]
    while sum(map(len, flag[-1])) < n:
        if len(flag) > 1:
            xs = [(b if (v + len(flag)) % 2 else a) * xs[v] for v in (0, 1)]
        level = [[[0] * lo + k + [0] * (n - hi) for k in integer_kernel(xs[v]._num, hi - lo)]
                 for v, (lo, hi) in enumerate(((0, p), (p, n)))]
        if sum(map(len, level)) == sum(map(len, flag[-1])):
            break
        flag.append(level)
    flag.append(flag[-1])
    dim = [list(map(len, sides)) for sides in flag]
    strings, chains = [], []
    for v in (0, 1):
        for length in range(1, len(flag) - 1):
            # the number of strings (v + 1, length)
            if not (dim[length][v] - dim[length - 1][v]
                    - dim[length + 1][1 - v] + dim[length][1 - v]):
                continue
            below = flag[length - 1][v] + [t._times(x) for x in flag[length + 1][1 - v]]
            for k in _new_span(below, flag[length][v]):
                top = flag[length][v][k]
                strings.append((v + 1, length))
                chains.append((v, _chain(t, top, top[_free(top)], length)))
    # im T^l past the Fitting index, inside vertex 1, where M = T^2 is AB:
    # the columns of the X whose rows sit at vertex 0; none if T^l = 0
    w = QMatrix.zeros(0, n)
    if sum(dim[-1]) < n:
        x = xs[(len(flag) - 1) % 2]
        image = [c + (0,) * q for c in zip(*x._num)]
        w = QMatrix._int(tuple(image[k] for k in _new_span([], image)), x._den, n)
    tt = t.transpose()
    factors = []
    while w.nrows:
        k = w.nrows
        # d: the degree of M's minimal polynomial on span w, which M maps
        # into itself, so a line is an eigenline and d = 1; the rows of w
        # share one denominator, so each row below is the exact M^i w
        # times one nonzero factor
        if k == 1:
            d = 1
        else:
            powers = [_powers(t, x, 2 * k + 1)[::2] for x in w._num]
            d = rank([sum(col, []) for col in zip(*powers)])
        for c in range(k * k + 1):
            top = mat_mul([[c ** i for i in range(k)]], w._num, n, 0)[0]
            chain = _chain(t, top, w._den, 2 * d + 1)
            krylov = chain[::2]
            # the columns top, M top, ..., M^d top, each times its
            # denominator, are dependent; the first d are independent
            # exactly when the first kernel vector is free at column d, and
            # then it holds M^d top's unique coefficients on them
            rel = integer_kernel(zip(*(x for x, _ in krylov)), d + 1)[0]
            if _free(rel) == d:
                break
        dens = [e for _, e in krylov]
        factors.append(tuple(Fraction(rel[i] * dens[i], rel[d] * dens[d]) for i in range(d)) + (_ONE,))
        chains.append((0, chain[:2 * d]))
        if d == k:  # the chain fills span w
            break
        # f with f(M^i top) = [i = d - 1] for i < d, free variables 0: the
        # kernel vector of [krylov | -rhs] at its last column, which is free
        f = integer_kernel([[*x, -e * (i == d - 1)] for i, (x, e) in enumerate(krylov[:d])],
                           n + 1)[-1][:n]
        dual = _powers(tt, f, 2 * d - 1)
        # the invariant complement: x in span w with f(M^i x) = 0 for i < d
        cut = mat_mul(dual[::2], tuple(zip(*w._num)), k, 0)
        w = _exact(integer_kernel(cut, k), k) * w
    cols = [x for side in (0, 1) for v, chain in chains
            for i, x in enumerate(chain) if (v + i) % 2 == side]
    return NormalForm((p, q), tuple(strings), tuple(factors), _over(cols, n).transpose())


def _family_key(form: NormalForm) -> tuple:
    return form.dims, form.strings, tuple(len(f) - 1 for f in form.factors)


@_memo
def _families_by_key() -> dict:
    """The families of dimension at most 3 by their _family_key."""
    return {_family_key(normal_form(representative(s.label, {s.parameter: 1}))): s
            for s in FAMILIES.values() if sum(s.dims) <= 3}


def match_label(rep: Representation):
    """(label, parameter) of a representation of dimension at most 3.

    Up to dimension 3 there is at most one invariant factor, and it is
    linear; a parametric family's parameter is its root.
    """
    if rep.n > 3:
        raise UnsupportedDimensionError("matching is exact only up to dimension 3")
    nf = normal_form(rep)
    spec = _families_by_key().get(_family_key(nf))
    if spec is None:
        raise UnsupportedDimensionError(f"no family matching for dimension {rep.n}")
    return spec.label, None if spec.parameter is None else -nf.factors[0][0]


def are_conjugate(rep1: Representation, rep2: Representation) -> QMatrix | None:
    """An invertible g with g rep1 g^-1 = rep2, or None.

    Both sides are brought to their normal form.  Its invariants are
    complete, so different forms prove None in every dimension; equal
    forms give g = g2 g1^-1, which is checked before it is returned.
    Exact and polynomial in the dimension: no search, no grid, no random
    draw.  A triple that breaks the relations raises RelationViolation.
    """
    if rep1.n != rep2.n:
        raise ValueError("representations of different dimensions")
    form1, form2 = normal_form(rep1), normal_form(rep2)
    if form1 != form2:
        return None
    g = form2.basis * form1.basis.inverse()
    ginv = g.inverse()
    if ginv is None or any(
        g * x * ginv != xp for x, xp in zip(rep1.triple(), rep2.triple())
    ):
        raise AssertionError("equal normal forms gave a failing conjugator")
    return g


def is_simple(rep: Representation) -> bool:
    """Whether the three matrices generate the full matrix algebra.

    By Burnside's theorem that is absolute simplicity, decided here in
    every dimension.  T = s12 + s21 is graded, so a kernel vector of T
    has vertex parts that span invariant lines.  With no kernel, A and B
    are injective, so p = q, and an eigenvector v of AB over the
    algebraic closure spans with Bv a submodule of dimension 2.  So only
    dimension 1 and blocks (1, 1) with A, B nonzero are simple; A = I
    with B = [[0, 2], [1, 0]] is simple over Q only and reports False.
    """
    return _form_is_simple(quiver_form(rep))


def _form_is_simple(form: QuiverForm) -> bool:
    return sum(form.dims) == 1 or (
        form.dims == (1, 1) and form.a._num[0][0] != 0 != form.b._num[0][0])


def find_proper_submodule(rep: Representation):
    """A basis of a proper nonzero invariant subspace, or None.

    Only vertex lines are checked: by is_simple's argument every
    representation of dimension at most 3 that is not simple has one.
    A nonzero vector killed by s12 and s21 with e1 v = 0 or e1 v = v spans
    an invariant line, so the answer is the first kernel vector of the
    stacked rows s12, s21, e1, else of s12, s21, e1 - I.
    The relations are checked first, through the memoized quiver_form;
    larger dimensions are refused after that.
    """
    quiver_form(rep)
    n = rep.n
    if n > 3:
        raise UnsupportedDimensionError(
            "submodule search is complete only up to dimension 3"
        )
    if n == 1:
        return None
    e1, s12, s21 = rep.triple()
    for m in (e1, e1 - QMatrix.identity(n)):
        vecs = integer_kernel([*s12._num, *s21._num, *m._num], n)
        if vecs:
            return (_exact(vecs[:1], n).row(0),)
    return None


def _is_primary(factor: tuple) -> bool:
    """Whether a monic factor is a power of an irreducible; degree 3 or
    more would need factoring over the rationals and is refused.

    A quadratic is one unless it has two distinct rational roots, that
    is unless its discriminant is a nonzero rational square.
    """
    if len(factor) > 3:
        raise UnsupportedDimensionError("a factor of degree 3 or more needs factoring over Q")
    if len(factor) < 3:
        return True
    disc = factor[1] ** 2 - 4 * factor[0]
    if disc <= 0:
        return True
    return any(isqrt(x) ** 2 != x for x in (disc.numerator, disc.denominator))


def is_indecomposable(rep: Representation) -> bool:
    """Whether the representation admits no nontrivial direct splitting.

    Exact in every dimension: the normal form must have one block, a
    string or a single invariant factor that is a power of an irreducible
    polynomial.  A discriminant decides a factor of degree at most 2 (all
    of them up to dimension 4); a lone factor of degree 3 or more would
    need factoring over the rationals and is refused.
    """
    return _form_is_indecomposable(normal_form(rep))


def _form_is_indecomposable(nf: NormalForm) -> bool:
    if len(nf.strings) + len(nf.factors) != 1:
        return False
    return not nf.factors or _is_primary(nf.factors[0])


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One stratum of the classification."""

    label: str
    dims: tuple[int, int]
    parameter: str | None
    representative: Representation
    simple: bool
    indecomposable: bool
    decomposition: tuple[str, ...] | None


@dataclass(frozen=True)
class ClassificationResult:
    n: int
    exact: bool
    families: tuple[Family, ...]
    notes: tuple[str, ...]

    @property
    def discrete(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.families if f.parameter is None)

    @property
    def parametric(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.families if f.parameter is not None)


def classify(n: int) -> ClassificationResult:
    """Classify n-dimensional representations up to conjugation.

    Dimensions 1 to 3 list every orbit: finitely many discrete ones plus
    one-parameter families whose parameter is the displayed invariant.
    Dimension 4 lists the table's strata, read off their normal forms
    the same way, but is flagged exact=False; its notes name what was
    left out.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("dimension must be a positive integer")
    if n > 4:
        raise UnsupportedDimensionError(
            "classification is available for dimensions 1 through 4"
        )
    families = []
    notes: list[str] = []
    for spec in FAMILIES.values():
        if sum(spec.dims) != n:
            continue
        families.append(_build_family(spec))
    if n == 4:
        notes.append(
            "dimension 4 is a best-effort table: strata whose invariant "
            "needs two parameters or irrational eigenvalues are omitted"
        )
        exact = False
    else:
        exact = True
    return ClassificationResult(n, exact, tuple(families), tuple(notes))


def _build_family(spec: FamilySpec) -> Family:
    """The family read off the quiver form and normal form of its
    representative, at parameter 1: simplicity and indecomposability by
    the rules is_simple and is_indecomposable use, and a decomposable
    family's summands by their invariants.  A representative's quiver
    basis is the identity, so the normal form's basis is in block
    coordinates, as _summand_labels reads it."""
    rep = representative(spec.label, {spec.parameter: 1})
    nf = normal_form(rep)
    indec = _form_is_indecomposable(nf)
    return Family(
        spec.label, spec.dims, spec.parameter, rep, _form_is_simple(quiver_form(rep)), indec,
        None if indec else _summand_labels(spec, nf),
    )


def _summand_labels(spec: FamilySpec, nf: NormalForm) -> tuple[str, ...]:
    """The family label of each summand of a normal form, listed by the
    first block coordinate its chain occupies.  A string (v, l) is the
    family with that one string; a linear factor is the parametric simple
    of dimension 2, printed with spec's parameter as its root.
    """
    by_key = _families_by_key()
    labels = []
    for v, length in nf.strings:
        p = (length + (v == 1)) // 2
        labels.append(by_key[(p, length - p), ((v, length),), ()].label)
    for _ in nf.factors:
        labels.append(f"{by_key[(1, 1), (), (1,)].label}({spec.parameter})")
    first = [min(i for k in block for i in range(sum(nf.dims)) if nf.basis._num[i][k])
             for block in nf.blocks()]
    return tuple(label for _, label in sorted(zip(first, labels)))
