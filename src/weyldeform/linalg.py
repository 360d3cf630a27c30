"""Exact linear algebra over the rationals, and matrix products and sums.

One elimination kernel, two exits.  ``_echelon``, the forward pass,
takes dense rows or sparse ``{column: value}`` dicts (the monomial
systems are a few percent dense and arrive as dicts), scales each row
once to a primitive integer row, and eliminates fraction-free (after
Bareiss, Math. Comp. 22, 1968): a combination cross-multiplies by the
pivot entries over their gcd and divides the content out, so a stored
row is always the primitive multiple of an echelon row of the rows seen
so far, keyed by its pivot, its leftmost nonzero column.
``pivot_columns`` and ``rank`` exit there, as scaling and
back-substitution move no pivot.  ``rref_rows`` goes on: back-substitution
from the last pivot up, then each row divided by its pivot entry, once,
on output.  The result is the unique reduced row echelon form in
``Fraction``s, so every basis and solution is the one a dense
Gauss-Jordan gives.  ``echelon_solution`` and
``echelon_kernel`` read a solution and a kernel basis off it, sparse;
the public functions (rank, kernel_basis, solve, inverse) keep taking
and returning dense lists.  ``integer_kernel`` and ``inverse`` read the
back-substituted integer rows themselves, before any division:
``integer_kernel`` gives kernel_basis's vectors as primitive integer
vectors, and ``inverse`` puts its rows over one lcm of their pivot
entries.  ``reduce_row`` reduces a sparse vector by echelon rows.
``mat_mul`` and ``mat_add`` are the one sparse product and the one sum
of matrices over any ring: here, in ``modules`` (over the Weyl algebra,
whose factor order they keep) and in ``ext`` (path counts over the
integers).  QMatrix, the rational matrix of the representation-theory
code, is integer rows over one denominator, multiplied by ``mat_mul``
over ``int``; its ``apply`` keeps its own loop, over nonzeros found
once, for the repeated T*x of the normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .weyl import _exact_number, _tally

Vec = list
Mat = list
Row = dict

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reduce_row(vec: Row, rows: Sequence[Row], pivots: Sequence[int]) -> Row:
    """Reduce a sparse vector by sparse echelon rows; ``vec`` is not modified.

    ``rows[k]`` has a 1 at ``pivots[k]`` and is zero at every earlier
    pivot, so one pass in order leaves the result zero at all pivots.
    """
    out = dict(vec)
    for row, p in zip(rows, pivots):
        f = out.get(p)
        if f:
            for c, x in row.items():
                y = out.get(c, 0) - f * x
                if y:
                    out[c] = y
                else:
                    del out[c]
    return out


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], ncols: int, zero) -> tuple:
    """a * b as row tuples, over the nonzero entries of b's rows.

    Each term is x * y with x from a, so a noncommutative ring keeps its
    factor order; each entry adds its terms in increasing k, and one with
    no term is ``zero``, the ring's own.  ``ncols`` is b's width, which b
    cannot show when it has no rows; the caller checks the shapes.
    """
    right = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc: dict = {}
        for x, nonzeros in zip(row, right):
            if x:
                for j, y in nonzeros:
                    s = acc.get(j)
                    acc[j] = x * y if s is None else s + x * y
        full = [zero] * ncols
        for j, s in acc.items():
            full[j] = s
        out.append(tuple(full))
    return tuple(out)


def mat_add(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    """a + b entrywise as row tuples, keeping a's entry where b's is zero."""
    return tuple(tuple(x + y if y else x for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _integer_row(items) -> dict[int, int]:
    """The primitive integer row proportional to ``(column, value)`` pairs."""
    row = {}
    ints = True
    for c, x in items:
        if type(x) is not int:
            ints = False
            # entries are converted before the zero test: "0" is truthy
            if not isinstance(x, (int, Fraction)):
                x = _exact_number(x)
        if x:
            row[c] = x
    if not row:
        return row
    if not ints:
        _tally("linalg.fraction_rows")
        den = lcm(*(x.denominator for x in row.values()))
        row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
    return _primitive(row)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _eliminate(vec: dict[int, int], row: dict[int, int], p: int) -> dict[int, int]:
    """The primitive integer combination of ``vec`` and ``row`` that is zero at ``p``."""
    g = gcd(row[p], vec[p])
    a, b = row[p] // g, vec[p] // g
    out = dict(vec) if a == 1 else {c: a * x for c, x in vec.items()}
    for c, x in row.items():
        y = out.get(c, 0) - b * x
        if y:
            out[c] = y
        else:
            del out[c]
    return _primitive(out) if out else out


def _echelon(rows: Iterable[Sequence | Row]) -> dict[int, dict[int, int]]:
    """The forward pass: primitive integer echelon rows keyed by pivot.

    Each input row is reduced at the pivots it meets, leftmost first, and
    kept under its leftmost remaining column when one is left.  A row
    keyed c is zero left of c, so eliminating c touches only columns to
    its right.  Dense rows must share one length.  Input is not modified.
    """
    echelon: dict[int, dict[int, int]] = {}
    width, count = None, 0
    for count, row in enumerate(rows, 1):
        if isinstance(row, dict):
            vec = _integer_row(row.items())
        else:
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged matrix")
            vec = _integer_row(enumerate(row))
        while vec:
            c = min(vec)
            other = echelon.get(c)
            if other is None:
                echelon[c] = vec
                break
            vec = _eliminate(vec, other, c)
    _tally("linalg.echelon")
    _tally("linalg.rows", count)
    return echelon


def _back_substitute(echelon: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Echelon rows reduced at every other pivot, from the last pivot up.

    The rows below a pivot are reduced first, and a reduced row is zero
    at every other pivot, so eliminating one pivot never brings back
    another.
    """
    _tally("linalg.back_substitute")
    reduced: dict[int, dict[int, int]] = {}
    for p in sorted(echelon, reverse=True):
        vec = echelon[p]
        for c in [c for c in vec if c in reduced]:
            vec = _eliminate(vec, reduced[c], c)
        reduced[p] = vec
    return reduced


def pivot_columns(rows: Iterable[Sequence | Row]) -> list[int]:
    """The pivot columns of ``rref_rows(rows)``, ascending, read off the
    forward pass alone: scaling and back-substitution move no pivot."""
    return sorted(_echelon(rows))


def rref_rows(rows: Iterable[Sequence | Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of dense or sparse rows, eliminated fraction-free.

    Each row is a dense sequence or a ``{column: value}`` dict.  Returns
    (nonzero reduced rows as ``{column: Fraction}`` dicts, pivot column
    indices), both in ascending pivot order.  Input is not modified.
    """
    reduced = _back_substitute(_echelon(rows))
    pivots = sorted(reduced)
    return [_scaled(reduced[p], p) for p in pivots], pivots


def _scaled(row: dict[int, int], p: int) -> Row:
    """An integer echelon row divided by its pivot entry."""
    piv = row[p]
    return {c: _ONE if c == p else Fraction(x, piv) for c, x in row.items()}


def echelon_solution(red: Sequence[Row], pivots: Sequence[int], n: int) -> Row | None:
    """The solution of A x = b with free variables 0, read sparse from the
    reduced rows of [A | b] (b in column n), or None if they are inconsistent."""
    if pivots and pivots[-1] == n:
        return None
    return {pc: x for row, pc in zip(red, pivots) if (x := row.get(n))}


def echelon_kernel(red: Sequence[Row], pivots: Sequence[int], ncols: int) -> list[Row]:
    """Sparse basis of {v : A v = 0} read from the reduced rows of A, one
    vector per free column, in ascending column order."""
    pivot_set = set(pivots)
    basis = {fc: {fc: _ONE} for fc in range(ncols) if fc not in pivot_set}
    # a reduced row is zero at every other pivot, so its off-pivot
    # entries all sit in free columns
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def rank(rows: Iterable[Sequence]) -> int:
    return len(_echelon(rows))


def kernel_basis(rows: Iterable[Sequence], ncols: int) -> list[Vec]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    rows = list(rows)
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length disagrees with ncols")
    return [_dense(v, ncols) for v in echelon_kernel(*rref_rows(rows), ncols)]


def integer_kernel(rows: Iterable[Sequence], ncols: int) -> list[list[int]]:
    """kernel_basis's vectors as primitive integer vectors, in its order,
    with no Fraction built.  Each is positive at its free column, which is
    its last nonzero entry: a reduced row is zero left of its pivot.  So
    dividing a vector by its last nonzero entry gives kernel_basis's."""
    reduced = _back_substitute(_echelon(rows))
    basis: dict[int, list] = {fc: [] for fc in range(ncols) if fc not in reduced}
    for p, row in reduced.items():
        for c, x in row.items():
            if c != p:
                basis[c].append((p, x, row[p]))
    out = []
    for fc, entries in basis.items():
        scale = lcm(*(piv for _, _, piv in entries))
        vec = [0] * ncols
        vec[fc] = scale
        for p, x, piv in entries:
            vec[p] = -x * (scale // piv)
        g = gcd(*vec)
        out.append(vec if g == 1 else [x // g for x in vec])
    return out


def solve(rows: Iterable[Sequence], rhs: Sequence, ncols: int | None = None) -> Vec | None:
    """One solution of A x = b with free variables set to 0, or None."""
    rows = list(rows)
    b = list(rhs)
    if len(rows) != len(b):
        raise ValueError("rhs length disagrees with row count")
    if not rows:
        if ncols is None:
            raise ValueError("ncols is required when the system has no rows")
        return [_ZERO] * ncols
    n = len(rows[0])
    if ncols is not None and ncols != n:
        raise ValueError("ncols disagrees with matrix width")
    x = echelon_solution(*rref_rows([*row, bi] for row, bi in zip(rows, b)), n)
    return None if x is None else _dense(x, n)


def _dense(vec: Row, n: int) -> Vec:
    return [vec.get(c, _ZERO) for c in range(n)]


def inverse(rows: Iterable[Sequence]) -> Mat | None:
    inv = _inverse(list(rows))
    if inv is None:
        return None
    num, den = inv
    return [[Fraction(x, den) for x in row] for row in num]


def _inverse(rows: Sequence[Sequence]) -> tuple[tuple, int] | None:
    """(num, den) with num / den the inverse of a square matrix, or None if
    it is singular: the integer reduced rows of [rows | I] over one lcm of
    their pivot entries."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    reduced = _back_substitute(_echelon(
        [*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)))
    # [rows | I] has n pivots, all left of column n exactly when rows is invertible
    if any(p >= n for p in reduced):
        return None
    den = lcm(*(reduced[p][p] for p in range(n)))
    return tuple(tuple(reduced[p].get(n + j, 0) * (den // reduced[p][p]) for j in range(n))
                 for p in range(n)), den


class QMatrix:
    """Immutable rational matrix.  Hashable, so usable as a dict key.

    Stored as one tuple of integer rows ``_num`` over one positive
    denominator ``_den``, in lowest terms (the gcd of ``_den`` and every
    entry is 1), so equal matrices have equal storage, and products,
    sums, inverses, ``==`` and ``hash`` run on integers.  ``row``,
    ``__getitem__`` and ``to_rows`` give ``Fraction``s, built once, on
    the first read.
    """

    __slots__ = ("_num", "_den", "nrows", "ncols", "_hash", "_frac", "_nonzeros")

    def __init__(self, rows: Iterable[Sequence]):
        data = tuple(tuple(row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged matrix")
        self._set(*_integer_matrix(data), len(data[0]) if data else 0)

    def _set(self, num: tuple, den: int, ncols: int) -> None:
        self._num = num
        self._den = den
        self.nrows = len(num)
        self.ncols = len(num[0]) if num else ncols
        self._hash = None
        self._frac = None
        self._nonzeros = None

    @classmethod
    def _of(cls, data: tuple, ncols: int = 0) -> "QMatrix":
        """Equal-length row tuples of ints, Fractions or strings, unchecked;
        ncols is the width of a matrix with no rows."""
        m = object.__new__(cls)
        m._set(*_integer_matrix(data), ncols)
        return m

    @classmethod
    def _int(cls, num: tuple, den: int, ncols: int = 0) -> "QMatrix":
        """The matrix num / den, from integer row tuples and den > 0."""
        m = object.__new__(cls)
        m._set(*_lowest(num, den), ncols)
        return m

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._int(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMatrix":
        return cls._int(tuple((0,) * n for _ in range(m)), 1, n)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["QMatrix"]]) -> "QMatrix":
        """Assemble from a 2d grid of blocks with consistent edge sizes."""
        den = lcm(*(b._den for brow in blocks for b in brow))
        rows: list[tuple] = []
        for brow in blocks:
            height = brow[0].nrows
            if any(b.nrows != height for b in brow):
                raise ValueError("inconsistent block heights")
            nums = [_scaled_rows(b._num, den // b._den) for b in brow]
            rows.extend(tuple(x for num in nums for x in num[i]) for i in range(height))
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged matrix")
        return cls._int(tuple(rows), den, sum(b.ncols for b in blocks[0]) if blocks else 0)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def _rows(self) -> tuple:
        """The entries as Fractions, built on the first read."""
        if self._frac is None:
            den = self._den
            self._frac = tuple(tuple(Fraction(x, den) if x else _ZERO for x in row)
                               for row in self._num)
        return self._frac

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def to_rows(self) -> Mat:
        return [list(row) for row in self._rows]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        den = lcm(self._den, other._den)
        return QMatrix._int(mat_add(_scaled_rows(self._num, den // self._den),
                                    _scaled_rows(other._num, den // other._den)), den, self.ncols)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return QMatrix._int(_scaled_rows(self._num, -1), self._den, self.ncols)

    def __mul__(self, other):
        _tally("linalg.qmatrix_mul")
        if isinstance(other, QMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            return QMatrix._int(mat_mul(self._num, other._num, other.ncols, 0),
                                self._den * other._den, other.ncols)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return QMatrix._int(_scaled_rows(self._num, c.numerator),
                                self._den * c.denominator, self.ncols)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "QMatrix":
        cols = tuple(zip(*self._num)) if self._num else ((),) * self.ncols
        return QMatrix._int(cols, self._den, self.nrows)

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, over the nonzero entries of each row."""
        (v,), vden = _integer_matrix((tuple(vec),))
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        den = self._den * vden
        return [Fraction(x, den) for x in self._times(v)]

    def _times(self, vec: Sequence[int]) -> list[int]:
        """num times an integer vector: the product with this matrix, times den."""
        if self._nonzeros is None:
            # the rows never change, so their nonzero entries are found once
            self._nonzeros = [[(j, a) for j, a in enumerate(row) if a] for row in self._num]
        return [sum([a * vec[j] for j, a in row if vec[j]]) for row in self._nonzeros]

    def inverse(self) -> "QMatrix | None":
        if self.nrows != self.ncols:  # a matrix with no rows shows no row length
            raise ValueError("inverse needs a square matrix")
        inv = _inverse(self._num)
        if inv is None:
            return None
        num, den = inv
        return QMatrix._int(_scaled_rows(num, self._den), den, self.nrows)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # the storage is in lowest terms, so equal matrices hash their equal
        # integers, once: the rows never change
        if self._hash is None:
            self._hash = hash((self.shape, self._den, self._num))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"QMatrix[{body}]"


def _integer_matrix(rows: tuple) -> tuple[tuple, int]:
    """(num, den) with rows = num / den in lowest terms, from row tuples of
    ints, Fractions or strings (see _exact_number)."""
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    exact = [[_exact_number(x) for x in row] for row in rows]
    # every entry over the lcm of the denominators is in lowest terms
    den = lcm(*(x.denominator for row in exact for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in exact), den


def _lowest(num: tuple, den: int) -> tuple[tuple, int]:
    """num / den with the gcd of den and every entry divided out."""
    g = den
    for row in num:
        if g == 1:
            return num, den
        g = gcd(g, *row)
    if g == 1:
        return num, den
    return tuple(tuple(x // g for x in row) for row in num), den // g


def _scaled_rows(num: tuple, c: int) -> tuple:
    return num if c == 1 else tuple(tuple(c * x for x in row) for row in num)
