"""Exact linear algebra over the rationals.

The systems built from truncated monomial coordinates are a few percent
dense, so the one elimination kernel, ``rref_rows``, eliminates on
sparse rows (``{column: Fraction}`` dicts) while the public functions
(rref, rank, kernel_basis, solve, inverse) keep taking and returning
dense lists.  Each pivot is the leftmost nonzero column of its reduced
row, so the result is the unique reduced row echelon form, and every
basis and solution is the one a dense Gauss-Jordan gives.
``reduce_row`` reduces a sparse vector by echelon rows.  QMatrix is an
immutable wrapper used by the representation-theory code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = list
Mat = list
Row = dict

_ZERO = Fraction(0)


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


def rref_rows(rows: Iterable[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of dense rows, eliminated sparse.

    Returns (nonzero reduced rows as ``{column: Fraction}`` dicts, pivot
    column indices), both in ascending pivot order.  Input is not
    modified.
    """
    rows = list(rows)
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    red: list[Row] = []
    pivots: list[int] = []
    for row in rows:
        # entries are converted before the zero test: "0" is truthy
        vec = reduce_row(
            {c: f for c, x in enumerate(row) if x and (f := Fraction(x))}, red, pivots
        )
        if not vec:
            continue
        c = min(vec)
        inv = 1 / vec[c]
        vec = {k: x * inv for k, x in vec.items()}
        for k, other in enumerate(red):
            if c in other:
                red[k] = reduce_row(other, (vec,), (c,))
        red.append(vec)
        pivots.append(c)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [red[k] for k in order], [pivots[k] for k in order]


def rref(a) -> tuple:
    """Full-shape reduced row echelon form.

    Accepts a QMatrix or an iterable of rows and returns ``(R, rank,
    pivots)`` where ``R`` has the same shape as the input with the zero
    rows retained at the bottom.  ``R`` matches the input type.
    """
    is_qmatrix = isinstance(a, QMatrix)
    rows = list(a._rows if is_qmatrix else a)
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref_rows(rows)
    full = [[row.get(c, _ZERO) for c in range(ncols)] for row in red]
    full += [[_ZERO] * ncols for _ in range(len(rows) - len(red))]
    if is_qmatrix:
        return QMatrix(full), len(pivots), pivots
    return full, len(pivots), pivots


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref_rows(rows)[1])


def kernel_basis(rows: Iterable[Sequence], ncols: int) -> list[Vec]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    rows = list(rows)
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length disagrees with ncols")
    red, pivots = rref_rows(rows)
    pivot_set = set(pivots)
    basis: dict[int, Vec] = {}
    for fc in range(ncols):
        if fc not in pivot_set:
            basis[fc] = [_ZERO] * ncols
            basis[fc][fc] = Fraction(1)
    # a reduced row is zero at every other pivot, so its off-pivot
    # entries all sit in free columns
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


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
    red, pivots = rref_rows([*row, bi] for row, bi in zip(rows, b))
    if pivots and pivots[-1] == n:
        return None
    x = [_ZERO] * n
    for row, pc in zip(red, pivots):
        x[pc] = row.get(n, _ZERO)
    return x


def inverse(rows: Iterable[Sequence]) -> Mat | None:
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    red, pivots = rref_rows(
        [*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)
    )
    if pivots != list(range(n)):
        return None
    return [[row.get(n + j, _ZERO) for j in range(n)] for row in red]


class QMatrix:
    """Immutable rational matrix.  Hashable, so usable as a dict key."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence]):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged matrix")
        self._rows = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMatrix":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["QMatrix"]]) -> "QMatrix":
        """Assemble from a 2d grid of blocks with consistent edge sizes."""
        rows: list[list[Fraction]] = []
        for brow in blocks:
            height = brow[0].nrows
            if any(b.nrows != height for b in brow):
                raise ValueError("inconsistent block heights")
            for i in range(height):
                rows.append([x for b in brow for x in b._rows[i]])
        return cls(rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int) -> "QMatrix":
        if not cols:
            return cls.zeros(nrows, 0)
        return cls([[col[i] for col in cols] for i in range(nrows)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

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
        return QMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-x for x in row] for row in self._rows])

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            cols = list(zip(*other._rows)) if other._rows else []
            return QMatrix(
                [[sum((a * b for a, b in zip(row, col) if a and b), _ZERO) for col in cols]
                 for row in self._rows]
            )
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return QMatrix([[c * x for x in row] for row in self._rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self._rows)) if self._rows else [])

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product."""
        v = [Fraction(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return [sum((a * b for a, b in zip(row, v) if a and b), _ZERO) for row in self._rows]

    def rank(self) -> int:
        return rank(self._rows)

    def kernel(self) -> list[Vec]:
        return kernel_basis(self._rows, self.ncols)

    def inverse(self) -> "QMatrix | None":
        inv = inverse(self._rows)
        return None if inv is None else QMatrix(inv)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"QMatrix[{body}]"
