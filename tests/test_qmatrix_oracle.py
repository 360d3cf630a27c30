"""QMatrix on its integer storage, against dense Fraction references.

``conftest.ref_mul`` (a triple loop) and ``conftest.ref_inverse``
(Gauss-Jordan) work on lists of Fractions; every operation is compared
with them on seeded matrices with huge numerators, mixed denominators,
zero matrices and empty shapes.  Storage must be in lowest terms, so
equal values built by different routes compare and hash equal.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from weyldeform import (CommutativePoint, QMatrix, Representation, WeylElement, WeylLinearSystem,
                        representative)
from weyldeform.linalg import (integer_kernel, inverse, kernel_basis, pivot_columns, rank,
                               rref_rows, solve)

from conftest import ref_inverse, ref_mul

DENOMINATORS = (1, 1, 1, 2, 3, 7, 10**12 + 39, 2**61 - 1)


def rand_entry(rng):
    r = rng.random()
    if r < 0.4:
        return Fraction(0)
    if r < 0.55:
        return Fraction(rng.randint(-10**40, 10**40), rng.choice(DENOMINATORS))
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def rand_rows(rng, m, n, zero=False):
    return [[Fraction(0) if zero else rand_entry(rng) for _ in range(n)] for _ in range(m)]


def routes(rows, ncols):
    """The same matrix from Fractions, from strings and from ints where
    every entry is one, and through _of."""
    out = [QMatrix._of(tuple(map(tuple, rows)), ncols),
           QMatrix._of(tuple(tuple(map(str, row)) for row in rows), ncols)]
    if rows:
        out += [QMatrix(rows), QMatrix([[str(x) for x in row] for row in rows])]
        if all(x.denominator == 1 for row in rows for x in row):
            out.append(QMatrix([[int(x) for x in row] for row in rows]))
    return out


def assert_is(m, rows, ncols):
    """m holds exactly rows (Fractions) in lowest terms, with width ncols."""
    assert m.shape == (len(rows), ncols)
    assert m.to_rows() == rows
    assert all(type(x) is Fraction for row in m.to_rows() for x in row)
    assert [list(m.row(i)) for i in range(m.nrows)] == rows
    assert all(m[i, j] == rows[i][j] for i in range(m.nrows) for j in range(ncols))
    assert m._den > 0 and gcd(m._den, *(x for row in m._num for x in row)) == 1
    assert all(type(x) is int for row in m._num for x in row)


def shapes(rng):
    yield from ((0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 4), (4, 0, 0))
    for _ in range(60):
        yield rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_qmatrix_matches_the_dense_reference(seed):
    rng = random.Random(5100 + seed)
    inverted = [0, 0]  # singular, invertible
    for m, k, n in shapes(rng):
        a_rows = rand_rows(rng, m, k, zero=rng.random() < 0.15)
        b_rows = rand_rows(rng, k, n, zero=rng.random() < 0.15)
        c_rows = rand_rows(rng, m, k)
        a, b, c = (QMatrix._of(tuple(map(tuple, rows)), width)
                   for rows, width in ((a_rows, k), (b_rows, n), (c_rows, k)))
        for route in routes(a_rows, k):
            assert route == a and hash(route) == hash(a)
            assert_is(route, a_rows, k)
        assert_is(a * b, ref_mul(a_rows, b_rows, n), n)
        assert_is(a + c, [[x + y for x, y in zip(r, s)] for r, s in zip(a_rows, c_rows)], k)
        assert_is(a - c, [[x - y for x, y in zip(r, s)] for r, s in zip(a_rows, c_rows)], k)
        assert_is(-a, [[-x for x in row] for row in a_rows], k)
        for s in (0, 1, -3, Fraction(2, 3), Fraction(-10**20, 7), rand_entry(rng)):
            scaled = [[s * x for x in row] for row in a_rows]
            assert_is(a * s, scaled, k)
            assert_is(s * a, scaled, k)
        assert_is(a.transpose(), [[a_rows[i][j] for i in range(m)] for j in range(k)], m)
        assert a.is_zero() == all(x == 0 for row in a_rows for x in row)
        vec = [rand_entry(rng) for _ in range(k)]
        assert a.apply(vec) == [sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in a_rows]
        assert a.apply([str(x) for x in vec]) == a.apply(vec)
        assert all(type(x) is Fraction for x in a.apply(vec))
        assert (a == c) == (a_rows == c_rows)
        assert QMatrix.zeros(0, k) != QMatrix.zeros(0, k + 1)
        # square: random, zero, and with a repeated row
        square = rand_rows(rng, m, m)
        for sq_rows in (square, rand_rows(rng, m, m, zero=True), square[:1] * m):
            sq = QMatrix._of(tuple(map(tuple, sq_rows)), m)
            want = ref_inverse(sq_rows)
            inverted[want is not None] += 1
            if want is None:
                assert sq.inverse() is None
            else:
                assert_is(sq.inverse(), want, m)
                assert sq.inverse() * sq == QMatrix.identity(m)
    assert min(inverted) >= 20


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 3)])
def test_only_square_matrices_invert(shape):
    with pytest.raises(ValueError, match="^inverse needs a square matrix$"):
        QMatrix.zeros(*shape).inverse()


def test_reducible_routes_land_in_lowest_terms():
    rng = random.Random(5104)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = rand_rows(rng, n, n)
        m = QMatrix(rows)
        for other in (m * Fraction(2, 3) * Fraction(3, 2), (m + m) * Fraction(1, 2), -(-m),
                      m.transpose().transpose(), m - QMatrix.zeros(n, n), m * 6 * Fraction(1, 6)):
            assert other == m and hash(other) == hash(m)
            assert (other._num, other._den) == (m._num, m._den)
        inv = m.inverse()
        if inv is not None:
            assert inv.inverse() == m and hash(inv.inverse()) == hash(m)
        assert (m - m)._den == 1 and (m * 0)._den == 1


@pytest.mark.parametrize("bad", [
    lambda: QMatrix([[0.1]]),
    lambda: QMatrix([[1, 0.5], [0, 1]]),
    lambda: QMatrix([[Fraction(1, 2), 2.0]]),
    lambda: QMatrix._of(((0.5,),)),
    lambda: QMatrix([[1, 2]]).apply([0.5, 1]),
    lambda: QMatrix([[1, 2]]).apply([Fraction(1, 2), 1.0]),
    lambda: Representation([[0.5]], [[0]], [[0]]),
    lambda: WeylElement({(1, 0): 0.1}),
    lambda: WeylElement({(0, 0): 1, (1, 1): 2.0}),
    lambda: WeylElement.constant(0.1),
    lambda: WeylElement.monomial(1, 2, 0.5),
    lambda: representative("T_2_6", {"a": 0.1}),
    lambda: CommutativePoint(0.1, 2),
    lambda: CommutativePoint(1, 2.0),
    lambda: rank([[1, 0.5]]),
    lambda: pivot_columns([[Fraction(1, 2), 0.0]]),
    lambda: rref_rows([{0: 1, 3: 0.25}]),
    lambda: kernel_basis([[1, 2.0]], 2),
    lambda: integer_kernel([[0.5, 1]], 2),
    lambda: inverse([[0.1]]),
    lambda: solve([[1, 0.5]], [1]),
    lambda: solve([[1, 2]], [0.5]),
    lambda: _weyl_system_with_coefficient(0.5).solve(),
])
def test_floats_are_refused(bad):
    with pytest.raises(TypeError, match="float"):
        bad()


def test_exact_entries_are_accepted():
    m = QMatrix([["1/2", 3], [Fraction(-2, 3), "0"]])
    assert m.to_rows() == [[Fraction(1, 2), Fraction(3)], [Fraction(-2, 3), Fraction(0)]]
    assert m == QMatrix([[Fraction(1, 2), 3], [Fraction(-2, 3), 0]])
    assert m.apply(["1/2", 1]) == [Fraction(13, 4), Fraction(-1, 3)]
    assert QMatrix([[True, False]]) == QMatrix([[1, 0]])


def _weyl_system_with_coefficient(coef):
    # coef * X = t, X of degree <= 1
    sys = WeylLinearSystem()
    sys.unknown("x", 1)
    sys.equate([(WeylElement.one(), "x", WeylElement.one(), coef)], rhs=WeylElement.t())
    return sys


def test_exact_numbers_are_accepted():
    half = Fraction(1, 2)
    for h in ("1/2", half):
        assert rank([[1, h]]) == 1 and pivot_columns([[0, h]]) == [1]
        assert rref_rows([{0: 2, 3: h}]) == ([{0: 1, 3: Fraction(1, 4)}], [0])
        assert kernel_basis([[1, h]], 2) == [[Fraction(-1, 2), 1]]
        assert integer_kernel([[h, 1]], 2) == [[-2, 1]]
        assert inverse([[h]]) == [[Fraction(2)]]
        assert solve([[1, h]], [h]) == [half, 0]
        assert _weyl_system_with_coefficient(h).solve() == {"x": WeylElement.monomial(1, 0, 2)}
    assert inverse([[2]]) == [[half]] and solve([[2]], [1]) == [half]
    assert _weyl_system_with_coefficient(2).solve() == {"x": WeylElement.monomial(1, 0, half)}
    assert WeylElement({(1, 0): "1/2", (0, 1): 3}) == WeylElement({(1, 0): Fraction(1, 2),
                                                                 (0, 1): Fraction(3)})
    assert WeylElement.constant("-2/3") == WeylElement.constant(Fraction(-2, 3))
    assert WeylElement.monomial(1, 2, 4).coeff(1, 2) == 4
    assert representative("T_2_6", {"a": "1/2"}) == representative("T_2_6", {"a": Fraction(1, 2)})
    assert representative("T_2_6", {"a": 2}) == representative("T_2_6", {"a": Fraction(2)})
    assert CommutativePoint("1/2", 3) == CommutativePoint(Fraction(1, 2), Fraction(3))
