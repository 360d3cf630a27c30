"""Exact linear algebra against the fraction-free and dense oracles."""

import copy
import random
from fractions import Fraction
from math import lcm

import pytest

from weyldeform import QMatrix, WeylElement, inverse, kernel_basis, parse_weyl, rank, solve
from weyldeform.linalg import pivot_columns, rref_rows

from conftest import bareiss_rank, dense_rref_rows


def rand_int_rows(rng, nrows, ncols, bound=5):
    return [
        [rng.randint(-bound, bound) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rref_identity_block():
    r, pivots = rref_rows([[2, 0, 1], [0, 3, 1]])
    assert len(pivots) == 2
    assert list(pivots) == [0, 1]
    assert [r[0].get(c, 0) for c in range(2)] == [Fraction(1), Fraction(0)]
    assert [r[1].get(c, 0) for c in range(2)] == [Fraction(0), Fraction(1)]


def test_rank_matches_bareiss_fuzz():
    rng = random.Random(616)
    for _ in range(100):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = rand_int_rows(rng, nrows, ncols)
        assert rank(rows) == bareiss_rank(rows)


def test_rank_nullity_fuzz():
    rng = random.Random(617)
    for _ in range(80):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = rand_int_rows(rng, nrows, ncols)
        null = kernel_basis(rows, ncols)
        assert rank(rows) + len(null) == ncols
        m = QMatrix(rows)
        for vec in null:
            assert all(x == 0 for x in m.apply(vec))


def test_solve_consistency_fuzz():
    rng = random.Random(618)
    for _ in range(80):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = rand_int_rows(rng, nrows, ncols)
        x = [Fraction(rng.randint(-4, 4)) for _ in range(ncols)]
        rhs = QMatrix(rows).apply(x)
        sol = solve(rows, list(rhs), ncols)
        assert sol is not None
        assert list(QMatrix(rows).apply(sol)) == list(rhs)


def test_solve_reports_inconsistent():
    assert solve([[1, 1], [1, 1]], [1, 2], 2) is None


def test_inverse_round_trip():
    rng = random.Random(619)
    found = 0
    while found < 25:
        rows = rand_int_rows(rng, 3, 3)
        inv = inverse(rows)
        if inv is None:
            assert rank(rows) < 3
            continue
        found += 1
        prod = QMatrix(rows) * QMatrix(inv)
        assert prod == QMatrix.identity(3)
    assert inverse([[1, 2], [2, 4]]) is None


def test_qmatrix_algebra():
    a = QMatrix([[1, 2], [3, 4]])
    b = QMatrix([["1/2", 0], [1, 1]])
    assert (a + b).to_rows()[0] == [Fraction(3, 2), Fraction(2)]
    assert (a - a).is_zero()
    assert (a * 2).to_rows()[1] == [Fraction(6), Fraction(8)]
    assert (2 * a) == a * 2
    assert (-a) + a == QMatrix.zeros(2, 2)
    assert a.transpose().to_rows() == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]
    assert a[(0, 1)] == 2
    assert a.shape == (2, 2)


def test_qmatrix_mul_and_apply_agree():
    rng = random.Random(620)
    for _ in range(40):
        a = QMatrix(rand_int_rows(rng, 3, 4))
        b = QMatrix(rand_int_rows(rng, 4, 2))
        prod = a * b
        for col in range(2):
            vec = [b[(r, col)] for r in range(4)]
            assert list(a.apply(vec)) == [prod[(r, col)] for r in range(3)]


def test_qmatrix_hashable_and_immutable():
    a = QMatrix([[1, 0], [0, 1]])
    assert a == QMatrix.identity(2)
    assert hash(a) == hash(QMatrix.identity(2))
    assert len({a, QMatrix.identity(2)}) == 1


def test_qmatrix_without_rows_keeps_its_width():
    empty = QMatrix.zeros(0, 3)
    assert empty.shape == (0, 3)
    assert (empty * QMatrix([[1, 2], [3, 4], [5, 6]])).shape == (0, 2)
    assert QMatrix.zeros(2, 0) * empty == QMatrix.zeros(2, 3)
    assert empty.transpose().shape == (3, 0)
    assert (-empty).shape == (empty + empty).shape == (2 * empty).shape == (0, 3)
    assert len(kernel_basis(empty.to_rows(), empty.ncols)) == 3
    assert empty != QMatrix.zeros(0, 2)
    with pytest.raises(ValueError, match="shape mismatch in product"):
        empty * QMatrix.zeros(2, 2)


def test_qmatrix_hash_reads_integers():
    ints = QMatrix._of(((1, -2), (0, 3)))
    fracs = QMatrix([[1, -2], [0, 3]])
    assert ints == fracs and hash(ints) == hash(fracs)
    halves = QMatrix([["1/2", 0], [0, "-7/3"]])
    assert hash(halves) == hash(QMatrix([[Fraction(1, 2), 0], [0, Fraction(-7, 3)]]))
    assert hash(QMatrix.zeros(0, 3)) != hash(QMatrix.zeros(0, 2))


def test_qmatrix_kernel_and_rank():
    m = QMatrix([[1, 2, 3], [2, 4, 6]])
    assert rank(m.to_rows()) == 1
    null = kernel_basis(m.to_rows(), m.ncols)
    assert len(null) == 2
    for vec in null:
        assert all(x == 0 for x in m.apply(list(vec)))


def test_from_blocks_and_columns():
    top = QMatrix([[1, 2]])
    bottom = QMatrix([[3, 4]])
    stacked = QMatrix.from_blocks([[top], [bottom]])
    assert stacked.to_rows() == [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    cols = QMatrix(zip(*[[1, 3], [2, 4]]))
    assert cols == stacked
    side = QMatrix.from_blocks([[top, bottom]])
    assert side.shape == (1, 4)


def test_string_fraction_entries():
    m = QMatrix([["1/3", "2"], ["-1/3", "0"]])
    assert m[(0, 0)] == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        QMatrix([["1/0"]])


# -- differential checks against the dense Gauss-Jordan oracle ----------


def rand_entry(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3)))


def big_entry(rng):
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))


def rand_sparse_rows(rng, nrows, ncols, density, entry=rand_entry):
    """Sparse rows; about a third are combinations of two earlier rows."""
    rows = [
        [entry(rng) if rng.random() < density else Fraction(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for k in range(2, nrows):
        if rng.random() < 0.3:
            i, j = rng.sample(range(k), 2)
            ci, cj = entry(rng), entry(rng)
            rows[k] = [ci * a + cj * b for a, b in zip(rows[i], rows[j])]
    return rows


def oracle_kernel(red, pivots, ncols):
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def oracle_solve(rows, rhs):
    n = len(rows[0])
    red, pivots = dense_rref_rows([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, pc in zip(red, pivots):
        x[pc] = row[n]
    return x


def oracle_inverse(rows):
    n = len(rows)
    red, pivots = dense_rref_rows(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def assert_fraction_rows(rows):
    assert all(type(x) is Fraction for row in rows for x in row)


def check_against_oracle(rng, rows):
    """Compare every public entry point with the oracle on one system."""
    before = copy.deepcopy(rows)
    nrows, ncols = len(rows), len(rows[0])
    red, pivots = dense_rref_rows(rows)
    for given in (rows, [{c: x for c, x in enumerate(row) if x} for row in rows]):
        got, piv = rref_rows(given)
        assert piv == pivots
        assert pivot_columns(given) == pivots
        assert [[row.get(c, 0) for c in range(ncols)] for row in got] == red
        assert all(type(x) is Fraction and x for row in got for x in row.values())
    assert rank(rows) == len(pivots)
    null = kernel_basis(rows, ncols)
    assert null == oracle_kernel(red, pivots, ncols)
    assert_fraction_rows(null)
    x = [rand_entry(rng) if rng.random() < 0.5 else 0 for _ in range(ncols)]
    for rhs in (QMatrix(rows).apply(x), [rand_entry(rng) for _ in range(nrows)]):
        sol = solve(rows, rhs, ncols)
        assert sol == oracle_solve(rows, rhs)
        if sol is not None:
            assert_fraction_rows([sol])
    if nrows == ncols:
        inv = inverse(rows)
        assert inv == oracle_inverse(rows)
        if inv is not None:
            assert_fraction_rows(inv)
    assert rows == before


DENSE_COEFFS = ("3/4", "-2/5", "5/7", "-7/3", "4/9", "-5/6", "7/4", "-3/8")


def dense_relation_rows(rng, window):
    """Coordinates of the left and right multiples spanning D/(pD + Dd) in
    degree <= window, for p = t*d^2 plus four fractional lower terms."""
    a, b, c, e = rng.sample(DENSE_COEFFS, 4)
    p = parse_weyl(f"t*d^2 + ({a})*d^2 + ({b})*t*d + ({c})*d + ({e})")
    q = parse_weyl("d")
    vectors = [p * WeylElement.monomial(i, n - 3 - i)
               for n in range(3, window + 1) for i in range(n - 2)]
    vectors += [WeylElement.monomial(i, n - 1 - i) * q
                for n in range(1, window + 1) for i in range(n)]
    cols = [(i, n - i) for n in range(window, -1, -1) for i in range(n + 1)]
    return [[w.coeff(*ij) for ij in cols] for w in vectors]


def test_sparse_systems_match_dense_oracle():
    rng = random.Random(2250)
    shapes = [(150, 180)] + [(rng.randint(60, 150), rng.randint(80, 180)) for _ in range(3)]
    for nrows, ncols in shapes:
        rows = rand_sparse_rows(rng, nrows, ncols, rng.uniform(0.008, 0.025))
        check_against_oracle(rng, rows)
    for window in (4, 6, 7):
        check_against_oracle(rng, dense_relation_rows(rng, window))


def test_sparse_square_systems_match_dense_oracle():
    rng = random.Random(2251)
    for k in range(12):
        n = rng.randint(5, 40)
        rows = rand_sparse_rows(rng, n, n, 0.04)
        if k % 2:
            for i in range(n):
                rows[i][i] += 1
        check_against_oracle(rng, rows)


def test_small_dense_systems_match_dense_oracle():
    rng = random.Random(2252)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            rows = rand_int_rows(rng, nrows, ncols, bound=2)
        else:
            rows = [[rand_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        check_against_oracle(rng, rows)
    # entries of height up to 10^12
    for k in range(8):
        nrows, ncols = rng.randint(3, 12), rng.randint(3, 12)
        rows = rand_sparse_rows(rng, nrows, nrows if k % 2 else ncols, 0.6, entry=big_entry)
        check_against_oracle(rng, rows)


def test_degenerate_shapes_match_dense_oracle():
    assert rref_rows([]) == ([], [])
    assert rank([]) == 0 and dense_rref_rows([]) == ([], [])
    assert kernel_basis([], 2) == oracle_kernel([], [], 2)
    assert solve([], [], 3) == [0, 0, 0]
    assert inverse([]) == []
    assert rref_rows([[], []]) == ([], [])
    assert kernel_basis([[], []], 0) == []
    assert solve([[], []], [0, 1], 0) is None
    assert inverse([[0, 0], [0, 0]]) is None
    for rows in ([[0, 0, 0]], [[0, 0], [0, 0], [0, 0]]):
        red, pivots = dense_rref_rows(rows)
        assert (red, pivots) == ([], [])
        assert rref_rows(rows) == ([], [])
        assert kernel_basis(rows, len(rows[0])) == oracle_kernel(red, pivots, len(rows[0]))
        assert solve(rows, [0] * len(rows), len(rows[0])) == [0] * len(rows[0])
    assert solve([[0, 0]], [1], 2) is None
    text = [["0", "1/2", "0"], ["2", "0", "-1/3"]]
    red, pivots = dense_rref_rows(text)
    got, piv = rref_rows(text)
    assert ([[row.get(c, 0) for c in range(3)] for row in got], piv) == (red, pivots)
    assert kernel_basis(text, 3) == oracle_kernel(red, pivots, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dense_rref_rows([[1, 2], [3]]), "ragged matrix"),
        (lambda: rref_rows([[1, 2], [3]]), "ragged matrix"),
        (lambda: rank([[1], [2, 3]]), "ragged matrix"),
        (lambda: kernel_basis([[1, 2], [3]], 2), "row length disagrees with ncols"),
        (lambda: kernel_basis([[1, 2]], 3), "row length disagrees with ncols"),
        (lambda: solve([[1, 2], [3]], [1, 2], 2), "ragged matrix"),
        (lambda: solve([[1, 2]], [1, 2], 2), "rhs length disagrees with row count"),
        (lambda: solve([], []), "ncols is required when the system has no rows"),
        (lambda: solve([[1, 2]], [1], 3), "ncols disagrees with matrix width"),
        (lambda: inverse([[1, 2]]), "inverse needs a square matrix"),
        (lambda: inverse([[1, 2], [3]]), "inverse needs a square matrix"),
    ],
)
def test_value_errors_unchanged(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_tuple_and_qmatrix_rows_agree_with_lists():
    rng = random.Random(2253)
    rows = rand_sparse_rows(rng, 30, 40, 0.05)
    as_tuples = tuple(tuple(row) for row in rows)
    assert rref_rows(as_tuples) == rref_rows(rows)
    assert kernel_basis(as_tuples, 40) == kernel_basis(rows, 40)
    m = QMatrix(rows)
    assert rank(m.to_rows()) == rank(rows)
    assert kernel_basis(m.to_rows(), m.ncols) == kernel_basis(rows, 40)
    assert m.to_rows() == rows


# -- the pivot exit -------------------------------------------------------


def _integer_scaled(rows):
    """Each row times the lcm of its denominators: the same rank."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * den) for x in row])
    return out


def _pivot_cases():
    rng = random.Random(2254)
    cases = [[], [[], []], [[0, 0, 0]], [[1, 2], [2, 4], [1, 2]],
             [[0, Fraction(1, 2)], [0, 0], [0, Fraction(1, 2)]]]
    for k in range(120):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 12)
        if k % 3 == 0:
            rows = rand_int_rows(rng, nrows, ncols, bound=3)
        elif k % 3 == 1:
            rows = [[rand_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        else:
            rows = rand_sparse_rows(rng, nrows, ncols, rng.uniform(0.1, 0.4))
        if rng.random() < 0.5:
            rows.append(list(rows[rng.randrange(nrows)]))
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        cases.append(rows)
    return cases


def test_pivot_exit_matches_the_dense_oracle():
    for rows in _pivot_cases():
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        before = copy.deepcopy((rows, sparse))
        want = dense_rref_rows(rows)[1]
        assert pivot_columns(rows) == pivot_columns(sparse) == want
        assert pivot_columns(iter(rows)) == want
        assert rref_rows(sparse)[1] == want
        assert rank(rows) == bareiss_rank(_integer_scaled(rows)) == len(want)
        assert (rows, sparse) == before


@pytest.mark.parametrize("rows", [
    [[1, 2], [3]],
    [{0: 1}, [1, 2], {5: 1}, (3,)],
    [[], [0]],
])
def test_every_exit_rejects_ragged_rows(rows):
    for call in (rref_rows, rank, pivot_columns):
        with pytest.raises(ValueError, match="^ragged matrix$"):
            call(rows)
