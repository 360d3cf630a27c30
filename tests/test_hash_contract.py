"""Equal values hash equal, so a dict or memo keyed by one finds the other.

Each pool mixes values built by different routes, seeded, and every pair
that compares equal must hash equal.  WeylElement compares equal to the
int or Fraction it is a constant of, so its pool holds those scalars too.
"""

import random
from fractions import Fraction

import pytest

from weyldeform import CyclicModule, PresentedModule, QMatrix, WeylElement, parse_weyl, print_weyl

from conftest import rand_invertible, rand_weyl

t = WeylElement.t()
d = WeylElement.d()
one = WeylElement.one()


def _scalar_routes(k: Fraction) -> list:
    routes = [k, WeylElement.constant(k), WeylElement({(0, 0): k}), parse_weyl(str(k)),
              one * k, (d * t - t * d) * k, t * k - t * k + k]
    return routes + [int(k)] if k.denominator == 1 else routes


def element_pool(rng):
    pool = [0, 1, Fraction(0), Fraction(2, 2), WeylElement.zero(), t - t, one, d * t - t * d]
    for _ in range(12):
        pool += _scalar_routes(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])))
        w = rand_weyl(rng)
        pool += [w, WeylElement(dict(w)), parse_weyl(print_weyl(w)), w + t - t]
    return pool


def qmatrix_pool(rng):
    pool = [QMatrix([]), QMatrix._of((), 2), QMatrix([[0, 0]])]
    for _ in range(8):
        n = rng.randint(1, 3)
        m = rand_invertible(rng, n)
        rows = m.to_rows()
        pool += [m, QMatrix(rows), QMatrix([[Fraction(x) for x in row] for row in rows]),
                 QMatrix.identity(n), m * m.inverse()]
        # routes through a reducible (numerators, denominator) pair: stored
        # unreduced, they would be equal values with different hashes
        h = m * Fraction(1, rng.randint(2, 6))
        for x in (m, h):
            pool += [x * Fraction(2, 3) * Fraction(3, 2), (x + x) * Fraction(1, 2),
                     x.inverse().inverse(), x - x + x]
        pool += [h, QMatrix([[str(x) for x in row] for row in h.to_rows()])]
    return pool


def cyclic_pool(rng):
    pool = [CyclicModule("d"), CyclicModule(d * 3), CyclicModule("t"), CyclicModule(t)]
    for _ in range(8):
        w = t ** 4 + rand_weyl(rng)  # rand_weyl has no t^4 term, so w is nonzero
        k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        pool += [CyclicModule(w), CyclicModule(print_weyl(w)), CyclicModule(w * k)]
    return pool


def presented_pool(rng):
    pool = [PresentedModule([["d", "-1"], ["-1", "t"]]), PresentedModule([[d, -one], [-one, t]])]
    for _ in range(8):
        n = rng.randint(1, 2)
        rows = [[rand_weyl(rng, max_deg=2) for _ in range(n)] for _ in range(n)]
        pool += [PresentedModule(rows), PresentedModule([[print_weyl(e) for e in row] for row in rows])]
    return pool


@pytest.mark.parametrize("build", [element_pool, qmatrix_pool, cyclic_pool, presented_pool],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equal_values_hash_equal(build, seed):
    pool = build(random.Random(4600 + seed))
    distinct_equal = 0
    for a in pool:
        for b in pool:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                distinct_equal += a is not b
    assert distinct_equal >= len(pool)  # the pool does hold equal values built apart


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equal_entries_make_equal_matrices(seed):
    # QMatrix compares its stored (numerators, denominator) pair, so a
    # route that left it unreduced would make equal entries unequal
    pool = qmatrix_pool(random.Random(4600 + seed))
    for a in pool:
        for b in pool:
            if a.shape == b.shape and a.to_rows() == b.to_rows():
                assert a == b and hash(a) == hash(b), (a, b)


def test_scalar_elements_are_found_by_their_scalar():
    assert 1 in {WeylElement.one()}
    assert WeylElement.one() in {1}
    assert {0: "zero"}[WeylElement.zero()] == "zero"
    assert {Fraction(1, 2): "half"}[WeylElement.constant(Fraction(1, 2))] == "half"
    assert hash(WeylElement.constant(3)) == hash(3) == hash(Fraction(3))
