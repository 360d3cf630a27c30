"""Each exact linear question has one elimination route.

The cyclic isomorphism certificate reads r*s - 1 in Dp off normal forms
modulo Dp, and the span test of the quiver normal form reads pivot
columns off rref_rows.  Both must answer exactly as the routes they
replaced: the certificate as the digests (conftest.digest) of the
windowed solve's answers, the span test as incremental elimination.
"""

import random
from fractions import Fraction

import pytest

from conftest import _extend, digest
from weyldeform import CyclicModule, PresentedModule, WeylElement, clear_caches, cyclic_form, parse_weyl
from weyldeform import modules, reps
from weyldeform.linalg import rref_rows


def _euler(roots) -> WeylElement:
    """The product of (t*d - a) over the roots: shifting a root by an
    integer keeps Hom nonzero both ways, so the finisher is reached."""
    out = WeylElement.one()
    for a in roots:
        out = out * (parse_weyl("t*d") - a)
    return out


def _unit_shift_pairs():
    for b in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2),
              Fraction(-3, 2), Fraction(5, 3)):
        for k in (1, -1, 2, -2):
            yield _euler([b]), _euler([b + k])


def _cli_pool_pairs():
    yield parse_weyl("t*d - 1"), parse_weyl("t*d - 2")
    yield parse_weyl("d"), parse_weyl("t")
    yield parse_weyl("d*t"), parse_weyl("t*d + 1")
    form, _ = cyclic_form(PresentedModule((("d", "-1"), ("-1", "t"))), 8)
    yield parse_weyl("t*d + 1"), form.p


def _random_pairs(seed: int = 30, count: int = 40):
    rng = random.Random(seed)
    for _ in range(count):
        roots = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                 for _ in range(rng.choice((1, 1, 2)))]
        yield _euler(roots), _euler([a + rng.randint(-2, 2) for a in roots])


# The finisher before it read r*s - 1 in Dp off normal forms, with the
# cofactor c_a an unknown of one linear system beside s: the digest of its
# answers, None where it found none, on every call below, by input list
WINDOWED_SOLVE_SHA256 = {
    "_unit_shift_pairs": "d90c10f4ac1453c1902df79d0572312e26c714af60ed2b9c5b19b05acabaa54e",
    "_cli_pool_pairs": "b4154d3afd6e3319dcaeb646615062cd2c10d624ebeca82d8cd8ac1d421ce569",
    "_random_pairs": "431e0134e2209c1740f743ecb016cbf1df46ee0d5af242420a46c8792ab677a4",
}


@pytest.mark.parametrize("pairs", [_unit_shift_pairs, _cli_pool_pairs, _random_pairs])
def test_cyclic_certificate_matches_windowed_solve(monkeypatch, pairs):
    # the finisher is replaced by one that records its answer and then
    # declines, so _cyclic_iso offers it every candidate r at every rung
    # (equal relations get the identity without it)
    finish = modules._finish_cyclic_iso
    answers, found = [], []

    def both(a, b, r, s_pool, max_degree):
        got = finish(a, b, r, s_pool, max_degree)
        answers.append(got)
        if got is not None:
            assert got.verify()
            found.append(got)
        return None

    clear_caches()
    cases = list(pairs())
    monkeypatch.setattr(modules, "_finish_cyclic_iso", both)
    for cap in (4, 8, 10):
        for p, q in cases:
            modules._cyclic_iso(CyclicModule(p), CyclicModule(q), cap)
    clear_caches()
    assert digest(answers) == WINDOWED_SOLVE_SHA256[pairs.__name__]
    assert found and len(answers) > len(found)


def _random_vectors(rng: random.Random, count: int, n: int, basis: list) -> list:
    """Vectors of length n, about a third of them combinations of basis."""
    out = []
    for _ in range(count):
        if basis and rng.random() < 0.35:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
            out.append([sum((c * x[i] for c, x in zip(coeffs, basis)), Fraction(0))
                        for i in range(n)])
        else:
            out.append([Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                        if rng.random() < 0.6 else Fraction(0) for _ in range(n)])
        basis = basis + [out[-1]]
    return out


def test_span_test_matches_incremental_elimination():
    rng = random.Random(29)
    kept = dropped = 0
    for trial in range(120):
        n = rng.randint(1, 7)
        below = _random_vectors(rng, rng.randint(0, 4) if trial % 3 else 0, n, [])
        vectors = _random_vectors(rng, rng.randint(0, 8), n, below)
        want = _extend(*rref_rows(below), vectors)
        assert reps._new_span(below, vectors) == want
        kept += len(want)
        dropped += len(vectors) - len(want)
    assert kept > 100 and dropped > 100
