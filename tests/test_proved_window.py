"""Hom and Ext^1 over proved windows: into M1 = D/Dd or M2 = D/Dt, where
p acts on Q[t] or Q[d] with an indicial polynomial, and between cyclic
modules whose Bernstein symbols are coprime.

The oracles are independent of the windows: Ext^1 from every product p*m
in a window 18 degrees past the cap (``filtered_ext1``), and Hom from a
search at the hard cap with ``_window_proof`` switched off, so every
standard r up to the hard cap is searched, cut down to the bound.
"""

import random
from fractions import Fraction

import pytest

from weyldeform import WeylElement, cli, ext1_dim, hom_search, modules
from weyldeform.modules import CyclicModule, _deg, _window_proof

from conftest import filtered_ext1

t, d = WeylElement.t(), WeylElement.d()


def _relation(rng, max_deg=3):
    while True:
        w = WeylElement.zero()
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, max_deg)
            j = rng.randint(0, max_deg - i)
            w = w + WeylElement.monomial(i, j, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if w:
            return w


def _covered_pairs(seed, count):
    """Seeded (p, q, cap) with q in {t, d} or coprime symbols."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = _relation(rng)
        q = rng.choice((t, d)) if rng.random() < 0.5 else _relation(rng)
        if _window_proof(CyclicModule(p).p, CyclicModule(q).p) is not None:
            out.append((p, q, rng.randint(0, 9)))
    return out


# the margin window alone reports classes here that do not exist:
# t^9, t^10 for d^3 into M1, d^7, d^8 for t^3 into M2
NAMED = [(d ** 3, d, 10), (t ** 3, t, 8), (t * d - 3, d, 2), (t * d - 12, d, 8)]
# indicial roots inside the cap, so Hom has classes there: t^3; t^2, t^5;
# d^4 (t*d acts on Q[d] as -(k + 1)); t^12
NAMED += [(t * d - 3, d, 8), (t ** 2 * d ** 2 - 6 * t * d + 10, d, 8), (t * d + 5, t, 6),
          (t * d - 12, d, 14)]
PAIRS = NAMED + _covered_pairs(56, 60)


def _top(p, q):
    return _window_proof(CyclicModule(p).p, CyclicModule(q).p)


@pytest.mark.parametrize("p, q, cap", PAIRS)
def test_ext1_matches_the_wide_margin(p, q, cap):
    got = ext1_dim(p, q, cap)
    want = filtered_ext1(CyclicModule(p).p, CyclicModule(q).p, cap, margin=18)
    assert (got.dims, got.representatives) == (want.dims, want.representatives)
    # a top degree past the cap leaves the answer bounded
    if _top(p, q)[2] > cap:
        assert got.stabilized_at is None
    else:
        assert got.stabilized_at == want.stabilized_at


def _unproved_hom(monkeypatch, p, q):
    """Hom at the hard cap over every standard r, no proof consulted."""
    with monkeypatch.context() as patch:
        patch.setattr(modules, "_window_proof", lambda p, q: None)
        modules.clear_caches()
        try:
            return hom_search(p, q, modules.HARD_CAP)
        finally:
            modules.clear_caches()


@pytest.mark.parametrize("p, q, cap", PAIRS)
def test_hom_matches_the_unproved_hard_cap_cut_at_the_bound(monkeypatch, p, q, cap):
    wide = _unproved_hom(monkeypatch, p, q)
    got = hom_search(p, q, cap)
    assert got.dims == wide.dims[:cap + 1]
    assert got.basis == tuple(b for b in wide.basis if b.degree() <= cap)
    if _top(p, q)[0] > cap:
        assert got.stabilized_at() is None


def test_coprime_symbols_give_ab_classes_and_no_map(monkeypatch):
    # dim Hom - dim Ext^1 = -deg p * deg q when the symbols are coprime
    checked = 0
    for p, q, _ in _covered_pairs(7, 40):
        p, q = CyclicModule(p).p, CyclicModule(q).p
        r, _, top = _window_proof(p, q)
        if q in (t, d) or r >= 0 or top > modules.HARD_CAP:
            continue
        assert _unproved_hom(monkeypatch, p, q).dim == 0
        assert ext1_dim(p, q, modules.HARD_CAP).dim == _deg(p) * _deg(q)
        checked += 1
    assert checked >= 5


def test_a_class_above_the_cap_is_labelled_bounded():
    low, high = ext1_dim("t*d - 3", "d", 2), ext1_dim("t*d - 3", "d", 3)
    assert (low.dim, low.stabilized_at) == (0, None)
    assert high.representatives == (t ** 3,)
    assert hom_search("t*d - 12", "d", 14).basis == (t ** 12,)
    # the CLI exits 2 on a bounded negative
    assert cli.main(["hom", "t*d - 12", "d", "--max-degree", "8"]) == 2
    assert hom_search("t*d - 12", "d", 8).stabilized_at() is None


def test_the_indicial_root_is_found_far_from_the_origin():
    assert _window_proof(CyclicModule("t*d - 300").p, d) == (300, 0, 300)
    assert _window_proof(CyclicModule("t^3*d^3 - 1").p, t)[0] == -1
    # c(k) = (k - 10^6)^2 does not change sign at its root
    p = CyclicModule("t^2*d^2 - 1999999*t*d + 1000000000000").p
    assert _window_proof(p, d)[0] == 10 ** 6


@pytest.mark.parametrize("p, q, cap", [(t * d - 300, d, 8), (d ** 5 - t, t, 6)]
                         + _covered_pairs(11, 20))
def test_a_proved_window_is_never_wider_than_the_margin(work, p, q, cap):
    p, q = CyclicModule(p).p, CyclicModule(q).p
    # ext1_dim reduces the products p*m of its one window in one call
    ext1_dim(p, q, cap)
    (k, l), _ = modules.leading_term(q)
    span = max(cap + modules.WINDOW_MARGIN - _deg(p), cap)
    margin = sum(1 for i, j in modules.truncated_monomials(span) if i < k or j < l)
    assert "weyl.products_reduced" in work
    assert work["weyl.products_reduced"] <= margin
