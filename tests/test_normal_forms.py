"""Normal forms modulo Dq, and the Hom and Ext^1 answers read off them.

``normal_forms`` is checked against its defining properties by plain
multiplication and exact division.  ``hom_search`` and ``ext1_dim`` are
checked against the windowed span computations they replaced, kept in
conftest: dims, bases, representatives and stabilization must agree
exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weyldeform import WeylElement, divide_left, ext, ext1_dim, hom_search, linalg, modules, parse_weyl, weyl
from weyldeform.modules import CyclicModule, clear_caches
from weyldeform.weyl import leading_term, monomial_multiples, normal_forms, truncated_monomials

from conftest import windowed_ext1, windowed_hom_basis
from test_lazy_multiples import DENSE, NON_UNIT, TALL

t = WeylElement.t()
d = WeylElement.d()

_TERMS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.fractions(max_denominator=5)),
    max_size=4,
).map(lambda terms: sum((WeylElement.monomial(i, j, c) for i, j, c in terms),
                        WeylElement.zero()))
_RELATIONS = _TERMS.filter(bool)


def _lead(q):
    # by total degree, then t-power: the order of TruncatedSpan's pivots
    return max(q._terms, key=lambda ij: (ij[0] + ij[1], ij[0]))


def test_leading_term_breaks_ties_towards_t():
    assert leading_term(d * d + t * d) == ((1, 1), Fraction(1))
    assert leading_term(t * d + 3 * t * t - 1) == ((2, 0), Fraction(3))
    assert leading_term(parse_weyl("7")) == ((0, 0), Fraction(7))


@settings(max_examples=150, deadline=None)
@given(q=_RELATIONS, xs=st.lists(_TERMS, max_size=4), s=_TERMS)
def test_normal_form_properties(q, xs, s):
    n = 12
    xs = [*xs, s * q]
    nfs = normal_forms(xs, q, n)
    k, l = _lead(q)
    for x, nf in zip(xs, nfs):
        assert divide_left(x - nf, q) is not None
        assert all(i < k or j < l for i, j in nf._terms)
        assert nf.is_zero() or nf.degree() <= x.degree()
        assert all(type(c) is Fraction and c for c in nf._terms.values())
    assert nfs[-1].is_zero()
    assert normal_forms(nfs, q, n) == nfs


def test_normal_form_kills_every_multiple_in_range():
    q = parse_weyl("t*d^2 + 3/4*d^2 - 2/5*t*d + 5/7*d - 7/3")
    assert normal_forms(monomial_multiples(WeylElement.one(), 5, q), q, 8) == \
        [WeylElement.zero()] * len(truncated_monomials(5))
    assert normal_forms([WeylElement.monomial(1, 1)], q, 8) == [WeylElement.monomial(1, 1)]


def test_normal_form_rejects_elements_above_its_degree():
    with pytest.raises(ValueError):
        normal_forms([WeylElement.monomial(3, 3)], d, 5)


def _assert_same(p, q, cap):
    got = hom_search(p, q, cap)
    want = windowed_hom_basis(CyclicModule(p), CyclicModule(q), cap)
    assert got.dims == want.dims
    assert got.basis == want.basis
    assert got.stabilized_at() == want.stabilized_at()
    got = ext1_dim(p, q, cap)
    want = windowed_ext1(CyclicModule(p).p, CyclicModule(q).p, cap)
    assert got.dims == want.dims
    assert got.representatives == want.representatives
    assert got.stabilized_at == want.stabilized_at


def _rand_relation(rng, max_deg=3):
    while True:
        w = WeylElement.zero()
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, max_deg)
            j = rng.randint(0, max_deg - i)
            w = w + WeylElement.monomial(i, j, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if w:
            return w


def test_random_relations_match_the_windowed_spans():
    rng = random.Random(2718)
    for _ in range(120):
        _assert_same(_rand_relation(rng), _rand_relation(rng), rng.randint(0, 9))


@pytest.mark.parametrize("p, q", [
    ("3", "t*d - 1"), ("t*d - 1", "-2/3"), ("5", "7"), ("1", "d"), ("t", "1"),
])
@pytest.mark.parametrize("cap", [0, 1, 4])
def test_constant_relations_match_the_windowed_spans(p, q, cap):
    _assert_same(parse_weyl(p), parse_weyl(q), cap)


@pytest.mark.parametrize("p, q, cap", [
    ("t*d", "t^3*d^2 - t", 2),
    ("d^2 - 1", "t^2*d^2 + d", 3),
    ("t", "d^5 + t^2", 4),
    ("t^4 - d", "t*d^3", 1),
])
def test_targets_above_the_cap_match_the_windowed_spans(p, q, cap):
    _assert_same(parse_weyl(p), parse_weyl(q), cap)


@pytest.mark.parametrize("p, q, cap", [
    ("t*d - 2", "d", 12),
    ("t^2 - 1/2", "d^2", 12),
    ("t^2*d + 3", "d", 12),
    ("t*d^2 - 2/3", "d", 12),
    ("t*d + 3/2", "d^2", 14),
    ("d^2 - 1/3", "t", 12),
    ("d^2 + 2", "t*d", 14),
    ("t*d - 5/2", "d", 16),
    ("t*d + 1", "t*d + 1 - 1", 12),
    ("t", "t*d - 3", 14),
    ("t*d - 1/2", "t*d - 1/2 - 1", 16),
    ("d^2 + 1/3", "d", 12),
    ("t*d^2 + (3/4)*d^2 + (-2/5)*t*d + (5/7)*d + (-7/3)", "d", 12),
    ("t*d^2 + (-7/3)*d^2 + (4/9)*t*d + (-5/6)*d + (7/4)", "d", 12),
    (DENSE, "d", 12),
    ("t*d - 1/2", DENSE, 10),
    (TALL, "d", 12),
    ("d^2 - 1", TALL, 8),
    (NON_UNIT, "t*d + 1", 12),
    ("t", NON_UNIT, 10),
])
def test_benchmark_relations_match_the_windowed_spans(p, q, cap):
    _assert_same(parse_weyl(p), parse_weyl(q), cap)


def test_cold_ext1_and_hom_stay_over_the_integers(monkeypatch):
    # Ext^1 reads only pivots, so it makes no back-substitution and divides
    # no row by its pivot; neither search builds a normal form in Fractions
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_back_substitute", counted("back", linalg._back_substitute))
    monkeypatch.setattr(linalg, "_scaled", counted("scaled", linalg._scaled))
    wrapper = weyl.normal_forms
    for mod in (weyl, modules, ext):
        for attr, value in list(vars(mod).items()):
            if value is wrapper:
                monkeypatch.setattr(mod, attr, counted("normal_forms", wrapper))
    clear_caches()
    try:
        assert ext1_dim("t^2*d - 3/2", "d", 12).dim == 1
        assert calls == []
        assert hom_search("t*d - 3", "t*d - 4", 12).dim == 1
        assert "normal_forms" not in calls and "back" in calls
    finally:
        clear_caches()
