"""Products built only where an answer reads them.

``normal_forms`` builds t^a d^b * q only for the monomials its inputs
reach, checked against the version that built every product in the
degree window (kept in conftest), term for term and in storage order.
``monomial_multiples`` builds left * t^a d^b * right by recurrences, not
products, checked against the products.  ``ext1_dim`` builds only the
multiples of q it reads, and is checked against a much wider window
where the relation p is deeper than the window margin.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weyldeform import WeylElement, ext1_dim, parse_weyl
from weyldeform import weyl
from weyldeform.modules import clear_caches
from weyldeform.weyl import monomial_multiples, normal_forms, truncated_monomials

from conftest import filtered_ext1, reference_normal_forms

_COEFFS = st.fractions(max_denominator=5)


def _element(max_deg, max_size):
    terms = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg), _COEFFS).filter(
        lambda ijc: ijc[0] + ijc[1] <= max_deg)
    return st.lists(terms, max_size=max_size).map(
        lambda ts: sum((WeylElement.monomial(i, j, c) for i, j, c in ts), WeylElement.zero()))


def _dense(deg):
    # every monomial of degree <= deg, leading coefficient not 1
    return st.lists(_COEFFS.filter(bool), min_size=(deg + 1) * (deg + 2) // 2,
                    max_size=(deg + 1) * (deg + 2) // 2).map(
        lambda cs: WeylElement({m: 3 * c for m, c in zip(weyl.truncated_monomials(deg), cs)}))


_RELATIONS = st.one_of(_element(3, 4).filter(bool), st.integers(0, 3).flatmap(_dense))


def _terms(ws):
    return [list(w) for w in ws]


@settings(max_examples=150, deadline=None)
@given(q=_RELATIONS, xs=st.lists(_element(10, 6), max_size=4), n=st.integers(10, 12))
def test_lazy_normal_forms_match_the_full_window(q, xs, n):
    assert _terms(normal_forms(xs, q, n)) == _terms(reference_normal_forms(xs, q, n))


# the dense relation of the benchmark's Ext^1 queries, one of height 10^12
# and one with a leading coefficient other than 1
DENSE = "t*d^2 + 3/4*d^2 - 2/5*t*d + 5/7*d - 7/3"
TALL = "t*d^2 - 123456789013/987654321097*t + 987654321098/123456789011*d"
NON_UNIT = "-14/3*t^2*d + 5*t*d - 10/9"


@pytest.mark.parametrize("q", ["d", "t*d - 1/2", "7/3*t^2*d + d^2 - t + 5", "-2/9",
                               DENSE, TALL, NON_UNIT])
def test_deep_and_empty_inputs_match_the_full_window(q):
    q = parse_weyl(q)
    deep = [WeylElement.monomial(i, 12 - i, Fraction(i + 1, 3)) for i in range(13)]
    for xs in ([], deep, [sum(deep, WeylElement.zero())], [WeylElement.zero(), q * q]):
        assert _terms(normal_forms(xs, q, 12)) == _terms(reference_normal_forms(xs, q, 12))


@pytest.mark.parametrize("xs, q, n", [
    (["t^3*d^3"], "d", 5),
    (["1", "t^2"], "t*d", 1),
    (["4"], "d", -1),
])
def test_degree_guard_matches_the_full_window(xs, q, n):
    xs = [parse_weyl(x) for x in xs]
    for route in (normal_forms, reference_normal_forms):
        with pytest.raises(ValueError, match="exceeds the degree"):
            route(xs, parse_weyl(q), n)


@settings(max_examples=150, deadline=None)
@given(w=_element(3, 4), n=st.integers(-1, 6), on_left=st.booleans())
def test_multiples_of_listed_monomials_match_products(w, n, on_left):
    one = WeylElement.one()
    left, right = (w, one) if on_left else (one, w)
    got = monomial_multiples(left, n, right)
    assert got == [left * WeylElement.monomial(a, b) * right for a, b in truncated_monomials(n)]
    assert all(type(c) is Fraction and c for x in got for _, c in x)


def test_ext1_builds_only_the_products_it_reads(monkeypatch):
    calls = 0
    shift = weyl._shift

    def counted(*args):
        nonlocal calls
        calls += 1
        return shift(*args)

    monkeypatch.setattr(weyl, "_shift", counted)
    clear_caches()
    try:
        assert ext1_dim("t*d - 1/2", "d", 16).dim == 0
    finally:
        clear_caches()
    # the full window shifted 437 times; building the standard products
    # and the multiples of d they reach took 56, and the multiples of d
    # alone, now that the products are reduced unbuilt, take 19
    assert calls <= 80


@pytest.mark.parametrize("p, q, cap", [
    ("t^3*d^3 - 1", "t*d", 8),
    ("t^3*d^3 - 1", "t*d", 5),
    ("t^3*d^2 - 1/7", "d^2*t - 2", 4),
    ("t^3*d^2 - 1/7", "d^2*t - 2", 7),
    ("d^5 + t^2*d - 1", "t^2 + d", 6),
    ("t^6 - 2*d", "d^3 - t", 6),
])
def test_deep_relations_match_a_wide_window(p, q, cap):
    p, q = parse_weyl(p), parse_weyl(q)
    got = ext1_dim(p, q, cap)
    want = filtered_ext1(p, q, cap, margin=12)
    assert got.dims == want.dims
    assert got.representatives == want.representatives
    assert filtered_ext1(p, q, cap, margin=16).dims == want.dims


@pytest.mark.parametrize("p, q", [
    ("t*d - 1/2", "d"), ("t^2*d + 3", "t*d + 1"), ("d^4 - t", "t^2*d - 3/2"),
    ("t*d^3 + 2/3*t^2 - d", "d^2*t - 2"),
])
@pytest.mark.parametrize("cap", [0, 3, 9])
def test_shallow_relations_keep_the_filtered_window(p, q, cap):
    p, q = parse_weyl(p), parse_weyl(q)
    assert ext1_dim(p, q, cap) == filtered_ext1(p, q, cap)
