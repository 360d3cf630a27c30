"""Operator arithmetic against the polynomial-action oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weyldeform import WeylElement, parse_weyl, print_weyl
from weyldeform.weyl import monomial_multiples, truncated_monomials

from conftest import _mono_mul, apply_to_poly, poly_eq, rand_poly, rand_weyl, weyl_mul

t = WeylElement.t()
d = WeylElement.d()
one = WeylElement.one()


def test_defining_relation():
    assert d * t - t * d == one
    assert d * t == t * d + one


def test_normal_form_example():
    # d^2 t = t d^2 + 2 d, the degree-2 case of the commutation rule
    assert d * d * t == t * d * d + d * 2


def test_action_on_monomials():
    # d acts as differentiation, t as multiplication by x
    assert apply_to_poly(d, [0, 0, 1]) == [0, 2]
    assert apply_to_poly(t, [1, 1]) == [0, 1, 1]
    assert apply_to_poly(t * d, [0, 0, 0, 5]) == [0, 0, 0, 15]


def test_product_matches_action_fuzz():
    rng = random.Random(411)
    for _ in range(700):
        a = rand_weyl(rng)
        b = rand_weyl(rng)
        f = rand_poly(rng)
        lhs = apply_to_poly(a * b, f)
        rhs = apply_to_poly(a, apply_to_poly(b, f))
        assert poly_eq(lhs, rhs)


def test_associativity_fuzz():
    rng = random.Random(412)
    for _ in range(400):
        a = rand_weyl(rng, max_deg=2)
        b = rand_weyl(rng, max_deg=2)
        c = rand_weyl(rng, max_deg=2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_degree_additive_on_products():
    rng = random.Random(413)
    checked = 0
    while checked < 200:
        a = rand_weyl(rng)
        b = rand_weyl(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()
        checked += 1


def test_bernstein_degree_values():
    # the Bernstein degree of an element is the total degree of its normal form
    assert (t * t * d).degree() == 3
    assert one.degree() == 0
    assert WeylElement.zero().degree() is None
    assert (t * d - WeylElement.constant(7)).degree() == 2


def test_zero_degree_is_none():
    assert WeylElement.zero().degree() is None
    assert (t - t).degree() is None


def test_pow_matches_repeated_product(monkeypatch):
    for base in (t + d, parse_weyl("t*d - 1/2")):
        product = one
        for k in range(10):
            assert base ** k == product
            product = product * base
    with pytest.raises(ValueError):
        (t + d) ** -1
    # the loop stops before squaring past the exponent: no product it
    # forms has a higher degree than the power itself
    degrees = []
    mul = WeylElement.__mul__

    def recorded(a, b):
        out = mul(a, b)
        degrees.append(out.degree())
        return out

    monkeypatch.setattr(WeylElement, "__mul__", recorded)
    for k in (1, 3, 16):
        degrees.clear()
        (t + d) ** k
        assert max(degrees) == k


def test_nf_mul_wrapper():
    # the normal-form product of d and t, now spelled with *
    assert d * t == t * d + one


def test_scalar_and_fraction_coefficients():
    w = t * Fraction(1, 2) + d * 3
    assert w.coeff(1, 0) == Fraction(1, 2)
    assert w.coeff(0, 1) == 3
    assert w.coeff(2, 2) == 0 and type(w.coeff(2, 2)) is Fraction


def test_hash_and_equality():
    a = parse_weyl("t*d + 1")
    b = d * t
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_is_computed_once_from_the_terms():
    built = WeylElement({(1, 1): 2, (0, 0): -1})
    wrapped = WeylElement._of({(1, 1): Fraction(2), (0, 0): Fraction(-1)})
    computed = t * d * 2 - one
    for w in (built, wrapped, computed):
        assert w._hash is None
        assert hash(w) == hash(frozenset(w._terms.items()))
        assert w._hash == hash(w)
    assert built == wrapped == computed
    assert hash(built) == hash(wrapped) == hash(computed)
    # a scalar element hashes as the scalar it equals
    scalar = d * t - t * d
    assert scalar._hash is None
    assert hash(scalar) == hash(one) == hash(1)
    assert scalar._hash == hash(scalar)


def test_print_weyl_formats_each_element_once():
    rng = random.Random(4601)
    elements = [WeylElement.zero(), one, t, d]
    for _ in range(80):
        a, b = rand_weyl(rng), rand_weyl(rng)
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        elements += [
            WeylElement({(i, j): k, (j, i): 1}), WeylElement.constant(k),
            WeylElement.monomial(i, j, k), parse_weyl(f"t^{i}*d^{j} - {k}"),
            a * b, a + b, a - b, -a, a * k, k - a, a ** 2,
        ]
    for w in elements:
        with pytest.raises(AttributeError):
            w._text  # no element is formatted before it is printed
        text = print_weyl(w)
        assert text == print_weyl(WeylElement(dict(w)))
        assert print_weyl(w) is text
        assert str(w) is text
        assert repr(w) == f"WeylElement({text!r})"
        assert parse_weyl(text) == w


def test_items_ordering():
    w = d + t + t * t * d
    keys = [k for k, _ in w.items()]
    assert keys == sorted(keys, key=lambda ij: (ij[0] + ij[1], ij[1]))


def test_commutator_powers_oracle():
    # [d, t^k] = k t^(k-1), checked through the action as well
    rng = random.Random(414)
    for k in range(1, 6):
        tk = t ** k
        comm = d * tk - tk * d
        assert comm == (t ** (k - 1)) * k
        f = rand_poly(rng)
        assert poly_eq(apply_to_poly(comm, f), apply_to_poly(t ** (k - 1) * k, f))


_ELEMENTS = st.one_of(
    st.sampled_from([WeylElement.zero(), one, t, d]),
    st.fractions(max_denominator=5).map(WeylElement.constant),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.fractions(max_denominator=5)),
        max_size=4,
    ).map(lambda terms: sum((WeylElement.monomial(i, j, c) for i, j, c in terms),
                            WeylElement.zero())),
)


@settings(max_examples=200, deadline=None)
@given(left=_ELEMENTS, right=_ELEMENTS, n=st.integers(-1, 5))
def test_monomial_multiples_match_products(left, right, n):
    got = monomial_multiples(left, n, right)
    want = [left * WeylElement.monomial(a, b) * right for a, b in truncated_monomials(n)]
    assert got == want
    for w in got:
        assert_normal(w)


def assert_normal(w):
    assert all(type(c) is Fraction and c != 0 for c in w._terms.values())


def test_arithmetic_matches_old_product_oracle():
    rng = random.Random(415)
    zero = WeylElement.zero()
    pairs = [(t + d, t - d), (d, zero), (zero, t), (t * d - 3, zero)]
    for _ in range(300):
        a = rand_weyl(rng)
        b = rand_weyl(rng)
        # (a + b)(a - b) = a^2 - b^2 + [b, a]: the commuting parts of the
        # cross terms cancel inside one product
        pairs += [(a, b), (a + b, a - b), (a, b - b)]
    cancelled = 0
    for a, b in pairs:
        got, want = a * b, weyl_mul(a, b)
        assert got == want
        assert hash(got) == hash(want)
        assert_normal(got)
        for w in (a + b, a - b, -a, a + (-a), a + 1, 2 - a):
            assert_normal(w)
        reached = {
            key
            for i, j in a._terms
            for k, l in b._terms
            for key in _mono_mul(i, j, k, l)
        }
        cancelled += len(got._terms) < len(reached)
    assert (t + d) * (t - d) == t * t - d * d + one
    assert cancelled >= 100


def test_constant_factors_match_the_product_oracle():
    # a constant on either side only scales the other factor's coefficients
    rng = random.Random(2718)
    zero = WeylElement.zero()
    scalars = [3, -4, 0, Fraction(2, 7), Fraction(-1, 2), Fraction(0), True, False]
    constants = [WeylElement.constant(c) for c in (1, 3, -2, Fraction(-5, 3))] + [zero]
    elements = [rand_weyl(rng) for _ in range(40)] + [zero, one, t, d, t * d - 3]
    for w in elements:
        for c in scalars:
            for got, want in ((w * c, weyl_mul(w, c)),
                              (c * w, weyl_mul(WeylElement.constant(c), w))):
                assert got == want, (w, c)
                assert_normal(got)
        for c in constants:
            for got, want in ((w * c, weyl_mul(w, c)), (c * w, weyl_mul(c, w))):
                assert got == want, (w, c)
                assert_normal(got)
    assert (t * d - 3) * Fraction(-1, 3) == parse_weyl("-1/3*t*d + 1")
    assert 2 * d == d * WeylElement.constant(2) == parse_weyl("2*d")
    assert (t * False).is_zero() and (WeylElement.constant(0) * t).is_zero()
    assert d * True == d and True * d == d
    with pytest.raises(TypeError):
        t * 1.5
