"""Normal forms modulo Dq, and the Hom and Ext^1 answers read off them.

``normal_forms`` is checked against its defining properties by plain
multiplication and exact division.  ``hom_search`` and ``ext1_dim`` are
checked against the windowed span computations they replaced, by the
digests (conftest.digest) of those computations' answers: dims, bases,
representatives and stabilization must agree exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weyldeform import WeylElement, divide_left, ext1_dim, hom_search, parse_weyl
from weyldeform.modules import clear_caches
from weyldeform.weyl import _counting, leading_term, monomial_multiples, normal_forms, truncated_monomials

from conftest import digest
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


def _answers(p, q, cap) -> list:
    """Hom's dims, basis and stabilization, then Ext^1's dims,
    representatives and stabilization."""
    hom, ext1 = hom_search(p, q, cap), ext1_dim(p, q, cap)
    return [hom.dims, hom.basis, hom.stabilized_at(),
            ext1.dims, ext1.representatives, ext1.stabilized_at]


# The digests of _answers as the windowed spans gave them: Hom by the
# (r, u) kernel of p*r = u*q and two truncated spans, Ext^1 by one span
# over every p- and q-multiple in the window.  Every pair of constant
# relations below has the same answers at a cap.
RANDOM_WINDOWED_SHA256 = "808609fde541f86c7556b83284d1ff679e0f7b00843ee15162a88459b0542be8"
CONSTANT_WINDOWED_SHA256 = {
    0: "8334e2be10e12734a6658c7c75858409c46cfef76fbc5bf7e19996efb9982a18",
    1: "df15607b6b6021496e84fb0e0d1e8ff0cc7d19cbfca319e49f5ea4ac70d99544",
    4: "3298e201576389f18f112df0dd4f5066c1a3ad6c6479d10a35cf3c96b630bfc2",
}


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
    answers = [_answers(_rand_relation(rng), _rand_relation(rng), rng.randint(0, 9))
               for _ in range(120)]
    assert digest(answers) == RANDOM_WINDOWED_SHA256


@pytest.mark.parametrize("p, q", [
    ("3", "t*d - 1"), ("t*d - 1", "-2/3"), ("5", "7"), ("1", "d"), ("t", "1"),
])
@pytest.mark.parametrize("cap", [0, 1, 4])
def test_constant_relations_match_the_windowed_spans(p, q, cap):
    assert digest(_answers(parse_weyl(p), parse_weyl(q), cap)) == CONSTANT_WINDOWED_SHA256[cap]


# the windowed spans' digests for the two tests below, by (p, q, cap)
WINDOWED_SHA256 = {
    ("t*d", "t^3*d^2 - t", 2):
        "3dc1002ebce177a991a657ef82f5a7322ab266ce84a7c7fdadee18eeee29f6a3",
    ("d^2 - 1", "t^2*d^2 + d", 3):
        "251c97bbe400e1574b3661a61bbd0f91a7e46be3bd271ef8770bf0fd04b5f39f",
    ("t", "d^5 + t^2", 4):
        "fd0cebb77d9a5628e9ae957c309397443e2644d3ba75d830bb45c196916b1920",
    ("t^4 - d", "t*d^3", 1):
        "dbbfe018f9c8d0021ddde4802ea31fd1b6ea7f825d5497fc7fa907ea969af3a0",
    ("t*d - 2", "d", 12):
        "99b3099277f53e45963a71a60f211733a3620a5953b3e85f3f28606ad09512ef",
    ("t^2 - 1/2", "d^2", 12):
        "674359b58a603776eb599b96f216a7022f93861ef9c65c5d23238d9bac2f691b",
    ("t^2*d + 3", "d", 12):
        "d3abc4e592c2db5cfb5272095966afd03e942eb7b3a49dd1af428041a5addab7",
    ("t*d^2 - 2/3", "d", 12):
        "73f28806a97d3366e195c58d6e06e3ccf86b0f6c5a5818617e2e92e76b8c8578",
    ("t*d + 3/2", "d^2", 14):
        "7948f133e350ff30e2ee93a680603cebe6b4bbfefd36c517856e0b2716a6314e",
    ("d^2 - 1/3", "t", 12):
        "6acc26120154abc0bfb3e5171a6c267a8d99aed0fd00587bc7192cc7687bb53c",
    ("d^2 + 2", "t*d", 14):
        "5f48aab33c5b52ce2c431f48a7121000d72069d378e165a334118acbada8d504",
    ("t*d - 5/2", "d", 16):
        "36a9e65beeab8feae58bc33e1aec7d6b1767b8e5367189835f0fe6225af7c006",
    ("t*d + 1", "t*d + 1 - 1", 12):
        "812e68428fec3b90a16971f09a9f85d9097f33bf999032eb845343e0fb97eef7",
    ("t", "t*d - 3", 14):
        "c529f8edf9d14f9cb08d6bfc55f1ffa5969900183897b4b80151518810460be3",
    ("t*d - 1/2", "t*d - 1/2 - 1", 16):
        "1e9f7ddf074a87c01d15c4e4dcaa7669361456d80aa0e7f2e7816b0c843b0173",
    ("d^2 + 1/3", "d", 12):
        "73f28806a97d3366e195c58d6e06e3ccf86b0f6c5a5818617e2e92e76b8c8578",
    ("t*d^2 + (3/4)*d^2 + (-2/5)*t*d + (5/7)*d + (-7/3)", "d", 12):
        "73f28806a97d3366e195c58d6e06e3ccf86b0f6c5a5818617e2e92e76b8c8578",
    ("t*d^2 + (-7/3)*d^2 + (4/9)*t*d + (-5/6)*d + (7/4)", "d", 12):
        "73f28806a97d3366e195c58d6e06e3ccf86b0f6c5a5818617e2e92e76b8c8578",
    (DENSE, "d", 12):
        "73f28806a97d3366e195c58d6e06e3ccf86b0f6c5a5818617e2e92e76b8c8578",
    ("t*d - 1/2", DENSE, 10):
        "2892f1465a07ae274bd3128ad0dd43149bff2193ba6729715e2fa1cf2636e463",
    (TALL, "d", 12):
        "e6a7285252ab057deb10611a5899f04f282afc701719e7c5e0904871791da668",
    ("d^2 - 1", TALL, 8):
        "29b8668c93b47c69dd1b7309ab568f097227ed29128edfbc2aa8506e8dbb2a61",
    (NON_UNIT, "t*d + 1", 12):
        "240294618c3247919fadc3045a2136d6d83a6b4b827a70de5978af31377f9810",
    ("t", NON_UNIT, 10):
        "3b0bd208e8b681d67d577b3822e0b07b73a7ed9b71a931919715b698368420c7",
}


@pytest.mark.parametrize("p, q, cap", [
    ("t*d", "t^3*d^2 - t", 2),
    ("d^2 - 1", "t^2*d^2 + d", 3),
    ("t", "d^5 + t^2", 4),
    ("t^4 - d", "t*d^3", 1),
])
def test_targets_above_the_cap_match_the_windowed_spans(p, q, cap):
    assert digest(_answers(parse_weyl(p), parse_weyl(q), cap)) == WINDOWED_SHA256[p, q, cap]


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
    assert digest(_answers(parse_weyl(p), parse_weyl(q), cap)) == WINDOWED_SHA256[p, q, cap]


def test_cold_ext1_and_hom_stay_over_the_integers():
    # Ext^1 reads only pivots, so it makes no back-substitution, and so
    # divides no row by its pivot (rref_rows's last step, which only
    # follows one); neither search builds a normal form in Fractions
    clear_caches()
    try:
        with _counting() as work:
            assert ext1_dim("t^2*d - 3/2", "d", 12).dim == 1
        assert work["linalg.back_substitute"] == work["weyl.normal_forms"] == 0
        with _counting() as work:
            assert hom_search("t*d - 3", "t*d - 4", 12).dim == 1
        assert work["weyl.normal_forms"] == 0 and work["linalg.back_substitute"] > 0
    finally:
        clear_caches()
