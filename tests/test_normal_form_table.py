"""One normal-form table per q, kept across calls.

The normal form of a monomial modulo Dq depends on q alone, so each q
keeps one table of reduced monomials (``weyl._normal_form_table``, keyed
by the integer multiple of q, so scalar multiples of q share it) until
``clear_caches()``.  A normal form is unique and stored in lowest terms,
so no answer may depend on which call filled the table first: the same
queries give the same answers in order, in reverse order and from empty
caches.  A second Ext^1 against a q already reduced over its window
builds no multiple of q.
"""

import random
from fractions import Fraction

from weyldeform import (
    WeylElement,
    clear_caches,
    ext1_dim,
    ext_table,
    hom_search,
    iso_witness,
    parse_weyl,
    weyl,
)
from weyldeform.weyl import normal_forms

_SMALL = ("1", "2", "3", "-2", "-3", "1/2", "-1/2", "3/2", "-3/2", "5/2", "1/3", "-2/3")

# (kind, source template, target template, cap), shaped like the
# benchmark's high-degree Ext^1 and Hom queries; targets repeat across
# sources, so later calls read what earlier ones reduced
_TEMPLATES = (
    ("ext1", "t*d - {c}", "d", 12),
    ("ext1", "t^2 - {c}", "d^2", 12),
    ("ext1", "t^2*d - {c}", "d", 12),
    ("ext1", "t*d^2 - {c}", "d", 14),
    ("ext1", "t*d - {c}", "d^2", 14),
    ("ext1", "d^2 - {c}", "t", 12),
    ("ext1", "d^2 - {c}", "t*d", 14),
    ("ext1", "t*d - {c}", "d", 16),
    ("hom", "t*d - {c}", "t*d - {c} - 1", 12),
    ("hom", "t^2 - {c}", "d^2", 12),
    ("hom", "t", "t*d - {c}", 14),
    ("hom", "t*d - {c}", "t*d - {c} - 1", 16),
    ("hom", "d^2 - {c}", "d", 12),
    ("ext1", "t", "t*d - {c}", 12),
    ("iso", "t*d - {c}", "t*d - {c} - 1", 6),
    ("iso", "t*d - {c} - 1", "t*d - {c}", 6),
)


def _queries(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    out = []
    for kind, src, tgt, cap in _TEMPLATES:
        c = f"({rng.choice(_SMALL)})"
        out.append((kind, parse_weyl(src.format(c=c)), parse_weyl(tgt.format(c=c)), cap))
    # normal forms against q and two of its scalar multiples, which share
    # one table
    q = parse_weyl("t*d^2 + 3/4*d^2 - 2/5*t*d + 5/7*d - 7/3")
    xs = [WeylElement({(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for i, j in rng.sample(weyl.truncated_monomials(8), 5)})
          for _ in range(6)]
    for scale in (1, 3, Fraction(-2, 5)):
        out.append(("nf", xs, q * scale, 12))
    out.append(("nf", xs, parse_weyl("d^2 - 2"), 12))
    rng.shuffle(out)
    return out


def _answer(query):
    kind, a, b, cap = query
    if kind == "ext1":
        r = ext1_dim(a, b, cap)
        return r.dims, r.representatives, r.stabilized_at
    if kind == "hom":
        r = hom_search(a, b, cap)
        return r.dims, r.basis
    if kind == "iso":
        w = iso_witness(a, b, cap)
        return None if w is None else (w.r, w.s, w.u, w.v, w.c_a, w.c_b)
    return [list(nf) for nf in normal_forms(a, b, cap)]


def _table_size() -> int:
    return weyl._normal_form_table.cache_info().currsize


def test_answers_do_not_depend_on_which_call_filled_the_table():
    queries = _queries(54)
    clear_caches()
    forward = [_answer(q) for q in queries]
    assert _table_size() > 0
    clear_caches()
    assert _table_size() == 0
    backward = [_answer(q) for q in reversed(queries)][::-1]
    cold = []
    for q in queries:
        clear_caches()
        cold.append(_answer(q))
    clear_caches()
    assert _table_size() == 0
    assert forward == backward == cold
    assert any(w is not None for (kind, *_), w in zip(queries, forward) if kind == "iso")


def test_scalar_multiples_of_q_share_one_table():
    q = parse_weyl("t*d^2 - 2/3*d + 5")
    xs = [parse_weyl("t^3*d^4 - 1/2*t*d^2"), parse_weyl("d^5 + t")]
    clear_caches()
    try:
        first = normal_forms(xs, q, 9)
        assert normal_forms(xs, q * Fraction(-7, 3), 9) == first
        assert normal_forms(xs, 6 * q, 9) == first
        assert _table_size() == 1
    finally:
        clear_caches()
    assert _table_size() == 0


def test_a_reduced_q_builds_no_multiple_again(work):
    # weyl.q_multiples counts each step d^(b+1)*q and each shifted multiple
    # t^a d^b * q that a table builds
    mods = ["d", "t", "t*d - 1/2", "d^2 - 2"]
    cold = ext_table(mods, 12)
    assert work["weyl.q_multiples"] == 86
    # new sources against targets reduced over the same window: no
    # multiple of q built (rebuilding q's side on every call built 660
    # for ext_table, then 43 and 72 here)
    assert ext1_dim("t*d + 3", "d^2 - 2", 12).dim == 2
    assert ext1_dim("t*d", "t*d - 1/2", 12).dim == 0
    assert work["weyl.q_multiples"] == 86
    clear_caches()
    work.clear()
    assert ext_table(mods, 12) == cold
    assert work["weyl.q_multiples"] == 86
