"""Cyclic forms by elimination at constant pivots, against the search.

The searches the pivot chain replaced (the annihilator search on every
presentation, the list of every generator's annihilators, the chain
composed bottom up) are pinned by what they found: the inputs where they
found a form, and digests (conftest.digest) of their answers.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from weyldeform import (
    CyclicModule,
    PresentedModule,
    WeylElement,
    as_presented,
    classify,
    clear_caches,
    commutative_specialize,
    cyclic_form,
    identify_specialization,
    iso_witness,
    parse_weyl,
    representative,
    specialize,
)
from weyldeform.modules import (
    _certify_generator,
    _find_cyclic_form,
    _generator_candidates,
    _generator_form,
    _pivot_chain,
    _s_rungs,
    wmat_deg,
)
from weyldeform.weyl import _counting

from conftest import block_decompose, digest

zero = WeylElement.zero()
SAMPLES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2))
GRID = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))


def rand_entry(rng: random.Random) -> WeylElement:
    w = zero
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, 2)
        j = rng.randint(0, 2 - i)
        w = w + WeylElement.monomial(i, j, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return w


def chain_presentation(rng: random.Random, n: int, zero_row: bool) -> PresentedModule:
    """Sparser entries than rand_presentation, n of them forced to nonzero
    constants (two may land on one), and with zero_row one relation set to
    zero, so that delta is not injective."""
    rows = [[rand_entry(rng) if rng.random() < 0.4 else zero for _ in range(n)]
            for _ in range(n)]
    for _ in range(n):
        rows[rng.randrange(n)][rng.randrange(n)] = WeylElement.constant(
            rng.choice((-2, -1, 1, 2, Fraction(1, 2))))
    if zero_row:
        rows[rng.randrange(n)] = [zero] * n
    return PresentedModule(rows)


def rand_presentation(rng: random.Random, n: int) -> PresentedModule:
    """Entries of degree <= 2, some zero, one forced to a nonzero constant."""
    rows = [[rand_entry(rng) if rng.random() < 0.6 else zero for _ in range(n)]
            for _ in range(n)]
    rows[rng.randrange(n)][rng.randrange(n)] = WeylElement.constant(
        rng.choice((-2, -1, 1, 2, Fraction(1, 2))))
    return PresentedModule(rows)


def assert_form(found, m: PresentedModule, cap: int):
    cyc, w = found
    assert w.verify()
    assert as_presented(w.source).delta == ((cyc.p,),)
    assert as_presented(w.target).delta == m.delta
    assert max(wmat_deg(w.r), wmat_deg(w.s)) <= cap


def _representative_blocks():
    for n in (1, 2, 3):
        for fam in classify(n).families:
            values = SAMPLES if fam.parameter else (None,)
            for v in values:
                rep = representative(fam.label, {fam.parameter: v} if fam.parameter else None)
                for _, block in block_decompose(specialize(rep)):
                    yield f"{fam.label} {v}", block


# The annihilator search on every presentation, at cap 8, found a form for
# each of the 57 representative blocks and for every commutative point but
# (0, 0); the digests of the relations it found, None at its misses
SEARCH_FORMS_SHA256 = "00f128d285bc905ae72e88da387cec02e6313cf2ca5d530b8643f8cd1592e8b3"
SEARCH_POINT_MISSES = {(0, 0)}
SEARCH_POINT_FORMS_SHA256 = "6ab8cc331d1a58584d8bdd08c905606a7fb9f7d06a730691d70cc5149fdd19f3"
# the draws, from 0, of test_random_presentations_lose_no_form where that
# search found a form at cap 4
SEARCH_RANDOM_FORMS = {4, 6, 8, 12, 14, 16, 18, 20, 22}


def test_forms_match_the_search_on_representatives():
    blocks = list(_representative_blocks())
    assert len(blocks) == 57
    forms = []
    for key, block in blocks:
        got = cyclic_form(block, 8)
        assert got is not None, key
        assert_form(got, block, 8)
        forms.append(got[0].p)
    assert digest(forms) == SEARCH_FORMS_SHA256


def test_forms_match_the_search_on_commutative_points():
    forms = []
    for alpha in GRID:
        for beta in GRID:
            delta = commutative_specialize((alpha, beta), 8).presentation
            got = cyclic_form(delta, 8)
            if got is not None:
                assert_form(got, delta, 8)
            if (alpha, beta) in SEARCH_POINT_MISSES:
                forms.append(None)
            else:
                assert got is not None, (alpha, beta)
                forms.append(got[0].p)
    assert digest(forms) == SEARCH_POINT_FORMS_SHA256


def test_random_presentations_lose_no_form():
    rng = random.Random(4321)
    for k in range(24):
        m = rand_presentation(rng, 2 + k % 2)
        got = cyclic_form(m, 4)
        if k in SEARCH_RANDOM_FORMS:
            assert got is not None, m
        if got is not None:
            assert_form(got, m, 4)


ROWS0 = (("0", "0", "-3*t^2 + t*d"), ("-t^2", "0", "0"), ("0", "-2", "3*t"))
ROWS1 = (("1", "t^2 - 1", "0"), ("0", "-t^2 + 3/2*t", "3*t^2 - 2*t*d"),
         ("0", "0", "-1/2*t^2 + 1/2*t"))


@pytest.mark.parametrize("rows, composed, form", [
    pytest.param(ROWS0, True, "-3*t^4 + t^3*d", id="rows0"),
    pytest.param(ROWS1, False, "t^4 - 5/2*t^3 + 3/2*t^2", id="rows1"),
])
def test_residual_miss_falls_back_to_the_search(rows, composed, form):
    # rows0: the residual has a form, and composing it with the step raises
    # the degree of s to 5, past the cap 4; the cap bounds searches, never
    # a built witness, so that composite is the answer.  rows1: the
    # residual has no form within degree 4, so m itself is searched.  form
    # is the relation the annihilator search on every presentation found.
    m = PresentedModule(rows)
    residual, _ = _pivot_chain(m, 4, 1)
    found = cyclic_form(residual, 4)
    got = cyclic_form(m, 4)
    assert got[0].p == parse_weyl(form)
    if composed:
        assert found is not None and found[0] == got[0]
        assert got[1].verify() and wmat_deg(got[1].s) > 4
    else:
        assert found is None
        assert_form(got, m, 4)


def nth_presentation(seed: int, draw: int) -> PresentedModule:
    """The draw-th presentation (from 1) of test_random_presentations_lose_no_form's
    sequence under another seed."""
    rng = random.Random(seed)
    for k in range(draw):
        m = rand_presentation(rng, 2 + k % 2)
    return m


@pytest.mark.parametrize("delta, word, caps", [
    pytest.param(specialize(representative("T_4_20")), "t*d*t*d", (0, 1, 2), id="T_4_20"),
    pytest.param(specialize(representative("T_4_24")), "d*t*d*t", (0, 1, 2), id="T_4_24"),
    pytest.param(specialize(representative("T_3_6")), "t*d*t", (0, 1), id="T_3_6"),
    pytest.param(nth_presentation(99, 24), None, (4,), id="Random(99)-24"),
])
def test_chain_witness_is_kept_past_the_cap(delta, word, caps):
    # the chain's witness has degree above each cap; a search at these caps
    # finds none, so the form is certified only because it is kept
    for cap in caps:
        cyc, w = cyclic_form(delta, cap)
        if word is not None:
            assert cyc.p == parse_weyl(word)
        assert w.verify()
        assert as_presented(w.source).delta == ((cyc.p,),)
        assert as_presented(w.target).delta == delta.delta
        assert max(wmat_deg(w.r), wmat_deg(w.s)) > cap


def test_iso_to_a_specialization_past_the_cap():
    delta = specialize(representative("T_4_20"))
    w = iso_witness(CyclicModule("t*d*t*d"), delta, 0)
    assert w is not None and w.verify()
    assert as_presented(w.target).delta == delta.delta


@pytest.mark.parametrize("field", ["r", "s", "u", "v", "c_a", "c_b"])
def test_verify_rejects_a_changed_entry(field):
    # the chain's witness for T_4_20 has 1 x 4 r and 4 x 1 s
    _, w = cyclic_form(specialize(representative("T_4_20")), 2)
    assert w.verify()
    mat = getattr(w, field)
    for i, row in enumerate(mat):
        for j in range(len(row)):
            for delta in (WeylElement.one(), WeylElement.t()):
                changed = tuple(
                    tuple(y + delta if (k, l) == (i, j) else y for l, y in enumerate(r))
                    for k, r in enumerate(mat))
                assert not dataclasses.replace(w, **{field: changed}).verify(), (i, j)


def schur_pivot(delta):
    """Last column holding a nonzero constant, first such row in it."""
    n = len(delta)
    for j in reversed(range(n)):
        for i in range(n):
            if delta[i][j].degree() == 0:
                return i, j


# the digest of the six 2 x 2 steps below when the chain composed one
# pivot's witness with the scaling witness of the last relation, last
STEP_CHAIN_SHA256 = "820777902890f71bbd296901f524712380f65fe26d94ab1e82493e49081151e2"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_step_witness_eliminates_the_pivot(n):
    rng = random.Random(77 + n)
    steps = []
    for _ in range(6):
        m = rand_presentation(rng, n)
        i, j = schur_pivot(m.delta)
        c = m.delta[i][j].coeff(0, 0)
        _, step = _pivot_chain(m, 8, 1)
        assert step.verify()
        assert as_presented(step.target).delta == m.delta
        want = tuple(
            tuple(m.delta[l][k] - m.delta[l][j] * m.delta[i][k] * (1 / c)
                  for k in range(n) if k != j)
            for l in range(n) if l != i
        )
        if n == 2:
            # the pivot leaves one generator, whose relation the pass scales
            # to monic: the step is the one-pivot witness with the scaling
            # witness composed last
            steps.append(step)
            want = as_presented(CyclicModule(want[0][0])).delta
        assert as_presented(step.source).delta == want
        assert step.c_a == tuple((zero,) * (n - 1) for _ in range(n - 1))
        assert [(x, y) for x in range(n) for y in range(n) if step.c_b[x][y]] == [(j, i)]
    if n == 2:
        assert digest(steps) == STEP_CHAIN_SHA256


def test_step_keeps_the_first_generator():
    m = PresentedModule((("d", "2", "-1"), ("1", "t", "0"), ("0", "t*d", "d")))
    _, step = _pivot_chain(m, 8, 1)
    # columns are scanned from the last: e2 goes, by relation 0
    assert step.source.delta == (
        (parse_weyl("1"), parse_weyl("t")),
        (parse_weyl("d^2"), parse_weyl("t*d + 2*d")),
    )
    assert _pivot_chain(PresentedModule((("d", "t"), ("t", "d"))), 8, 1)[1] is None


@pytest.mark.parametrize("label, word", [("T_4_20", "t*d*t*d"), ("T_4_24", "d*t*d*t")])
def test_chain_specializations_have_alternating_forms(label, word):
    delta = specialize(representative(label))
    found = cyclic_form(delta, 8)
    assert found is not None and found[0].p == parse_weyl(word)
    assert_form(found, delta, 8)
    # identification reads the same word off the string (1, 4) or (2, 4)
    report = identify_specialization(representative(label))
    assert report.identified and report.target.p == parse_weyl(word)
    assert report.witness.verify()


def triangular_presentation(rng: random.Random) -> PresentedModule:
    """[[a, c], [0, b]] with entries of degree <= 2, c often zero, and no
    constant term: no pivot step applies, so cyclic_form goes straight to
    the search."""
    def entry(more: float) -> WeylElement:
        w = zero
        while w.is_zero() or rng.random() < more:
            i, j = rng.choice(((1, 0), (0, 1), (1, 1)))
            w = w + WeylElement.monomial(i, j, Fraction(rng.choice((-2, -1, 1, 2, 3))))
            more = 0.3
        return w

    corner = entry(0.5) if rng.random() < 0.6 else zero
    return PresentedModule(((entry(0.3), corner), (zero, entry(0.3))))


def _search_cases():
    """Seeded presentations where cyclic_form falls back to the search."""
    rng = random.Random(4)
    for k in range(4):
        yield f"triangular-{k + 1}", triangular_presentation(rng)
    yield "[t*d d; t d*t]", PresentedModule((("t*d", "d"), ("t", "d*t")))


def _byte_cases():
    for seed in (1, 2):
        rng = random.Random(seed)
        for k in range(6):
            yield f"Random({seed}) 2x2-{k + 1}", rand_presentation(rng, 2)
    # the list search stopped at its attempt cap here, at cap 6
    yield "Random(2)-12", nth_presentation(2, 12)
    yield from _search_cases()


# The list search, which tried up to six annihilators of every short
# generator and stopped at 60 attempts, at caps 2, 4 and 6 on _byte_cases:
# the digest of its answers, None where it found no form, and the one
# input where it found none and the one-annihilator search finds one
LIST_SEARCH_SHA256 = "c422565420ae1accb8a0b2f1457820c1e7e6626b5be7ae718fe07f9d234bd67d"
LIST_SEARCH_GAINS = {("Random(2)-12", 6)}


def test_one_annihilator_keeps_the_parent_bytes():
    # one annihilator per generator drops only attempts that cannot pass,
    # in the list search's order, so its first success is the list's
    positives = gained = 0
    answers = []
    for key, m in _byte_cases():
        for cap in (2, 4, 6):
            got = cyclic_form(m, cap)
            if (key, cap) in LIST_SEARCH_GAINS:
                # past the list search's attempt cap, a new form must verify
                assert got is not None, (key, cap)
                assert_form(got, m, cap)
                gained += 1
                got = None
            positives += got is not None
            answers.append(got)
    assert digest(answers) == LIST_SEARCH_SHA256
    # 12 of the 30 come from the search; the gain is Random(2)-12 at cap 6
    assert (positives, gained) == (30, 1)


# The annihilators the list search certified on _search_cases at cap 4, by
# case and generator index: each was the first of its list and of lower
# degree than the rest, and its 24 tries of a later candidate certified none
LIST_SEARCH_CERTIFIED = {
    ("triangular-1", 2): "t^2*d - 2*t^2",
    ("triangular-1", 3): "t^2*d - 2*t^2",
    ("triangular-1", 6): "t^2*d - 2*t^2 - t",
    ("triangular-1", 7): "t^2*d - 2*t^2",
    ("triangular-2", 0): "t^2*d",
    ("triangular-2", 3): "t^2*d",
    ("triangular-2", 5): "t^2*d",
    ("triangular-3", 5): "t^2",
    ("triangular-3", 7): "t^2",
    ("triangular-4", 4): "t^2*d^2",
    ("triangular-4", 6): "t^2*d^2",
    ("[t*d d; t d*t]", 0): "t^2*d^2 + 2*t*d - 1",
    ("[t*d d; t d*t]", 1): "t^2*d^2 - 1",
    ("[t*d d; t d*t]", 5): "t^2*d^2 + 2*t*d - 1",
    ("[t*d d; t d*t]", 6): "t^2*d^2 - 1",
}


def test_only_the_lowest_annihilator_certifies():
    # a certificate through g makes ann(g) = Dp, whose elements of degree
    # deg p are the multiples of p: so only the lowest annihilator, alone
    # at its degree, can pass, and it is the one _generator_form certifies
    cap = 4
    cases = dict(_search_cases())
    for (key, gi), p in LIST_SEARCH_CERTIFIED.items():
        m = cases[key]
        g = _generator_candidates(m)[gi]
        form = _generator_form(m, g, cap)
        assert form is not None and form[0] == CyclicModule(p), (key, gi)
        assert any(_certify_generator(form[0], m, g, form[1], sd, cap) is not None
                   for sd in _s_rungs(cap)), (key, gi)


def rows1_under_a_unit_pivot() -> PresentedModule:
    """ROWS1 as the residual of one more step: the chain runs two steps,
    its bottom has no form within degree 4, and ROWS1's own search finds
    one, which the first step's witness carries up."""
    r3, f = ("t", "0", "d"), ("d", "0", "t")
    rows = [tuple(f"{ROWS1[l][k]} + ({f[l]})*({r3[k]})" for k in range(3)) + (f[l],)
            for l in range(3)]
    return PresentedModule(rows + [r3 + ("1",)])


def seeded_chains() -> list[tuple[str, PresentedModule]]:
    """Twelve seeded chain_presentations of dimension 2-5, every third
    with a zero row."""
    rng = random.Random(5)
    return [(f"chain {k + 1}", chain_presentation(rng, 2 + k % 4, k % 3 == 2))
            for k in range(12)]


# The chain composed bottom up, each level's residual form composed with
# its one-pivot step, on the cases and seeded chains below: the digest of
# cyclic_form's answers, and of (bottom, chain witness) when the one-pivot
# witnesses were composed from the top
BOTTOM_UP_FORMS_SHA256 = "44edf7d3c51345e339f56d0ae92c8ae7620c715f6a921188fb3c0f16163119d9"
STEP_CHAINS_SHA256 = "64c7182694862fb7e38040289dc94de1a4871f849f07373779a659d370397ae8"


def test_top_down_chain_keeps_the_bottom_up_bytes():
    # one Gauss-Jordan pass writes down the product of the one-pivot
    # witnesses, so it builds the bottom-up witness exactly, also where a
    # search ends the chain; the seeded chains of dimension 2-5 add inputs
    # with a zero row, and inputs whose bottom residual has no form
    middle = rows1_under_a_unit_pivot()
    assert _pivot_chain(middle, 4, 1)[0] == PresentedModule(ROWS1)
    cases = [("rows0", PresentedModule(ROWS0)), ("rows1", PresentedModule(ROWS1)),
             ("rows1 under a unit pivot", middle),
             ("Random(99)-24", nth_presentation(99, 24)), *_search_cases()]
    seeded = seeded_chains()
    clear_caches()
    got = [cyclic_form(m, 4) for _, m in cases + seeded]
    clear_caches()
    for (key, _), g in zip(cases, got):
        assert g is not None, key
    assert digest(got) == BOTTOM_UP_FORMS_SHA256
    chains, pivoted = [], []
    for key, m in cases + seeded:
        bottom, chain = _pivot_chain(m, 4)
        chains.append((bottom, chain))
        if chain is not None:
            pivoted.append(key)
    assert digest(chains) == STEP_CHAINS_SHA256
    # every seeded chain pivots, and where its form is None the bottom
    # residual, and each level above it, has none
    assert pivoted[-len(seeded):] == [key for key, _ in seeded]
    assert [g is not None for g in got[len(cases):]].count(True) == 2


def test_positive_rank_builds_no_system():
    # a zero row is a missing relation and a zero column a generator no
    # relation touches: the module has rank >= 1, and D/Dp has rank 0
    cases = [(key, m) for key, m in seeded_chains() if not all(map(any, m.delta))]
    cases.append(("[t 0; d 0]", PresentedModule((("t", "0"), ("d", "0")))))
    # no zero row or column, but the chain's bottom has both
    cases.append(("[1 t; 1 t]", PresentedModule((("1", "t"), ("1", "t")))))
    assert len(cases) == 7
    for key, m in cases:
        for call in (lambda: cyclic_form(m, 4), lambda: iso_witness(CyclicModule("t"), m, 4)):
            clear_caches()
            with _counting() as work:
                assert call() is None, key
            assert work["modules.system"] == 0, key
        # the search's own verdict is a proof, False; cyclic_form reports
        # it as None, like a bounded miss
        assert _find_cyclic_form(m, 4) is False, key
    clear_caches()


def test_iso_witness_builds_one_chain_per_side(work):
    # the target's chain ends at [0], of rank 1: iso_witness reads that
    # verdict from the search instead of building the chain again
    target = PresentedModule((("1", "t"), ("1", "t")))
    assert iso_witness(CyclicModule("t"), target, 4) is None
    assert work["modules.pivot_chain"] == 1
