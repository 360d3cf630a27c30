"""Specializations identified from the quiver normal form, against oracles.

The candidate-list route this one replaced (M1, M2, D/D(d*t) and the
shifts of t*d tried block by block) is pinned by the inputs where it
identified nothing and a digest (conftest.digest) of its targets; the
rule from normal-form invariants to targets is recomputed here from the
invariants alone.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import block_decompose, digest, rand_unimodular
from weyldeform import (
    CyclicModule,
    PresentedModule,
    QMatrix,
    Representation,
    WeylElement,
    as_presented,
    clear_caches,
    commutative_specialize,
    cyclic_form,
    identify_specialization,
    iso_witness,
    normal_form,
    print_weyl,
    representative,
    specialize,
)
from weyldeform.cli import _witness_json
from weyldeform.reps import FAMILIES, _rep_from_blocks
from weyldeform.weyl import _counting

t = WeylElement.t()
d = WeylElement.d()
one = WeylElement.one()

SAMPLES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3", "5/3"))
GRID = tuple(Fraction(x) for x in ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3"))


def listed_inputs():
    """(key, representation, parameter) for every listed representative at
    every sample, dimensions 1 to 4."""
    for label, spec in FAMILIES.items():
        for v in SAMPLES if spec.parameter else (None,):
            rep = representative(label, {spec.parameter: v} if spec.parameter else None)
            yield f"{label} {v}", rep, v


def rule_target(form, k: int) -> WeylElement:
    """The alternating word of a string, or f(t*d) for an invariant factor."""
    if k < len(form.strings):
        v, length = form.strings[k]
        word = [d if (v + i) % 2 else t for i in range(length)]
        p = one
        for letter in word:
            p = letter * p
        return CyclicModule(p).p
    f = form.factors[k - len(form.strings)]
    return CyclicModule(sum(((t * d) ** i * c for i, c in enumerate(f)), WeylElement.zero())).p


def leaves(report) -> list:
    """The cyclic sub-reports of a report, in order."""
    if report.target_kind == "direct_sum":
        return list(report.target)
    return [report] if report.target_kind == "cyclic" else []


def assert_chain(report):
    """Every witness verifies and the chain ends at the presentation."""
    assert report.identified, report.message
    if report.target_kind == "cyclic":
        w = report.witness
        assert w.verify()
        assert as_presented(w.source).delta == ((report.target.p,),)
        assert as_presented(w.target).delta == report.presentation.delta
        return
    conj = report.witness
    assert conj.verify()
    assert as_presented(conj.target).delta == report.presentation.delta
    blocks = [sub for _, sub in block_decompose(as_presented(conj.source))]
    assert sorted(map(repr, blocks)) == sorted(repr(s.presentation) for s in report.target)
    for sub in report.target:
        assert sub.target_kind == "cyclic"
        assert_chain(sub)


def test_every_representative_is_identified_with_a_verified_chain():
    for key, rep, _ in listed_inputs():
        report = identify_specialization(rep, 8)
        assert report.presentation == specialize(rep), key
        assert_chain(report)


def test_commutative_grid_is_identified_with_a_verified_chain():
    for alpha in GRID:
        for beta in GRID:
            report = commutative_specialize((alpha, beta), 8)
            assert_chain(report)


def test_rule_target_equals_the_pivot_form_on_every_block():
    for key, rep, _ in listed_inputs():
        form = normal_form(rep)
        delta_nf = specialize(rep.conjugate(form.basis.inverse())).delta
        for k, idx in enumerate(form.blocks()):
            block = PresentedModule([[delta_nf[i][j] for j in idx] for i in idx])
            cyc, _ = cyclic_form(block, 8)
            assert cyc.p == rule_target(form, k), (key, k)
        targets = [leaf.target.p for leaf in leaves(identify_specialization(rep, 8))]
        assert targets == [rule_target(form, k) for k in range(len(form.blocks()))], key


def link(a: CyclicModule, b: CyclicModule) -> bool:
    w = iso_witness(a, b, 8)
    return w is not None and w.verify()


# The candidate-list route at cap 8 on the inputs below: the ones it did
# not identify (at caps 0, 1 and 2 it missed the same ones), the digest of
# each identified input's sorted target relations, and each of its targets
# that equals none of the normal form's, with the target it links to
CANDIDATE_MISSES = {
    "T_2_4 None", "T_3_4 None", "T_3_6 None", "T_3_9 None", "T_3_11 None",
    "T_4_4 None", "T_4_6 None", "T_4_9 None", "T_4_11 None", "T_4_14 None",
    "T_4_15 None", "T_4_17 None", "T_4_18 None", "T_4_19 None", "T_4_20 None",
    "T_4_22 1/2", "T_4_22 -1/2", "T_4_22 1/3", "T_4_22 5/3", "T_4_24 None",
    *(f"T_4_25 {v}" for v in SAMPLES),
}
CANDIDATE_TARGETS_SHA256 = "bb61f06eb4e21e3d47c4c47c11ec5768de16e1453bf08e5ab58879870642679b"
CANDIDATE_LINKS = [
    ("T_2_6 -2", "t*d + 1", "t*d + 2"), ("T_3_7 -2", "t*d + 1", "t*d + 2"),
    ("T_3_12 -2", "t*d + 1", "t*d + 2"), ("T_4_7 -2", "t*d + 1", "t*d + 2"),
    ("T_4_12 -2", "t*d + 1", "t*d + 2"), ("T_4_21 -2", "t*d + 1", "t*d + 2"),
    ("T_4_22 1", "t*d - 1", "t*d"), ("T_4_22 2", "t*d - 2", "t*d"),
    ("T_4_22 -2", "t*d + 1", "t*d + 2"), ("T_4_22 3", "t*d - 3", "t*d"),
    ("T_4_26 -2", "t*d + 1", "t*d + 2"), ("T_4_26 -2", "t*d + 1", "t*d + 2"),
    ("point 1,-2", "t*d + 1", "t*d + 2"), ("point -1,2", "t*d + 1", "t*d + 2"),
    ("point -1,3", "t*d + 1", "t*d + 3"), ("point 2,-1", "t*d + 1", "t*d + 2"),
    ("point 2,-2", "t*d + 1", "t*d + 4"), ("point -2,1", "t*d + 1", "t*d + 2"),
    ("point -2,2", "t*d + 1", "t*d + 4"), ("point -2,3", "t*d + 1", "t*d + 6"),
    ("point 3,-1", "t*d + 1", "t*d + 3"), ("point 3,-2", "t*d + 1", "t*d + 6"),
]


def test_oracle_targets_link_to_the_normal_form_targets():
    inputs = [(key, identify_specialization(rep, 8)) for key, rep, _ in listed_inputs()]
    for alpha in GRID:
        for beta in GRID:
            inputs.append((f"point {alpha},{beta}", commutative_specialize((alpha, beta), 8)))
    assert CANDIDATE_MISSES <= {key for key, _ in inputs}
    links: dict = {}
    for key, old, new in CANDIDATE_LINKS:
        links.setdefault(key, []).append((CyclicModule(old), CyclicModule(new)))
    targets = []
    for key, report in inputs:
        if key in CANDIDATE_MISSES:
            continue
        # the oracle's targets: the normal form's, each linked one swapped
        # back for the oracle's own after a cap-8 witness links the two
        old = [leaf.target for leaf in leaves(report)]
        for target, match in links.pop(key, []):
            assert match in old and link(target, match), (key, target)
            old[old.index(match)] = target
        targets.append([key, sorted(print_weyl(c.p) for c in old)])
    assert not links
    assert digest(targets) == CANDIDATE_TARGETS_SHA256


def conjugates(rep: Representation, rng: random.Random, count: int):
    for _ in range(count):
        yield rep.conjugate(rand_unimodular(rng, rep.n))


def target_bytes(report) -> tuple:
    """Targets and message; a direct sum adds its normal-form blocks."""
    out = (report.target_kind, report.message, tuple(repr(leaf.target) for leaf in leaves(report)))
    if report.target_kind == "direct_sum":
        out += (repr(report.witness.source), tuple(repr(s.presentation) for s in report.target))
    return out


def test_unimodular_conjugates_get_the_same_target():
    rng = random.Random(20261018)
    for key, rep, v in listed_inputs():
        if v not in (None, Fraction(2), Fraction(-1, 2)):
            continue
        want = target_bytes(identify_specialization(rep, 8))
        for conj in conjugates(rep, rng, 3):
            conj.params.update(rep.params)
            report = identify_specialization(conj, 8)
            assert target_bytes(report) == want, key
            assert_chain(report)


def test_commutative_presentation_is_the_rank_one_specialization():
    for alpha in GRID:
        for beta in GRID:
            rep = Representation(
                QMatrix([[1, 0], [0, 0]]),
                QMatrix([[0, alpha], [0, 0]]),
                QMatrix([[0, 0], [beta, 0]]),
            )
            report = commutative_specialize((alpha, beta))
            assert report.presentation == specialize(rep)
            assert report.presentation.delta == (
                (d, -one * beta), (-one * alpha, t))


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_low_caps_lose_no_positive_of_the_candidate_route(cap):
    for key, rep, v in listed_inputs():
        if rep.n > 3:
            continue
        if key not in CANDIDATE_MISSES:
            assert identify_specialization(rep, cap).identified, (key, cap)
    for alpha in GRID[:5]:
        for beta in GRID[:5]:
            # the candidate route identified every one of these points
            assert commutative_specialize((alpha, beta), cap).identified


def test_witness_past_the_cap_is_certified():
    # the string (1, 4) needs s of degree 3, which the pivot chain builds
    # at any cap
    for cap in (0, 2, 3):
        report = identify_specialization(representative("T_4_20"), cap)
        assert report.identified, cap
        assert report.target.p == CyclicModule(t * d * t * d).p, cap
        assert report.witness.verify(), cap


def string_rep(v: int, length: int) -> Representation:
    """The string (v, length): a T-chain x_0, ..., x_(length-1) from vertex v."""
    side = [(v - 1 + i) % 2 for i in range(length)]
    pos = [side[:i].count(side[i]) for i in range(length)]
    p = side.count(0)
    a = [[0] * (length - p) for _ in range(p)]
    b = [[0] * p for _ in range(length - p)]
    for i in range(length - 1):
        if side[i]:
            a[pos[i + 1]][pos[i]] = 1
        else:
            b[pos[i + 1]][pos[i]] = 1
    return _rep_from_blocks(p, length - p, a, b)


def factor_rep(f) -> Representation:
    """One invariant factor: A = I and B the companion matrix of the monic
    polynomial with lower coefficients f, constant term first."""
    k = len(f)
    a = [[int(i == j) for j in range(k)] for i in range(k)]
    b = [[int(i == j + 1) - (f[i] if j == k - 1 else 0) for j in range(k)] for i in range(k)]
    return _rep_from_blocks(k, k, a, b)


def rand_block_rep(rng: random.Random, n: int) -> Representation:
    """A direct sum of random strings and invariant factors, dimension n."""
    rep = None
    while n:
        if n > 1 and rng.random() < 0.5:
            k = rng.randint(1, min(3, n // 2))
            f = [rng.choice((-2, -1, 1, 2))] + [rng.randint(-2, 2) for _ in range(k - 1)]
            piece = factor_rep(f)
        else:
            piece = string_rep(rng.randint(1, 2), rng.randint(1, min(6, n)))
        rep = piece if rep is None else rep.direct_sum(piece)
        n -= piece.n
    return rep


def past_the_cap_inputs() -> list[tuple[str, Representation]]:
    """Long strings, two factors of degree 5 and 6, and seeded conjugated
    sums of dimensions 5 to 12."""
    rng = random.Random(20261019)
    inputs = [(f"string {v},{length}", string_rep(v, length))
              for v in (1, 2) for length in (10, 13, 17, 30)]
    inputs += [(f"factor {f}", factor_rep(f)) for f in ((1, 2, 0, -1, 3), (2, -1, 0, 1, 1, -3))]
    for n in range(5, 13):
        rep = rand_block_rep(rng, n)
        inputs.append((f"random {n}", rep.conjugate(rand_unimodular(rng, n))))
    return inputs


# sha256 of the canonical JSON of every past-the-cap input's (strings,
# factors, basis), computed with the normal form on Fraction entries,
# before it ran on integers
PAST_THE_CAP_SHA256 = "e8b113ec023eabd1199dffaf2953f038d8567be66c4a4125094d0f34cd42a103"


def test_past_the_cap_normal_forms_keep_their_bytes():
    clear_caches()
    forms = [normal_form(rep) for _, rep in past_the_cap_inputs()]
    clear_caches()
    text = json.dumps([[form.strings, [[str(x) for x in f] for f in form.factors],
                        [[str(x) for x in row] for row in form.basis.to_rows()]] for form in forms],
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PAST_THE_CAP_SHA256


def test_identification_past_the_cap_matches_the_rule():
    inputs = past_the_cap_inputs()
    forms = [normal_form(rep) for _, rep in inputs]
    assert [form.strings for form in forms[:8]] == [
        ((v, length),) for v in (1, 2) for length in (10, 13, 17, 30)]
    assert [len(form.factors[0]) for form in forms[8:10]] == [6, 7]
    # cap 0 first: a search past the cap gives up there within a second,
    # where at cap 8 it can run for a minute
    for cap in (0, 8):
        for (key, rep), form in zip(inputs, forms):
            report = identify_specialization(rep, cap)
            assert report.identified, (key, cap)
            assert report.witness.verify(), (key, cap)
            targets = [leaf.target.p for leaf in leaves(report)]
            assert targets == [rule_target(form, k) for k in range(len(form.blocks()))], (key, cap)


def witness_bytes(report) -> list[str]:
    """The JSON of the report's witness and of each block's."""
    subs = list(report.target) if report.target_kind == "direct_sum" else []
    return [json.dumps(_witness_json(r.witness)) for r in [report] + subs]


# the digest of the witness bytes below when the pivot chain was composed
# bottom up, each level's residual form composed with its one-pivot step
BOTTOM_UP_WITNESSES_SHA256 = "51469099ed73a58063247a2d8152e847e1e0d3a5c1d036a689b0388b81c66cdb"


def test_top_down_chain_keeps_the_bottom_up_bytes():
    rng = random.Random(37)
    inputs = [(f"string {v},{length}", string_rep(v, length))
              for v in (1, 2) for length in (1, 2, 3, 5, 8, 13, 21, 30)]
    inputs += [(key, rep) for key, rep, _ in listed_inputs()]
    for n in range(1, 9):
        rep = rand_block_rep(rng, n)
        inputs.append((f"random {n}", rep.conjugate(rand_unimodular(rng, n))))
    clear_caches()
    got = [witness_bytes(identify_specialization(rep, 0)) for _, rep in inputs]
    clear_caches()
    assert digest(got) == BOTTOM_UP_WITNESSES_SHA256


def test_cold_string_identification_work():
    # composed from the top, each step is a rank-one update of c_b and
    # constant factors only scale: the bottom-up chain made 23,891 products
    clear_caches()
    with _counting() as work:
        report = identify_specialization(string_rep(1, 30), 0)
    clear_caches()
    assert report.target.p == rule_target(normal_form(string_rep(1, 30)), 0)
    assert work["weyl.mul"] <= 16_000
