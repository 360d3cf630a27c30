"""A cold identification does each pass once.

Delta' is read off the normal form's invariants, not multiplied out; a
split e1 is not eigen-split again; one block's witness is verified only
as the composite handed out; cross_certify composes equal targets
directly.  The routes these replaced, Delta' multiplied out and the
quiver form by four full products, are pinned by the digests
(conftest.digest) of their answers.
"""

import json
import random
from fractions import Fraction

import pytest

import weyldeform
from weyldeform import (
    QMatrix,
    Representation,
    clear_caches,
    commutative_specialize,
    compose_iso,
    cross_certify,
    identify_specialization,
    iso_witness,
    quiver_form,
    representative,
)
from weyldeform import modules
from weyldeform.cli import _witness_json
from weyldeform.reps import _conjugated_blocks, _eigenbasis
from weyldeform.versal import _form_delta

from conftest import digest, rand_invertible, rand_unimodular
from test_identify_normal_form import SAMPLES, factor_rep, listed_inputs, rand_block_rep, string_rep
from test_normal_form_flag import BROKEN_TRIPLES


def triples():
    """(key, representation): the listed representatives at every sample,
    random sums and their unimodular conjugates, strings and factors."""
    out = [(key, rep) for key, rep, _ in listed_inputs()]
    rng = random.Random(4201)
    for n in range(2, 17):
        rep = rand_block_rep(rng, n)
        out += [(f"random {n}", rep), (f"conjugated {n}", rep.conjugate(rand_unimodular(rng, n)))]
    out += [(f"string {v},{length}", string_rep(v, length))
            for v in (1, 2) for length in (1, 2, 3, 5, 8, 13)]
    out += [(f"factor {f}", factor_rep(f))
            for f in ((1,), (-2,), (1, 2), (1, 0, -1), (1, 2, 0, -1, 3))]
    return out


TRIPLES = triples()


def is_split(e1: QMatrix) -> bool:
    """Whether e1 is diag(1, ..., 1, 0, ..., 0)."""
    p = sum(1 for i in range(e1.nrows) if e1[i, i] == 1)
    return e1 == QMatrix([[int(i == j < p) for j in range(e1.ncols)] for i in range(e1.nrows)])


# Delta' multiplied out, the specialized differential of g^-1 x g for the
# normal form's basis g, on TRIPLES; the quiver form by the eigenbasis of
# every e1 and the full products binv*s12*basis and binv*s21*basis, on
# the split TRIPLES and on the conjugates below: the digests of their
# answers (the four products gave None on each of BROKEN_TRIPLES)
PRODUCT_DELTA_SHA256 = "9f7edc6a8bd842042dcc698f0f8525e9fc6f40d8b1a2b755999d238baf62e4b1"
SPLIT_FORMS_SHA256 = "42f015267efdea816664682763ee798f0b7831dd3422d27445190523b2c26c8f"
CONJUGATE_FORMS_SHA256 = "48be65d731af89d078b6ed1bd12877cdd53dca776dc6c3c8aabe99dd59a9bd0a"


def test_delta_prime_from_the_invariants_is_the_product():
    deltas = [_form_delta(weyldeform.normal_form(rep)) for _, rep in TRIPLES]
    assert digest(deltas) == PRODUCT_DELTA_SHA256


def test_split_route_gives_the_eigenbasis_quiver_form():
    split = [(key, rep) for key, rep in TRIPLES if is_split(rep.e1)]
    # every representative, string and factor, and the sums whose strings
    # happen to list vertex 1 first
    assert len(split) > len(list(listed_inputs()))
    assert len(split) == 137
    for key, rep in split:
        assert quiver_form(rep).basis == QMatrix.identity(rep.n), key
    assert digest([quiver_form(rep) for _, rep in split]) == SPLIT_FORMS_SHA256


def test_block_reads_match_the_four_products():
    # every e1 of dimension 1 is split, so the conjugates start at 2
    rng = random.Random(4202)
    forms = []
    for n in range(2, 9):
        rep = rand_block_rep(rng, n)
        for g in (rand_unimodular(rng, n), rand_invertible(rng, n)):
            conj = rep.conjugate(g)
            form = quiver_form(conj)
            assert not is_split(conj.e1)
            p, basis, binv = _eigenbasis(conj.e1)
            assert _conjugated_blocks(conj, p, basis, binv) == (form.a, form.b), n
            forms.append(form)
    assert digest(forms) == CONJUGATE_FORMS_SHA256
    for key, triple in BROKEN_TRIPLES.items():
        rep = Representation(*triple)
        split = _eigenbasis(rep.e1)
        if split is not None:
            assert _conjugated_blocks(rep, *split) is None, key


def test_cold_identification_work(work):
    # the parent made 2 verify calls, 11 eliminations and 13 products
    report = identify_specialization(representative("T_2_6", {"a": Fraction(1, 2)}))
    assert report.target_kind == "cyclic"
    # an elimination is one forward pass, which every exit of the kernel runs
    assert work["modules.verify"] == 1
    assert work["linalg.echelon"] <= 5
    assert work["linalg.qmatrix_mul"] <= 3


def test_cold_string_identification_composes_once(work):
    # the chain's witness, the last relation's scaling included, is read
    # off one elimination and composed with nothing: 59 compositions and
    # 480 products when each pivot's witness was composed into the chain's,
    # and 1 and 16 when the scaling witness was composed last
    report = identify_specialization(string_rep(1, 60), 0)
    assert report.identified
    # the 8 products verify the witness once
    assert (work["modules.compose"], work["modules.verify"]) == (0, 1)
    assert work["modules.wmat_mul"] <= 8


def test_cold_cross_certify_verifies_three_times(work):
    # one per identification and one for the composite: 5 at the parent
    w = cross_certify(representative("T_2_6", {"a": Fraction(1, 2)}), (1, Fraction(1, 2)))
    assert w is not None
    assert work["modules.verify"] == 3


@pytest.mark.parametrize("a", SAMPLES, ids=str)
def test_cross_certify_keeps_the_bytes_through_the_identity(a):
    rep = representative("T_2_6", {"a": a})
    for alpha in (Fraction(1), Fraction(-2)):
        point = (alpha, a / alpha)
        r1, r2 = identify_specialization(rep), commutative_specialize(point)
        assert r1.target == r2.target
        mid = modules._identity_witness(r1.target, r2.target, r1.max_degree)
        want = compose_iso(r1.witness.reversed(), compose_iso(mid, r2.witness))
        got = cross_certify(rep, point)
        assert json.dumps(_witness_json(got)) == json.dumps(_witness_json(want)), (a, alpha)


def test_iso_witness_refuses_bad_caps():
    clear_caches()
    assert iso_witness("t*d - 1", "t*d - 2", 8) is not None
    for _ in range(2):
        for bad in (-1, 17, True):
            with pytest.raises(ValueError):
                iso_witness("t*d - 1", "t*d - 2", bad)
    clear_caches()
