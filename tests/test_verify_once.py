"""Each witness is verified once, where it is handed out.

Builders and compose_iso only build; cyclic_form, iso_witness,
identify_specialization, commutative_specialize and cross_certify verify
the witness they return, once, and raise RuntimeError when it fails.
"""

from fractions import Fraction

import pytest

from test_identify_normal_form import string_rep
from weyldeform import (
    CyclicModule,
    IsoWitness,
    PresentedModule,
    as_presented,
    clear_caches,
    commutative_specialize,
    compose_iso,
    cross_certify,
    cyclic_form,
    identify_specialization,
    iso_witness,
    representative,
    specialize,
)


@pytest.mark.parametrize("v", [1, 2])
def test_identifying_a_string_verifies_once(work, v):
    # the pivot chain composes nine steps; only the last composite is
    # checked, the one test_the_hand_out_point_checks_its_own_witness fails
    report = identify_specialization(string_rep(v, 10))
    assert report.target_kind == "cyclic"
    assert work["modules.verify"] == 1


def test_iso_through_a_cyclic_form_verifies_at_most_twice(work):
    # the presented side's form is read unverified; only the composite
    # handed out is checked (2 when the form was verified on its own too),
    # the one test_the_hand_out_point_checks_its_own_witness fails
    w = iso_witness("t*d*t*d", T_4_20, 0)
    assert w is not None
    assert work["modules.verify"] == 1


def test_compose_iso_only_builds(work):
    w1 = iso_witness(CyclicModule("t*d - 1/2"), CyclicModule("t*d - 3/2"), 8)
    w2 = iso_witness(CyclicModule("t*d - 3/2"), CyclicModule("t*d - 5/2"), 8)
    work.clear()
    comp = compose_iso(w1, w2)
    assert work["modules.verify"] == 0
    assert comp.verify()


HALF = representative("T_2_6", {"a": Fraction(1, 2)})  # one block, conjugated
SUM = representative("T_2_3")  # a direct sum
T_4_20 = specialize(representative("T_4_20"))
HANDED_OUT = {
    "cyclic_form": lambda: cyclic_form(PresentedModule((("d", "-1"), ("0", "t")))),
    "iso_witness": lambda: iso_witness(CyclicModule("t*d"), CyclicModule("t*d - 1"), 8),
    "iso_witness_identity": lambda: iso_witness(CyclicModule("t*d"), CyclicModule("t*d"), 8),
    "identify_conjugated_block": lambda: identify_specialization(HALF),
    "identify_direct_sum": lambda: identify_specialization(SUM),
    "commutative_specialize": lambda: commutative_specialize((1, Fraction(1, 2))),
    "cross_certify": lambda: cross_certify(HALF, (1, Fraction(1, 2))),
}


@pytest.mark.parametrize("call", HANDED_OUT.values(), ids=HANDED_OUT.keys())
def test_a_witness_that_fails_verify_is_never_handed_out(monkeypatch, call):
    clear_caches()
    monkeypatch.setattr(IsoWitness, "verify", lambda self: False)
    with pytest.raises(RuntimeError):
        call()
    clear_caches()


def onto(delta: PresentedModule):
    return lambda w: as_presented(w.target).delta == delta.delta


LAST_STEP = {
    # the composite of the block's witness with the conjugation
    "identify_conjugated_block": (lambda: identify_specialization(HALF), onto(specialize(HALF))),
    # the conjugation of a direct sum
    "identify_direct_sum": (lambda: identify_specialization(SUM), onto(specialize(SUM))),
    "commutative_specialize": (lambda: commutative_specialize((1, Fraction(1, 2))),
                               onto(specialize(HALF))),
    # the only witness with a presented source
    "cross_certify": (lambda: cross_certify(HALF, (1, Fraction(1, 2))),
                      lambda w: isinstance(w.source, PresentedModule)),
    # the pivot chain's witness, read off one elimination
    **{f"identify_string_{v}": (lambda v=v: identify_specialization(string_rep(v, 10)),
                                onto(specialize(string_rep(v, 10)))) for v in (1, 2)},
    # the composite of the cyclic isomorphism with the form's witness
    "iso_through_a_cyclic_form": (lambda: iso_witness("t*d*t*d", T_4_20, 0),
                                  lambda w: w.source == CyclicModule("t*d*t*d")
                                  and onto(T_4_20)(w)),
}


@pytest.mark.parametrize("call, fails", LAST_STEP.values(), ids=LAST_STEP.keys())
def test_the_hand_out_point_checks_its_own_witness(monkeypatch, call, fails):
    # every witness built on the way passes; only the one handed out fails
    real = IsoWitness.verify
    clear_caches()
    monkeypatch.setattr(IsoWitness, "verify", lambda self: real(self) and not fails(self))
    with pytest.raises(RuntimeError):
        call()
    clear_caches()
