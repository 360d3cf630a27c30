"""Specialization of the differential and certified identification."""

from fractions import Fraction

import pytest

import weyldeform.versal
from weyldeform import (
    CommutativePoint,
    CyclicModule,
    PresentedModule,
    RelationViolation,
    Representation,
    QMatrix,
    WeylElement,
    as_presented,
    commutative_specialize,
    cross_certify,
    identify_specialization,
    iso_witness,
    normal_form,
    representative,
    specialize,
)
from weyldeform.reps import FAMILIES

from conftest import rand_unimodular, term_table_specialize

t = WeylElement.t()
d = WeylElement.d()
one = WeylElement.one()


_SAMPLES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3", "5/3"))


def listed(label):
    """The family's representative, at every sample if it has a parameter."""
    spec = FAMILIES[label]
    if spec.parameter is None:
        return [representative(label)]
    return [representative(label, {spec.parameter: a}) for a in _SAMPLES]


def stored(pres):
    """Entries' terms in storage order, which equality alone ignores."""
    return [[list(e) for e in row] for row in pres.delta]


@pytest.mark.parametrize("label", list(FAMILIES))
def test_specialize_matches_term_table(rng, label):
    for rep in listed(label):
        for g in [None] + [rand_unimodular(rng, rep.n) for _ in range(3)]:
            r = rep if g is None else rep.conjugate(g)
            got, want = specialize(r), term_table_specialize(r)
            assert got == want
            assert stored(got) == stored(want)


def test_identification_conjugates_by_the_normal_form_basis(rng):
    for label in FAMILIES:
        rep = listed(label)[0]
        for r in (rep, rep.conjugate(rand_unimodular(rng, rep.n))):
            report = identify_specialization(r)
            assert stored(report.presentation) == stored(term_table_specialize(r))
            assert report.witness is not None and report.witness.verify()
            if isinstance(report.target, tuple):
                # a direct sum keeps the conjugation witness Delta' -> Delta
                g = normal_form(r).basis
                want = term_table_specialize(r.conjugate(g.inverse()))
                assert stored(report.witness.source) == stored(want)


def test_specialize_one_dimensional():
    assert specialize(representative("T_1_1")).delta == ((d,),)
    assert specialize(representative("T_1_2")).delta == ((t,),)


def test_specialize_coupled_family():
    pres = specialize(representative("T_2_6", {"a": Fraction(3)}))
    assert pres.delta == ((d, -one * 3), (-one, t))
    pres = specialize(representative("T_2_6", {"a": Fraction(-1, 2)}))
    assert pres.delta == ((d, one * Fraction(1, 2)), (-one, t))


def test_specialize_respects_direct_sums():
    summed = representative("T_1_1").direct_sum(representative("T_1_2"))
    pres = specialize(summed)
    assert pres.delta == ((d, WeylElement.zero()), (WeylElement.zero(), t))

    pieces = specialize(representative("T_1_1")), specialize(representative("T_1_2"))
    assert pres.delta[0][0] == pieces[0].delta[0][0]
    assert pres.delta[1][1] == pieces[1].delta[0][0]


def test_specialize_validates_input():
    bad = Representation(QMatrix([[1]]), QMatrix([[1]]), QMatrix([[0]]))
    with pytest.raises(RelationViolation):
        specialize(bad)


def test_identify_basic_modules():
    report = identify_specialization(representative("T_1_1"))
    assert report.identified
    assert report.alias == "M1"
    assert report.target == CyclicModule("d")
    assert report.witness.verify()

    report = identify_specialization(representative("T_1_2"))
    assert report.alias == "M2"
    assert report.target == CyclicModule("t")


def test_identify_minus_one_lands_on_dt():
    report = identify_specialization(representative("T_2_6", {"a": Fraction(-1)}))
    assert report.identified
    assert report.target_kind == "cyclic"
    # d*t in normal form is t*d + 1
    assert report.target.p == t * d + one
    assert report.witness.verify()


def test_identify_half_integer_keeps_parameter():
    report = identify_specialization(representative("T_2_6", {"a": Fraction(1, 2)}))
    assert report.identified
    assert report.shift == 0
    assert report.target.p == t * d - one * Fraction(1, 2)
    assert report.witness.verify()


def test_identify_integer_points_stay_on_shift_family():
    # the exact computation identifies a = 1 with t*d - 1 itself
    report = identify_specialization(representative("T_2_6", {"a": Fraction(1)}))
    assert report.identified
    assert report.alias is None
    assert report.shift == 0
    assert report.target.p == t * d - one

    report = identify_specialization(representative("T_2_6", {"a": Fraction(-2)}))
    assert report.identified
    # the target is read off the invariant factor x + 2 of AB, not shifted
    # onto d*t = t*d + 1, which is isomorphic but not the normal form's
    assert report.shift == 0
    assert report.target.p == t * d + one * 2


def test_identify_direct_sum_blockwise():
    report = identify_specialization(representative("T_3_7", {"b": Fraction(2)}))
    assert report.identified
    assert report.target_kind == "direct_sum"
    # summands in normal-form order: the strings, then the invariant factors
    sub_targets = [s.target.p for s in report.target]
    assert sub_targets == [t, t * d - one * 2]
    assert [s.alias for s in report.target] == ["M2", None]
    assert report.witness.verify()

    report = identify_specialization(representative("T_2_3"))
    assert report.target_kind == "direct_sum"
    for block in report.target:
        assert block.witness.verify()
        assert isinstance(block.witness.target, PresentedModule)


def test_report_messages():
    report = identify_specialization(representative("T_1_1"))
    assert "M1" in report.message
    report = identify_specialization(representative("T_2_6", {"a": Fraction(1, 2)}))
    assert "t*d - 1/2" in report.message


def test_commutative_origin_splits():
    report = commutative_specialize((0, 0))
    assert report.identified
    assert report.target_kind == "direct_sum"
    assert [s.alias for s in report.target] == ["M1", "M2"]
    assert report.point == CommutativePoint(0, 0)


def test_commutative_axis_points():
    report = commutative_specialize((1, 0))
    assert report.identified
    assert report.target.p == t * d + one

    report = commutative_specialize((0, 1))
    assert report.identified
    assert report.target.p == t * d


def test_commutative_interior_points():
    report = commutative_specialize((1, 1))
    assert report.identified
    assert report.target.p == t * d - one
    report = commutative_specialize((2, 1))
    assert report.identified
    assert report.target.p == t * d - one * 2
    assert report.presentation.delta == ((d, -one), (-one * 2, t))


def test_commutative_accepts_point_objects():
    report = commutative_specialize(CommutativePoint(Fraction(1, 2), 1))
    assert report.identified
    assert report.target.p == t * d - one * Fraction(1, 2)


def test_cross_certification():
    w = cross_certify(representative("T_2_6", {"a": Fraction(1)}), (1, 1))
    assert w is not None
    assert w.verify()
    direct = specialize(representative("T_2_6", {"a": Fraction(1)}))
    assert as_presented(w.source).delta == direct.delta

    w = cross_certify(representative("T_2_6", {"a": Fraction(2)}), (2, 1))
    assert w is not None
    assert w.verify()


def test_cross_certification_mismatch_is_none():
    assert cross_certify(representative("T_1_1"), (1, 1)) is None
    # the origin splits as M1 + M2, so it has no cyclic target
    assert cross_certify(representative("T_2_6", {"a": Fraction(1, 2)}), (0, 0)) is None


def test_cross_certification_searches_between_distinct_targets(monkeypatch):
    rep = representative("T_2_6", {"a": Fraction(1, 2)})
    searched = []

    def recorded(source, target, max_degree):
        searched.append((source.p, target.p))
        return iso_witness(source, target, max_degree)

    monkeypatch.setattr(weyldeform.versal, "iso_witness", recorded)
    w = cross_certify(rep, (2, Fraction(-1, 4)))
    assert searched == [(t * d - Fraction(1, 2), t * d + Fraction(1, 2))]
    assert w is not None and w.verify()
    assert as_presented(w.source).delta == specialize(rep).delta


def test_witness_past_the_cap_is_identified():
    # the coupled generator needs a witness of degree 1, which the pivot
    # chain builds whatever the cap; the cap is only recorded
    report = commutative_specialize((1, 1), max_degree=0)
    assert report.identified
    assert report.target.p == t * d - one
    assert report.message == "certified isomorphic to D/D(t*d - 1)"
    assert report.witness.verify()
    assert report.max_degree == 0


# A fixed grid for the isomorphism planner: specializations of T_2_6 and
# commutative points against the basic modules and a few shifts t*d - c.
_GRID_A = (Fraction(1), Fraction(2), Fraction(-2), Fraction(1, 2))
_GRID_POINTS = ((Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(1)))
_GRID_SHIFTS = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(3, 2))
# pairs (presentation key, c) that the earlier shape-dispatching search
# already certified at degree 8; none may be lost
_GRID_EARLIER_POSITIVES = {
    (("a", Fraction(1)), 0), (("a", Fraction(1)), 1),
    (("a", Fraction(2)), 1), (("a", Fraction(2)), 2),
    (("a", Fraction(-2)), -2), (("a", Fraction(1, 2)), Fraction(1, 2)),
    (("point", (Fraction(1, 2), Fraction(1))), Fraction(1, 2)),
}


def _grid_presentations():
    out = {("a", a): specialize(representative("T_2_6", {"a": a})) for a in _GRID_A}
    for point in _GRID_POINTS:
        out[("point", point)] = commutative_specialize(point).presentation
    return out


@pytest.fixture(scope="module")
def planner_grid():
    candidates = [CyclicModule(p) for p in ("d", "t", "d*t")]
    candidates += [CyclicModule(t * d - c) for c in _GRID_SHIFTS]
    table = {}
    for key, delta in _grid_presentations().items():
        for cand in candidates:
            table[key, cand.p] = (iso_witness(cand, delta, 8), iso_witness(delta, cand, 8))
    return table


def test_planner_is_symmetric_and_verified(planner_grid):
    for forward, backward in planner_grid.values():
        assert (forward is None) == (backward is None)
        for w in (forward, backward):
            assert w is None or w.verify()
    found = {pair for pair, (w, _) in planner_grid.items() if w is not None}
    assert {(key, t * d - c) for key, c in _GRID_EARLIER_POSITIVES} <= found
    # the a = -2 point is D/D(t*d + 1) = D/D(d*t)
    assert (("a", Fraction(-2)), t * d + one) in found


def test_planner_agrees_with_identification():
    reports = [identify_specialization(representative("T_2_6", {"a": a})) for a in _GRID_A]
    reports += [commutative_specialize(point) for point in _GRID_POINTS]
    for report in reports:
        assert report.target_kind == "cyclic"
        w = iso_witness(report.target, report.presentation, 8)
        assert w is not None and w.verify()
