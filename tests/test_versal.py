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
    representative,
    specialize,
)
from weyldeform.reps import FAMILIES

from conftest import digest, rand_unimodular

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


# specialize before it evaluated its formula entrywise summed a term table
# over the hull generators, d*e1 - s12 - s21 + t*e2: the digests of its
# presentations' stored terms on each family's inputs below, and on the
# identification test's
TERM_TABLE_SHA256 = {
    "T_1_1": "11675c00bd2d7d38161a34004393db27f05d6cea3c06e83159a57ab7a8e1ffa8",
    "T_1_2": "aa4d5a390abc69b1f536966745c0c1237365e7a425efa4530a7f4a1d968634bf",
    "T_2_1": "e5b1b46e0a4d130d6b1cccf05941752f108603f86d5556ba98867aff8db73c12",
    "T_2_2": "dde15438c282d9c126ac3d025b17858aee710066eddb512bd784bac0a1c218e2",
    "T_2_3": "2b43fc9e1c1b542683a2c0a2b5b7ea743c5746036bba346a552c1dc583e0ce06",
    "T_2_4": "220de5cb39e694220196e7740904077ce6011023a3c78f3abeea80637725eb28",
    "T_2_5": "556ea91cff7498b8ab4fa6473b9a9a9e7c055aa33b1b8e533140e62273096ec7",
    "T_2_6": "c308c4d2056008898067c5d66218b761a7b3c669557d8410e382a1efc5794ae1",
    "T_3_1": "b2e12a15d1d44238f690db40daf47521ebf787ecda055e00e7dd5085b97d255e",
    "T_3_2": "8f45b668c129efabafec0dde10c51275288e0c2d00b0289ef6e7df44a80b17eb",
    "T_3_3": "f64ece881b5137b6f54e2e2fdf8ec000f1d1b74bd23a47cdabbbed741fb24752",
    "T_3_4": "3459d506f48a81afe5837cf59a03d7f6a58c1e3c746f880cae2d73fce76dc3f5",
    "T_3_5": "fb161a5baed63b87e13a5e1b6c3489eec59658e7093385f9ba48c2388bca8d02",
    "T_3_6": "772032347bf771227a12454043b00ff50596eca175f10fe98cfa4121693a9ebf",
    "T_3_7": "e5d05a31fe2499564c580902a1e9a16bc454003248cc158da6dc023c18838d26",
    "T_3_8": "f704d5911152bcd77d1b96ed1b14b1c26a5a92382aa5d852e449950630710e81",
    "T_3_9": "fe28a0361d9e76e366e7d9a766a5c53751034ee58aa578db83876b512fe15211",
    "T_3_10": "f61d7cc6391305e9892f21efbc4847dceea8b47f91a59dd28f92f81563a055af",
    "T_3_11": "74545b9b7f81d2751ad6f24c1ea2f18c24b1456e99b5a0001ef7ebbf3e70dbd6",
    "T_3_12": "882717d4e9a4103cadbef0303741a481b6affd400f03be883fd0e8deb4132aab",
    "T_4_1": "0f55fde0f780059583ba9139c1ac0e14ad5ed17297e5f4836428b87f87f1d398",
    "T_4_2": "c77b42ba896cd7cc1c9543ffe9695d71a747c148740de29cf062ca8d5b29902f",
    "T_4_3": "2d38309017900c6645710c36734e8bb37aa6a3392f67a1eb5fe0190bb7d45efb",
    "T_4_4": "2d49cf25dc99ed18d113b51f2e78be0f8d4a444881ddb012dd3db9a32fd5f669",
    "T_4_5": "64c846fd20333848d7ef3a880c833529d3a76563f3fa056aa9680bcb1f46a4a3",
    "T_4_6": "887f0e3cf382d9e555b31e8795e31b63f3980ad9093843780495779dafcb3dd6",
    "T_4_7": "2abf89cca004cfeb093b8fe808665518dc0e6d275588141722ed1aa83e42f961",
    "T_4_8": "42e2c59870f13b5b5756ee2e4c6cda4176ef39a903d9dac681c63b5141cc909c",
    "T_4_9": "ba7d75f97004590bfc63cfba7adcc4d51953d89cef74a7c04aedfa7e28f3ab85",
    "T_4_10": "66c9be63db51c1fbe11bdb6be9827f4fed22824c866eca071c762db07b381c50",
    "T_4_11": "dc99e7fcbedc7a0aeaf4d5949f3551be80ed703755727f30c0635d9ec4b9ca5c",
    "T_4_12": "b52679a0bcd1a211ab872feee55f8a6a2b04172070b064174854827d8d9715b1",
    "T_4_13": "f55b788bf1a5772d99008847d4bbd62982dfd84df77a57624f96f4003d35be54",
    "T_4_14": "08278a39cc3336b7b8778cec9d663672dda47276d5536f161a4ce8d7a7b17adf",
    "T_4_15": "f2c9bc8a26d3783d361ad65fd5d08802c775e12fb01cb7afa56ed17a62f9a091",
    "T_4_16": "dc4058106291079492bcff4b6a6db590f8c8dbfdbf5cd48d18990e3694f5decc",
    "T_4_17": "d6e1f2ba2370c0aea03f80c8c38e6360fa69c55a746bc2f6f71a09c5e7855955",
    "T_4_18": "6cd6ca732d147dfed1548ebd2adcc4da06c1322fd3bc120142e60b0f7416cb16",
    "T_4_19": "bcef7a66b98f376e37c97816fbabff2cf7a6958779299d422891ac2192b8d692",
    "T_4_20": "570544c47241b16892d3883d45ddd23994ccabe6bc55a442e46a1e8489938af4",
    "T_4_21": "e450c5dc02b7858b5a34989b5eef6fb4d453e39c4ccdd22eb314229df329e096",
    "T_4_22": "3807c72341da833f002ce356903c43b0b34c74c1875d6b38345dd6519bb3cf78",
    "T_4_23": "25758038a6ebe97f986abc5f16dd9f4ce7dac5964b0054cea428ad97933cf806",
    "T_4_24": "7ad357d9097b540cb2d424fba8d470a8e88866562ad041950048a6a3b9111022",
    "T_4_25": "6ce509fad59174457b30e1c810476d0dd3841568b838713c747b261e9aad49f0",
    "T_4_26": "8ff4d40e7906ac4d3555b63c964e9feb2ec0cf18061db5af137940cd5a0d0786",
}
CONJUGATED_TERM_TABLE_SHA256 = "a7d22d877965640262d9458fe5e698bda0fe5b6d7275e7a8e6fe7585727e7ed1"


@pytest.mark.parametrize("label", list(FAMILIES))
def test_specialize_matches_term_table(rng, label):
    terms = []
    for rep in listed(label):
        for g in [None] + [rand_unimodular(rng, rep.n) for _ in range(3)]:
            r = rep if g is None else rep.conjugate(g)
            terms.append(stored(specialize(r)))
    assert digest(terms) == TERM_TABLE_SHA256[label]


def test_identification_conjugates_by_the_normal_form_basis(rng):
    terms = []
    for label in FAMILIES:
        rep = listed(label)[0]
        for r in (rep, rep.conjugate(rand_unimodular(rng, rep.n))):
            report = identify_specialization(r)
            terms.append(stored(report.presentation))
            assert report.witness is not None and report.witness.verify()
            if isinstance(report.target, tuple):
                # a direct sum keeps the conjugation witness Delta' -> Delta
                terms.append(stored(report.witness.source))
    assert digest(terms) == CONJUGATED_TERM_TABLE_SHA256


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
