"""Classification of modules over the pointed algebra, with orbit fuzz."""

import random
from fractions import Fraction

import pytest

from weyldeform import (
    QMatrix,
    RelationViolation,
    Representation,
    UnsupportedDimensionError,
    are_conjugate,
    classify,
    find_proper_submodule,
    intertwiners,
    is_indecomposable,
    is_simple,
    match_label,
    quiver_form,
    representative,
    validate,
)

from conftest import frozen_family, rand_invertible

ALL_LABELS_3 = [
    "T_1_1", "T_1_2",
    "T_2_1", "T_2_2", "T_2_3", "T_2_4", "T_2_5", "T_2_6",
    "T_3_1", "T_3_2", "T_3_3", "T_3_4", "T_3_5", "T_3_6", "T_3_7",
    "T_3_8", "T_3_9", "T_3_10", "T_3_11", "T_3_12",
]

PARAM_NAMES = {"T_2_6": "a", "T_3_7": "b", "T_3_12": "c"}

SAMPLES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def rep_for(label, value=Fraction(1)):
    name = PARAM_NAMES.get(label)
    return representative(label, {name: value} if name else None)


def test_validate_accepts_table():
    for label in ALL_LABELS_3:
        for value in SAMPLES:
            validate(rep_for(label, value))


def test_validate_reports_violations():
    one = QMatrix([[1]])
    zero = QMatrix([[0]])
    with pytest.raises(RelationViolation) as info:
        validate(Representation(one, one, zero))
    names = [name for name, _ in info.value.violations]
    assert names == ["S12^2 = 0", "S12*E1 = 0"]


def test_validate_rejects_non_idempotent():
    bad = Representation(QMatrix([[2]]), QMatrix([[0]]), QMatrix([[0]]))
    with pytest.raises(RelationViolation) as info:
        validate(bad)
    assert any(name == "E1^2 = E1" for name, _ in info.value.violations)


def test_table_matches_frozen_matrices():
    for label in ("T_1_1", "T_1_2", "T_2_1", "T_2_2", "T_2_3", "T_2_4",
                  "T_2_5", "T_2_6", "T_3_3", "T_3_4", "T_3_5", "T_3_6",
                  "T_3_7", "T_3_9", "T_3_10", "T_3_11", "T_3_12"):
        for value in (Fraction(1), Fraction(5, 3)):
            dims, e1, s12, s21 = frozen_family(label, value)
            rep = rep_for(label, value)
            assert rep.e1 == QMatrix([list(r) for r in e1]), label
            assert rep.s12 == QMatrix([list(r) for r in s12]), label
            assert rep.s21 == QMatrix([list(r) for r in s21]), label
            form = quiver_form(rep)
            assert form.dims == dims, label


def test_identity_families_full_and_zero():
    assert rep_for("T_3_2").e1 == QMatrix.identity(3)
    assert rep_for("T_3_1").e1 == QMatrix.zeros(3, 3)
    assert rep_for("T_3_8").e1 == QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_representative_validates_parameters():
    with pytest.raises(KeyError):
        representative("T_9_9")
    with pytest.raises(ValueError):
        representative("T_2_6")
    with pytest.raises(ValueError):
        representative("T_2_6", {"a": 0})


def test_quiver_form_reconstructs_after_conjugation():
    rng = random.Random(818)
    for label in ("T_2_6", "T_3_7", "T_3_11", "T_3_12"):
        rep = rep_for(label, Fraction(1, 2))
        for _ in range(20):
            g = rand_invertible(rng, rep.n)
            conj = rep.conjugate(g)
            form = quiver_form(conj)
            base = quiver_form(rep)
            assert form.dims == base.dims
            # the trace of the block product is a conjugation invariant
            trace = lambda m: sum(m[(i, i)] for i in range(m.shape[0]))
            assert trace(form.a * form.b) == trace(base.a * base.b)


def test_match_label_on_orbit():
    rng = random.Random(819)
    for label in ALL_LABELS_3:
        name = PARAM_NAMES.get(label)
        for value in SAMPLES:
            rep = rep_for(label, value)
            for _ in range(8):
                g = rand_invertible(rng, rep.n)
                got_label, got_param = match_label(rep.conjugate(g))
                assert got_label == label
                if name:
                    assert got_param == value
                else:
                    assert got_param is None


def test_match_label_refuses_large_dims():
    with pytest.raises(UnsupportedDimensionError):
        match_label(representative("T_4_1"))


def test_conjugacy_orbit_invariance():
    rng = random.Random(820)
    for label in ALL_LABELS_3:
        rep = rep_for(label, Fraction(2))
        for _ in range(100):
            g = rand_invertible(rng, rep.n)
            conj = rep.conjugate(g)
            witness = are_conjugate(rep, conj)
            assert witness is not None
            ginv = witness.inverse()
            assert ginv is not None
            assert witness * rep.e1 * ginv == conj.e1
            assert witness * rep.s12 * ginv == conj.s12
            assert witness * rep.s21 * ginv == conj.s21


def test_conjugator_is_deterministic():
    rep = rep_for("T_3_3")
    conj = rep.conjugate(QMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 2]]))
    first = are_conjugate(rep, conj)
    second = are_conjugate(rep, conj)
    assert first is not None
    assert first == second
    assert rep.conjugate(first).triple() == conj.triple()


def test_distinct_families_not_conjugate():
    reps = {label: rep_for(label) for label in ALL_LABELS_3}
    labels = list(reps)
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            if reps[la].n != reps[lb].n:
                continue
            assert are_conjugate(reps[la], reps[lb]) is None, (la, lb)


def test_parametric_samples_not_conjugate():
    for label in ("T_2_6", "T_3_7", "T_3_12"):
        for i, v1 in enumerate(SAMPLES):
            for v2 in SAMPLES[i + 1:]:
                r1 = rep_for(label, v1)
                r2 = rep_for(label, v2)
                assert are_conjugate(r1, r2) is None, (label, v1, v2)


def test_classify_counts():
    c1 = classify(1)
    assert len(c1.families) == 2
    assert c1.parametric == ()
    assert c1.exact

    c2 = classify(2)
    assert len(c2.discrete) == 5
    assert c2.parametric == ("T_2_6",)
    assert c2.exact

    c3 = classify(3)
    assert len(c3.discrete) == 10
    assert c3.parametric == ("T_3_7", "T_3_12")
    assert c3.exact


def test_classify_labels_in_table_order():
    c2 = classify(2)
    assert [f.label for f in c2.families] == [
        "T_2_1", "T_2_2", "T_2_3", "T_2_4", "T_2_5", "T_2_6",
    ]


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify(0)
    with pytest.raises(UnsupportedDimensionError):
        classify(5)
    with pytest.raises(ValueError):
        classify(2, parameter_samples=[0])


def test_simplicity_sets():
    c1 = classify(1)
    assert [f.label for f in c1.families if f.simple] == ["T_1_1", "T_1_2"]
    c2 = classify(2)
    assert [f.label for f in c2.families if f.simple] == ["T_2_6"]
    c3 = classify(3)
    assert [f.label for f in c3.families if f.simple] == []


def test_simple_agrees_with_submodule_search():
    for label in ALL_LABELS_3:
        for value in SAMPLES:
            rep = rep_for(label, value)
            sub = find_proper_submodule(rep)
            assert is_simple(rep) == (sub is None), (label, value)
            if sub is not None:
                mat = QMatrix([list(v) for v in sub])
                assert 0 < mat.rank() < rep.n


def test_endomorphisms_of_simple_are_scalar():
    for value in SAMPLES:
        rep = rep_for("T_2_6", value)
        endos = intertwiners(rep, rep)
        assert len(endos) == 1


def test_intertwiners_between_distinct_simples():
    assert intertwiners(rep_for("T_1_1"), rep_for("T_1_2")) == []


def test_decompositions():
    c2 = classify(2)
    by_label = {f.label: f for f in c2.families}
    assert by_label["T_2_1"].decomposition == ("T_1_2", "T_1_2")
    assert by_label["T_2_2"].decomposition == ("T_1_1", "T_1_1")
    assert by_label["T_2_3"].decomposition == ("T_1_1", "T_1_2")
    assert by_label["T_2_6"].decomposition is None
    assert by_label["T_2_6"].indecomposable

    c3 = classify(3)
    by_label = {f.label: f for f in c3.families}
    assert by_label["T_3_9"].decomposition == ("T_1_1", "T_2_4")
    assert by_label["T_3_7"].decomposition == ("T_2_6(b)", "T_1_2")
    assert by_label["T_3_11"].indecomposable
    assert by_label["T_3_12"].decomposition == ("T_1_1", "T_2_6(c)")


def test_indecomposable_iff_no_decomposition_listed():
    for n in (1, 2, 3):
        for fam in classify(n).families:
            assert fam.indecomposable == (fam.decomposition is None)


def test_dimension_four_best_effort():
    c4 = classify(4)
    assert not c4.exact
    assert len(c4.families) == 26
    assert any("best-effort" in note for note in c4.notes)
    indec = {f.label for f in c4.families if f.indecomposable}
    assert indec == {"T_4_20", "T_4_24", "T_4_25"}
    assert not any(f.simple for f in c4.families)


def test_completeness_random_quiver_reps():
    # build arbitrary valid reps from random blocks and match them
    rng = random.Random(821)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        q = n - p
        a_rows = [[Fraction(rng.randint(-2, 2)) for _ in range(q)] for _ in range(p)]
        b_rows = [[Fraction(rng.randint(-2, 2)) for _ in range(p)] for _ in range(q)]
        e1 = QMatrix([
            [1 if (i == j and i < p) else 0 for j in range(n)] for i in range(n)
        ])
        s12 = QMatrix([
            [a_rows[i][j - p] if (i < p and j >= p) else 0 for j in range(n)]
            for i in range(n)
        ])
        s21 = QMatrix([
            [b_rows[i - p][j] if (i >= p and j < p) else 0 for j in range(n)]
            for i in range(n)
        ])
        rep = Representation(e1, s12, s21)
        validate(rep)
        g = rand_invertible(rng, n)
        scrambled = rep.conjugate(g)
        label, param = match_label(scrambled)
        canonical = representative(
            label, None if param is None else {PARAM_NAMES[label]: param}
        )
        assert are_conjugate(scrambled, canonical) is not None


def test_conjugate_requires_invertible():
    rep = rep_for("T_2_6")
    with pytest.raises(ValueError):
        rep.conjugate(QMatrix([[1, 2], [2, 4]]))


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        Representation([], [], [])


def test_direct_sum_builder():
    rep = rep_for("T_1_1").direct_sum(rep_for("T_1_2"))
    validate(rep)
    assert rep.n == 2
    assert match_label(rep) == ("T_2_3", None)


def test_representation_equality_and_repr():
    a = rep_for("T_2_6", Fraction(1, 2))
    b = rep_for("T_2_6", Fraction(1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert "T_2_6" in repr(a)
