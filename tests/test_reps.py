"""Classification of modules over the pointed algebra, with orbit fuzz."""

import random
import time
from fractions import Fraction

import pytest

import weyldeform.reps
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
    normal_form,
    quiver_form,
    rank,
    representative,
    validate,
)

from conftest import (
    burnside_is_simple,
    coupling_decomposition,
    frozen_family,
    grid_are_conjugate,
    rand_invertible,
    rand_unimodular,
    table_match_quiver,
)

ALL_LABELS_3 = [
    "T_1_1", "T_1_2",
    "T_2_1", "T_2_2", "T_2_3", "T_2_4", "T_2_5", "T_2_6",
    "T_3_1", "T_3_2", "T_3_3", "T_3_4", "T_3_5", "T_3_6", "T_3_7",
    "T_3_8", "T_3_9", "T_3_10", "T_3_11", "T_3_12",
]

LABELS_4 = [f"T_4_{k}" for k in range(1, 27)]

PARAM_NAMES = {"T_2_6": "a", "T_3_7": "b", "T_3_12": "c",
               **{f"T_4_{k}": "e" for k in (7, 12, 21, 22, 25, 26)}}

SAMPLES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))

G4 = QMatrix([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 1, 2]])


def rep_for(label, value=Fraction(1)):
    name = PARAM_NAMES.get(label)
    return representative(label, {name: value} if name else None)


def listed_reps(labels):
    """Every listed representative, parametric ones at every sample."""
    for label in labels:
        for value in SAMPLES if label in PARAM_NAMES else (None,):
            yield rep_for(label, value)


def block_rep(p, q, a_rows, b_rows):
    """The triple with e1 = diag(1^p, 0^q), A in s12's upper right, B in s21's lower left."""
    n = p + q
    return Representation(
        [[int(i == j and i < p) for j in range(n)] for i in range(n)],
        [[a_rows[i][j - p] if i < p <= j else 0 for j in range(n)] for i in range(n)],
        [[b_rows[i - p][j] if j < p <= i else 0 for j in range(n)] for i in range(n)],
    )


def random_block_rep(rng, p, q, entries=(-2, -1, 0, 0, 1, 2)):
    return block_rep(
        p, q,
        [[rng.choice(entries) for _ in range(q)] for _ in range(p)],
        [[rng.choice(entries) for _ in range(p)] for _ in range(q)],
    )


def assert_same_violations(rep):
    with pytest.raises(RelationViolation) as want:
        validate(rep)
    with pytest.raises(RelationViolation) as got:
        quiver_form(rep)
    assert got.value.violations == want.value.violations
    with pytest.raises(RelationViolation):
        are_conjugate(rep, rep)


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
    assert_same_violations(Representation(one, one, zero))
    with pytest.raises(RelationViolation):
        is_simple(Representation(one, one, zero))
    # an idempotent e1 with s12 in s21's block
    assert_same_violations(
        Representation([[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]))


def test_validate_rejects_non_idempotent():
    bad = Representation(QMatrix([[2]]), QMatrix([[0]]), QMatrix([[0]]))
    with pytest.raises(RelationViolation) as info:
        validate(bad)
    assert any(name == "E1^2 = E1" for name, _ in info.value.violations)
    assert_same_violations(bad)


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


def test_classify_is_built_once_per_dimension(monkeypatch):
    first = classify(3)
    assert classify(3) is first

    def rebuilt(rep):
        raise AssertionError("classify rebuilt a family")

    monkeypatch.setattr("weyldeform.reps.quiver_form", rebuilt)
    assert classify(3) is first


def test_classify_labels_in_table_order():
    c2 = classify(2)
    assert [f.label for f in c2.families] == [
        "T_2_1", "T_2_2", "T_2_3", "T_2_4", "T_2_5", "T_2_6",
    ]


def test_classify_input_validation():
    for n in (0, True, False):
        with pytest.raises(ValueError):
            classify(n)
    with pytest.raises(UnsupportedDimensionError):
        classify(5)


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
                assert 0 < rank([list(v) for v in sub]) < rep.n


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
    for n in (1, 2, 3, 4):
        for fam in classify(n).families:
            assert fam.indecomposable == (fam.decomposition is None)


@pytest.mark.parametrize("label", ALL_LABELS_3 + LABELS_4)
def test_family_agrees_with_coupling_oracle_and_samples(label):
    fam = {f.label: f for n in (1, 2, 3, 4) for f in classify(n).families}[label]
    want = None if fam.indecomposable else coupling_decomposition(label)
    assert fam.decomposition == want
    # one sample stands for the whole family: the flags hold at each value
    values = (1, -1, 2, Fraction(1, 2), -3, Fraction(2, 3))
    for value in values if label in PARAM_NAMES else (None,):
        rep = rep_for(label, value)
        assert (is_simple(rep), is_indecomposable(rep)) == (
            fam.simple, fam.indecomposable), value


def test_classify_takes_one_normal_form_per_family(monkeypatch):
    weyldeform.clear_caches()
    weyldeform.reps._families_by_key()
    real = weyldeform.reps._block_normal_form
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("weyldeform.reps._block_normal_form", counted)
    assert len(classify(4).families) == 26
    assert len(calls) == 26


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


def test_conjugacy_refuses_different_dimensions():
    with pytest.raises(ValueError, match="different dimensions"):
        are_conjugate(rep_for("T_2_6"), rep_for("T_3_1"))


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


def test_normal_forms_separate_listed_representatives():
    reps = list(listed_reps(ALL_LABELS_3 + LABELS_4))
    assert len(reps) == 73
    assert len({normal_form(rep) for rep in reps}) == 73


def test_normal_form_basis_reaches_the_block_normal_form():
    rng = random.Random(822)
    for rep in listed_reps(ALL_LABELS_3 + LABELS_4):
        form = normal_form(rep)
        base = rep.conjugate(form.basis.inverse())
        p = form.dims[0]
        assert base.e1 == QMatrix([[int(i == j < p) for j in range(rep.n)] for i in range(rep.n)])
        validate(base)
        for _ in range(3):
            conj = rep.conjugate(rand_invertible(rng, rep.n))
            other = normal_form(conj)
            assert other == form
            assert conj.conjugate(other.basis.inverse()) == base


def test_conjugacy_agrees_with_grid_oracle_on_listed_pairs():
    reps = list(listed_reps(ALL_LABELS_3))
    for i, rep1 in enumerate(reps):
        for rep2 in reps[i:]:
            if rep1.n == rep2.n:
                got = are_conjugate(rep1, rep2)
                assert (got is None) == (grid_are_conjugate(rep1, rep2) is None), (rep1, rep2)


def test_conjugacy_agrees_with_grid_oracle_on_random_block_reps():
    rng = random.Random(823)
    found = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        rep1 = random_block_rep(rng, p, n - p)
        rep2 = rep1 if rng.random() < 0.5 else random_block_rep(rng, p, n - p)
        rep2 = rep2.conjugate(rand_invertible(rng, n))
        got = are_conjugate(rep1, rep2)
        assert (got is None) == (grid_are_conjugate(rep1, rep2) is None), (rep1.triple(), rep2.triple())
        if got is not None:
            assert rep1.conjugate(got) == rep2
            found += 1
    assert 100 <= found < 200


@pytest.mark.parametrize("first, second", [
    ("T_4_3", "T_4_5"), ("T_4_3", "T_4_14"), ("T_4_8", "T_4_9"),
    ("T_4_8", "T_4_16"), ("T_4_3", "T_4_13"), ("T_4_3", "T_4_4"),
    ("T_4_1", "T_4_3"),
])
def test_dimension_four_negatives_are_fast(first, second):
    rep1, rep2 = representative(first), representative(second).conjugate(G4)
    start = time.perf_counter()
    assert are_conjugate(rep1, rep2) is None
    assert are_conjugate(rep2, rep1) is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [5, 6])
def test_conjugacy_beyond_dimension_four(n):
    rng = random.Random(824 + n)
    for p in range(n + 1):
        for entries in ((-2, -1, 0, 0, 1, 2), (0, 0, 0, 1)):
            rep = random_block_rep(rng, p, n - p, entries)
            conj = rep.conjugate(rand_invertible(rng, n))
            g = are_conjugate(rep, conj)
            assert g is not None and rep.conjugate(g) == conj
    # B = 0 and A equal but for one row, so the ranks of A differ
    p = n // 2
    a_rows = [[rng.randint(-2, 2) for _ in range(n - p)] for _ in range(p)]
    low = [[0] * (n - p)] + a_rows[1:]
    assert rank(a_rows) != rank(low)
    zero = [[0] * p] * (n - p)
    conj = block_rep(p, n - p, low, zero).conjugate(rand_invertible(rng, n))
    assert are_conjugate(block_rep(p, n - p, a_rows, zero), conj) is None


def test_invariant_factors_separate_equal_characteristic_polynomials():
    # A = I, AB = diag(1, 1, 2) against a Jordan block at 1 plus 2
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    split = block_rep(3, 3, eye, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    jordan = block_rep(3, 3, eye, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    assert normal_form(split).factors == (
        (Fraction(2), Fraction(-3), Fraction(1)), (Fraction(-1), Fraction(1)))
    assert normal_form(jordan).factors == (
        (Fraction(-2), Fraction(5), Fraction(-4), Fraction(1)),)
    assert are_conjugate(split, jordan) is None
    g = QMatrix([[1 if j <= i else 0 for j in range(6)] for i in range(6)])
    assert are_conjugate(split, split.conjugate(g)) is not None


@pytest.mark.parametrize("b_rows, indecomposable", [
    ([[0, 2], [1, 0]], True),   # AB has the irreducible x^2 - 2
    ([[1, 1], [0, 1]], True),   # one Jordan block
    ([[1, 0], [0, 2]], False),
    ([[1, 0], [0, 1]], False),
])
def test_indecomposable_unlisted_dimension_four(b_rows, indecomposable):
    rep = block_rep(2, 2, [[1, 0], [0, 1]], b_rows)
    assert is_indecomposable(rep) is indecomposable
    assert is_indecomposable(rep.conjugate(G4)) is indecomposable


def sum_of_strings(*lengths):
    """block_rep of a direct sum of strings from vertex 1; in each string
    e_i -> f_i by B and f_i -> e_(i+1) by A."""
    p, q = sum((x + 1) // 2 for x in lengths), sum(x // 2 for x in lengths)
    a_rows = [[0] * q for _ in range(p)]
    b_rows = [[0] * p for _ in range(q)]
    op = oq = 0
    for length in lengths:
        for i in range(length // 2):
            b_rows[oq + i][op + i] = 1
        for i in range(1, (length + 1) // 2):
            a_rows[op + i][oq + i - 1] = 1
        op, oq = op + (length + 1) // 2, oq + length // 2
    return block_rep(p, q, a_rows, b_rows)


@pytest.mark.parametrize("lengths, indecomposable", [
    ((5,), True), ((6,), True), ((7,), True), ((8,), True),
    ((5, 1), False), ((3, 3), False), ((4, 4), False),
])
def test_indecomposable_strings_past_dimension_four(lengths, indecomposable):
    rep = sum_of_strings(*lengths)
    assert sorted(normal_form(rep).strings) == sorted((1, length) for length in lengths)
    assert is_indecomposable(rep) is indecomposable


def test_indecomposable_refuses_one_factor_of_degree_three():
    # A = I, B the companion matrix of x^3 - 2: deciding it needs factoring
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    rep = block_rep(3, 3, eye, [[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert normal_form(rep).factors == ((Fraction(-2), 0, 0, 1),)
    with pytest.raises(UnsupportedDimensionError):
        is_indecomposable(rep)


def random_blocks(rng, n):
    p = rng.randint(0, n)
    entries = (-2, -1, 0, 0, 1, 2)
    a_rows = [[rng.choice(entries) for _ in range(n - p)] for _ in range(p)]
    b_rows = [[rng.choice(entries) for _ in range(p)] for _ in range(n - p)]
    return p, n - p, a_rows, b_rows


def test_simple_and_match_agree_with_oracles_on_listed_reps():
    for rep in listed_reps(ALL_LABELS_3 + LABELS_4):
        assert is_simple(rep) == burnside_is_simple(rep), rep
        if rep.n <= 3:
            form = quiver_form(rep)
            assert match_label(rep) == table_match_quiver(*form.dims, form.a, form.b), rep


def test_is_simple_agrees_with_burnside_on_random_block_reps():
    rng = random.Random(826)
    simple = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        p, q, a_rows, b_rows = random_blocks(rng, n)
        rep = block_rep(p, q, a_rows, b_rows)
        want = burnside_is_simple(rep)
        assert is_simple(rep.conjugate(rand_unimodular(rng, n))) == want, (p, a_rows, b_rows)
        simple += want
    assert 50 <= simple < 500


def test_match_label_agrees_with_table_on_random_block_reps():
    rng = random.Random(827)
    for _ in range(1000):
        n = rng.randint(1, 3)
        p, q, a_rows, b_rows = random_blocks(rng, n)
        conj = block_rep(p, q, a_rows, b_rows).conjugate(rand_unimodular(rng, n))
        want = table_match_quiver(p, q, QMatrix(a_rows), QMatrix(b_rows))
        assert match_label(conj) == want, (p, a_rows, b_rows)


def test_simple_over_q_but_not_absolutely_simple():
    # AB has the irreducible x^2 - 2: no rational submodule, but the
    # endomorphisms are Q(sqrt 2), so the words span only half of M_4(Q)
    rep = block_rep(2, 2, [[1, 0], [0, 1]], [[0, 2], [1, 0]])
    assert burnside_is_simple(rep) is False
    assert is_simple(rep) is False
    assert is_simple(rep.conjugate(G4)) is False


def test_every_non_simple_rep_up_to_dimension_three_has_a_line():
    rng = random.Random(828)
    for _ in range(500):
        n = rng.randint(1, 3)
        rep = block_rep(*random_blocks(rng, n)).conjugate(rand_unimodular(rng, n))
        sub = find_proper_submodule(rep)
        if is_simple(rep):
            assert sub is None
            continue
        assert sub is not None and len(sub) == 1
        (v,) = sub
        assert any(v)
        for m in rep.triple():
            w = m.apply(v)
            assert all(v[i] * w[j] == v[j] * w[i] for i in range(n) for j in range(n))


# -- the memoized quiver form and normal form ---------------------------------


def test_repeat_questions_on_an_equal_triple_eliminate_nothing(monkeypatch):
    rng = random.Random(829)
    weyldeform.reps._families_by_key()
    cases = []
    for label in ("T_2_6", "T_3_5", "T_3_7", "T_3_11"):
        rep = rep_for(label, Fraction(1, 2))
        conj = rep.conjugate(rand_invertible(rng, rep.n))
        assert are_conjugate(rep, conj) is not None
        want = (is_simple(rep), is_indecomposable(rep), match_label(rep))
        copy = Representation(*(QMatrix(m.to_rows()) for m in conj.triple()))
        assert copy == conj and copy is not conj
        cases.append((copy, want))
    real = weyldeform.linalg._echelon
    calls = []

    def counted(rows):
        calls.append(rows)
        return real(rows)

    # every exit of the elimination kernel runs its forward pass
    monkeypatch.setattr("weyldeform.linalg._echelon", counted)
    for copy, want in cases:
        assert (is_simple(copy), is_indecomposable(copy), match_label(copy)) == want
    assert calls == []


@pytest.mark.parametrize("call", [
    pytest.param(find_proper_submodule, id="find_proper_submodule"),
    pytest.param(is_simple, id="is_simple"),
    pytest.param(is_indecomposable, id="is_indecomposable"),
    pytest.param(match_label, id="match_label"),
    pytest.param(lambda rep: are_conjugate(rep, rep), id="are_conjugate"),
])
def test_broken_triple_raises_the_full_violation_on_every_call(call):
    for bad in (Representation([[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]),
                Representation([[2]], [[1]], [[0]])):
        with pytest.raises(RelationViolation) as want:
            validate(bad)
        for _ in range(2):
            with pytest.raises(RelationViolation) as got:
                call(bad)
            assert str(got.value) == str(want.value)
            assert got.value.violations == want.value.violations


def test_submodule_search_checks_relations_before_refusing_the_dimension():
    with pytest.raises(RelationViolation):
        find_proper_submodule(Representation(*(QMatrix.identity(4) * 2,) * 3))
    with pytest.raises(UnsupportedDimensionError):
        find_proper_submodule(block_rep(2, 2, [[1, 0], [0, 0]], [[0, 0], [0, 1]]))


def test_memoized_normal_form_equals_a_fresh_one():
    rng = random.Random(830)
    weyldeform.clear_caches()
    for _ in range(60):
        n = rng.randint(1, 4)
        rep = block_rep(*random_blocks(rng, n)).conjugate(rand_invertible(rng, n))
        got = normal_form(rep)
        assert normal_form(Representation(*rep.triple())) is got
        form = quiver_form.__wrapped__(rep)
        fresh = weyldeform.reps._block_normal_form(*form.dims, form.a, form.b)
        assert got == fresh
        assert got.basis == form.basis * fresh.basis
