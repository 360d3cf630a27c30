"""Acceptance gate.

One test per criterion; each prints a single `ACCEPTANCE <name>: PASS|FAIL`
line before asserting, so `pytest -v tests/test_acceptance.py` reads as a
checklist.  Everything is exact rational arithmetic; there are no
tolerances to tune.

Three subchecks are expected to fail.  6c, 6d and 6e assert that the
integer specializations T_2_6(1), T_2_6(2), T_2_6(-2) are isomorphic to
the base modules M1, M1, M2.  Exact witness search refutes all three up
to the degree bound and certifies a different cyclic target instead
(D/D(t*d - a), which sits on the other side of the integer wall from the
base module).  The tests state the asserted identification faithfully
and record the refutation in the failure message rather than weakening
the assertion.  They are deliberately not marked xfail.
"""

from fractions import Fraction
from random import Random

from conftest import (
    apply_to_poly,
    bareiss_rank,
    frozen_family,
    path_count_dims,
    poly_eq,
    rand_invertible,
    rand_poly,
    rand_weyl,
)
from weyldeform import (
    CyclicModule,
    Representation,
    are_conjugate,
    classify,
    commutative_specialize,
    cross_certify,
    ext_table,
    find_proper_submodule,
    hom_search,
    hull_unobstructed,
    identify_specialization,
    is_simple,
    iso_witness,
    kernel_basis,
    parse_weyl,
    print_weyl,
    rank,
    representative,
    satisfies,
    specialize,
    validate,
)

PARAM_NAMES = {"T_2_6": "a", "T_3_7": "b", "T_3_12": "c"}
SAMPLES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
LABELS = {
    1: ("T_1_1", "T_1_2"),
    2: ("T_2_1", "T_2_2", "T_2_3", "T_2_4", "T_2_5", "T_2_6"),
    3: ("T_3_1", "T_3_2", "T_3_3", "T_3_4", "T_3_5", "T_3_6", "T_3_7",
        "T_3_8", "T_3_9", "T_3_10", "T_3_11", "T_3_12"),
}


def check(name, ok, detail=""):
    print("ACCEPTANCE {}: {}".format(name, "PASS" if ok else "FAIL"))
    assert ok, detail or name


def rep_at(label, value=Fraction(1)):
    name = PARAM_NAMES.get(label)
    return representative(label, {name: value} if name else None)


def all_reps():
    """Every tabulated representative, parametric ones at all samples."""
    for labels in LABELS.values():
        for label in labels:
            if label in PARAM_NAMES:
                for value in SAMPLES:
                    yield label, value, rep_at(label, value)
            else:
                yield label, None, rep_at(label)


def test_criterion_1_ext_table():
    table = ext_table(max_degree=8)
    ok = (
        table.dims1 == ((0, 1), (1, 0))
        and table.dims2 == ((0, 0), (0, 0))
        and table.stable
        and table.stabilized_at <= 6
    )
    check("1 ext table", ok,
          "dims1={} dims2={} stabilized_at={}".format(
              table.dims1, table.dims2, table.stabilized_at))


def test_criterion_2_hom_table():
    mods = (CyclicModule("d"), CyclicModule("t"))
    seen = []
    ok = True
    for i, p in enumerate(mods):
        for j, q in enumerate(mods):
            basis = hom_search(p, q, max_degree=10)
            want = 1 if i == j else 0
            tail = basis.dims[6:]
            seen.append(((i, j), basis.dim, tail))
            ok = ok and basis.dim == want and all(d == want for d in tail)
    check("2 hom table", ok, "dims over degrees 6..10: {}".format(seen))


def test_criterion_3_hull():
    hull = hull_unobstructed(ext_table(max_degree=8))
    want = [
        "s12^2 = s21^2 = 0",
        "e1^2 = e1",
        "e1*s12 = s12",
        "s21*e1 = s21",
        "s12*e1 = 0",
        "e1*s21 = 0",
    ]
    displays = [r.display for r in hull.relations]
    dims_ok = all(
        hull.trunc_dim(m) == 2 * m == path_count_dims(hull.arrow_counts, m)
        for m in range(1, 9)
    )
    check("3 hull", displays == want and dims_ok,
          "relations={} trunc_dims={}".format(
              displays, [hull.trunc_dim(m) for m in range(1, 9)]))


def test_criterion_4_classification():
    results = {n: classify(n) for n in (1, 2, 3)}
    counts_ok = (
        len(results[1].families) == 2 and len(results[1].parametric) == 0
        and len(results[2].discrete) == 5 and len(results[2].parametric) == 1
        and len(results[3].discrete) == 10 and len(results[3].parametric) == 2
    )

    # every listed representative is conjugate, with an explicit change of
    # basis, to the tabulated matrices; parametric ones at every sample
    witnessed = True
    for label, value, rep in all_reps():
        _, e1, s12, s21 = frozen_family(label, value or Fraction(1))
        target = Representation(
            [list(r) for r in e1], [list(r) for r in s12], [list(r) for r in s21])
        g = are_conjugate(rep, target)
        if g is None or rep.conjugate(g) != target:
            witnessed = False
            break

    # all representatives of equal size, samples included, lie in
    # distinct orbits
    separated = True
    for n, labels in LABELS.items():
        reps = [(label, value, rep)
                for label, value, rep in all_reps() if rep.n == n]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if are_conjugate(reps[i][2], reps[j][2]) is not None:
                    separated = False

    check("4 classification", counts_ok and witnessed and separated,
          "counts_ok={} witnessed={} separated={}".format(
              counts_ok, witnessed, separated))


def test_criterion_5_simplicity():
    simple_sets_ok = True
    for n, want in ((1, {"T_1_1", "T_1_2"}), (2, {"T_2_6"}), (3, set())):
        got = {f.label for f in classify(n).families if f.simple}
        simple_sets_ok = simple_sets_ok and got == want

    family_ok = all(is_simple(rep_at("T_2_6", v)) for v in SAMPLES)

    agree = all(
        is_simple(rep) == (find_proper_submodule(rep) is None)
        for _, _, rep in all_reps()
    )
    check("5 simplicity", simple_sets_ok and family_ok and agree,
          "sets_ok={} T_2_6_all_samples={} agree={}".format(
              simple_sets_ok, family_ok, agree))


def test_criterion_6a_base_points():
    r1 = identify_specialization(rep_at("T_1_1"))
    r2 = identify_specialization(rep_at("T_1_2"))
    ok = (
        r1.identified and r1.alias == "M1" and r1.witness.verify()
        and r2.identified and r2.alias == "M2" and r2.witness.verify()
    )
    check("6a T_1_i to M_i", ok,
          "T_1_1 -> {!r}, T_1_2 -> {!r}".format(r1.message, r2.message))


def test_criterion_6b_minus_one():
    report = identify_specialization(rep_at("T_2_6", Fraction(-1)))
    ok = (
        report.identified
        and report.target_kind == "cyclic"
        and report.target.p == parse_weyl("t*d + 1")
        and report.witness.verify()
    )
    check("6b a=-1 to D/D(d*t)", ok, report.message)


def _integer_sample_check(name, a, base_p, base_name):
    rep = rep_at("T_2_6", Fraction(a))
    delta = specialize(rep)
    witness = iso_witness(delta, CyclicModule(base_p), max_degree=8)
    report = identify_specialization(rep, max_degree=8)
    actual = "unidentified"
    if report.identified and report.target_kind == "cyclic":
        actual = "D/D({})".format(print_weyl(report.target.p))
    check(name, witness is not None,
          "no isomorphism witness from the a={} specialization to {} up to "
          "degree 8; exact identification finds {} instead".format(
              a, base_name, actual))


def test_criterion_6c_plus_one():
    _integer_sample_check("6c a=1 to M1", 1, "d", "M1 = D/D(d)")


def test_criterion_6d_plus_two():
    _integer_sample_check("6d a=2 to M1", 2, "d", "M1 = D/D(d)")


def test_criterion_6e_minus_two():
    _integer_sample_check("6e a=-2 to M2", -2, "t", "M2 = D/D(t)")


def test_criterion_6f_half():
    report = identify_specialization(rep_at("T_2_6", Fraction(1, 2)))
    ok = (
        report.identified
        and report.target_kind == "cyclic"
        and report.shift is not None
        and abs(report.shift) <= 2
        and report.target.p
        == parse_weyl("t*d") - Fraction(1, 2) + Fraction(report.shift)
        and report.witness.verify()
    )
    check("6f a=1/2 within shift 2", ok,
          "{} (shift={})".format(report.message, report.shift))


def test_criterion_6g_half_shift_pair():
    w = iso_witness(CyclicModule("t*d - 1/2"), CyclicModule("t*d - 3/2"),
                    max_degree=8)
    check("6g t*d-1/2 iso t*d-3/2", w is not None and w.verify(),
          "no witness up to degree 8")


def test_criterion_7_commutative():
    origin = commutative_specialize((0, 0))
    origin_ok = (
        origin.identified
        and origin.target_kind == "direct_sum"
        and [s.alias for s in origin.target] == ["M1", "M2"]
    )

    axis = commutative_specialize((1, 0))
    axis_ok = (
        axis.identified
        and axis.target_kind == "cyclic"
        and axis.target.p == parse_weyl("t*d + 1")
    )

    pair_ok = True
    for a, point in ((1, (1, 1)), (2, (2, 1))):
        w = cross_certify(rep_at("T_2_6", Fraction(a)), point)
        pair_ok = pair_ok and w is not None and w.verify()

    check("7 commutative points", origin_ok and axis_ok and pair_ok,
          "origin_ok={} axis_ok={} pair_ok={}".format(
              origin_ok, axis_ok, pair_ok))


def test_criterion_8_property_suites():
    rng = Random(20260819)

    # operators act correctly on polynomials, and composition agrees
    # with the product, across at least a thousand random cases
    action_ok = True
    for _ in range(1000):
        a, b = rand_weyl(rng), rand_weyl(rng)
        poly = rand_poly(rng)
        direct = apply_to_poly(a * b, poly)
        nested = apply_to_poly(a, apply_to_poly(b, poly))
        if not poly_eq(direct, nested):
            action_ok = False
            break

    assoc_ok = True
    for _ in range(300):
        a, b, c = rand_weyl(rng), rand_weyl(rng), rand_weyl(rng)
        if (a * b) * c != a * (b * c):
            assoc_ok = False
            break

    parse_ok = all(
        parse_weyl(print_weyl(w)) == w
        for w in (rand_weyl(rng, max_deg=4, max_coef=9, terms=6)
                  for _ in range(300))
    )

    linalg_ok = True
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        r = rank(rows)
        if r != bareiss_rank(rows) or r + len(kernel_basis(rows, nc)) != nc:
            linalg_ok = False
            break

    # conjugation never changes the classification outcome: simplicity
    # and submodule existence are orbit invariants
    orbit_ok = True
    for labels in LABELS.values():
        for label in labels:
            rep = rep_at(label)
            base_simple = is_simple(rep)
            for _ in range(100):
                conj = rep.conjugate(rand_invertible(rng, rep.n))
                if is_simple(conj) != base_simple:
                    orbit_ok = False
                if (find_proper_submodule(conj) is None) != base_simple:
                    orbit_ok = False

    hull = hull_unobstructed(ext_table())
    relations_ok = all(
        satisfies(rep, relation)
        for _, _, rep in all_reps()
        for relation in hull.relations
    )
    sound_ok = True
    for _, _, rep in all_reps():
        try:
            validate(rep)
        except Exception:
            sound_ok = False

    ok = (action_ok and assoc_ok and parse_ok and linalg_ok and orbit_ok
          and relations_ok and sound_ok)
    check("8 property suites", ok,
          "action={} assoc={} parse={} linalg={} orbit={} relations={} "
          "sound={}".format(action_ok, assoc_ok, parse_ok, linalg_ok,
                            orbit_ok, relations_ok, sound_ok))
