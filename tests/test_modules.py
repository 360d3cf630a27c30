"""Presented modules, hom search, and isomorphism certificates."""

import inspect
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from weyldeform import (
    CyclicModule,
    IsoWitness,
    PresentedModule,
    WeylElement,
    WeylLinearSystem,
    as_presented,
    clear_caches,
    compose_iso,
    cyclic_form,
    divide_left,
    ext1_dim,
    hom_search,
    identify_specialization,
    iso_witness,
    parse_weyl,
    representative,
    specialize,
)
from weyldeform import modules
from weyldeform.linalg import QMatrix, mat_add
from weyldeform.modules import (
    TruncatedSpan,
    image_witness,
    module_image_span,
    monomial_count,
    truncated_monomials,
    wmat_mul,
)

from conftest import block_decompose, dense_wmat_mul, digest, rand_weyl

t = WeylElement.t()
d = WeylElement.d()
one = WeylElement.one()


def test_truncated_monomial_counts():
    assert truncated_monomials(0) == [(0, 0)]
    assert len(truncated_monomials(1)) == 3
    assert monomial_count(12) == 91
    for n in range(7):
        assert len(truncated_monomials(n)) == monomial_count(n)
        assert all(i + j <= n for i, j in truncated_monomials(n))


def test_cyclic_module_normalizes_monic():
    m = CyclicModule(t * d * 2 - one)
    assert m.p == t * d - one * Fraction(1, 2)
    assert m.n == 1
    with pytest.raises(ValueError):
        CyclicModule(WeylElement.zero())


def test_presented_module_accepts_strings():
    m = PresentedModule((("d", "-1"), ("0", "t")))
    assert m.n == 2
    assert m.delta[0][1] == -one
    assert as_presented(m) is m
    assert as_presented(CyclicModule("d")).delta == ((d,),)


@pytest.mark.parametrize("delta, error, message", [
    ((), ValueError, "at least one generator"),
    ((("d", "1"),), ValueError, "must be square"),
    ((("d", 1), ("0", "t")), TypeError, "WeylElements or strings"),
    # a string is no matrix and no row: read as one, "dt" would be [d t; t d]
    (["dt", "td"], TypeError, "not strings"),
    ("t", TypeError, "not strings"),
    (("t*d - 1",), TypeError, "not strings"),
    ((("d", "1"), "t*d"), TypeError, "not strings"),
], ids=["empty", "non-square", "int-entry", "str-rows", "str-matrix", "str-row", "str-second-row"])
def test_presented_module_refuses_what_is_no_square_matrix(delta, error, message):
    with pytest.raises(error, match=message):
        PresentedModule(delta)


def test_block_decompose():
    diag = PresentedModule((("d", "0"), ("0", "t")))
    blocks = block_decompose(diag)
    assert [idx for idx, _ in blocks] == [(0,), (1,)]
    assert [b.delta for _, b in blocks] == [((d,),), ((t,),)]

    coupled = PresentedModule((("d", "-1"), ("-1", "t")))
    assert len(block_decompose(coupled)) == 1


def test_truncated_span_membership_window():
    span = TruncatedSpan([(d,), (t,)], 1, 2)
    assert len(span.pivot_degrees()) == 2
    assert not any(span.reduce((t * 2 - d,)))
    assert any(span.reduce((one,)))
    with pytest.raises(ValueError):
        span.reduce((t ** 3,))


def test_divide_left_examples():
    q = t * d - one
    r = (t * t + d) * q
    assert divide_left(r, q) == t * t + d
    assert divide_left(t, d) is None
    assert divide_left(WeylElement.zero(), q) == WeylElement.zero()
    with pytest.raises(ValueError):
        divide_left(t, WeylElement.zero())


def test_divide_left_fuzz():
    rng = random.Random(717)
    for _ in range(60):
        q = rand_weyl(rng, max_deg=2)
        if q.is_zero():
            continue
        c = rand_weyl(rng, max_deg=2)
        assert divide_left(c * q, q) == c


# the digest of the quotients below, None where none exists, as two
# earlier divisions gave them: one exact linear solve for s, and division
# by leading terms that led with the last of items() (the d-power first)
QUOTIENTS_SHA256 = "5c058db452ac7280cb83b6df74c8b92143dc6308a294579bce82769315947a39"


def test_divide_left_matches_solve_oracle():
    rng = random.Random(4417)
    pairs = [
        (WeylElement.zero(), t * d - one),
        (t * d * 3 - one, WeylElement.constant(Fraction(2, 3))),
        (d * t * t, t * 3 - d * Fraction(1, 2)),
        ((t + d) * (t * d * Fraction(-5, 2) + t), t * d * Fraction(-5, 2) + t),
    ]
    for _ in range(80):
        q = rand_weyl(rng, max_deg=2)
        if q.is_zero():
            continue
        c = rand_weyl(rng, max_deg=2)
        pairs.append((c * q, q))
        pairs.append((c * q + rand_weyl(rng, max_deg=1, terms=1), q))
        pairs.append((rand_weyl(rng, max_deg=3), q))
    quotients = [divide_left(r, q) for r, q in pairs]
    assert len(quotients) == 178
    assert digest(quotients) == QUOTIENTS_SHA256
    found = sum(s is not None for s in quotients)
    assert 0 < found < len(pairs)
    for r in (t, WeylElement.zero()):
        with pytest.raises(ValueError):
            divide_left(r, WeylElement.zero())


def test_hom_endomorphisms_of_m1():
    basis = hom_search(CyclicModule("d"), CyclicModule("d"), 6)
    assert basis.dims == (1,) * 7
    assert basis.stabilized_at() == 0
    assert list(basis.basis) == [one]


@pytest.mark.parametrize("dims, want", [
    ((0, 0, 0, 0, 0, 0, 1, 1, 1), 6),
    ((0, 0, 0, 0, 0, 1, 1), None),
    ((2,) * 9, 0),
    ((0,), None),
    ((0, 0), None),
])
def test_stabilized_at_counts_only_the_final_run(dims, want):
    # an earlier run of equal dims that later grow is not stable
    assert modules._stabilized_at(dims) == want


def test_hom_stabilizes_where_the_final_run_starts():
    basis = hom_search(CyclicModule("t"), CyclicModule("t*d - 3"), 14)
    assert basis.dims == (0,) * 4 + (1,) * 11
    assert basis.stabilized_at() == 4


def test_hom_m1_to_m2_vanishes():
    basis = hom_search(CyclicModule("d"), CyclicModule("t"), 8)
    assert basis.dim == 0
    assert basis.dims == (0,) * 9
    assert basis.basis == ()


def test_hom_shift_witness():
    # r = t gives a map D/D(td - 1) -> D/Dd since (td - 1) t = t^2 d
    basis = hom_search(CyclicModule(t * d - one), CyclicModule("d"), 6)
    assert basis.dim >= 1
    assert any(r == t for r in basis.basis)
    p = t * d - one
    for r in basis.basis:
        assert divide_left(p * r, d) is not None


def test_hom_table_of_the_pair():
    mods = [CyclicModule("d"), CyclicModule("t")]
    dims = [
        [hom_search(mods[j], mods[i], 8).dim for j in range(2)]
        for i in range(2)
    ]
    assert dims == [[1, 0], [0, 1]]


def test_iso_identity():
    m = CyclicModule(t * d - one)
    w = iso_witness(m, m, 6)
    assert w is not None
    assert w.verify()
    assert w.r == ((one,),)
    presented = PresentedModule((("d",),))
    w = iso_witness(CyclicModule("d"), presented, 6)
    assert w.verify()
    assert w.target is presented


def test_iso_half_integer_shift():
    w = iso_witness(CyclicModule("t*d - 1/2"), CyclicModule("t*d - 3/2"), 8)
    assert w is not None
    assert w.verify()
    assert w.r == ((d,),)
    assert w.s == ((t * Fraction(2, 3),),)
    back = w.reversed()
    assert back.verify()


def test_iso_rejects_m1_m2():
    assert iso_witness(CyclicModule("d"), CyclicModule("t"), 8) is None


def test_iso_integer_wall():
    # the unit shift is blocked exactly between t*d + 1 and t*d
    a = CyclicModule(t * d + one)
    b = CyclicModule(t * d)
    assert iso_witness(a, b, 8) is None
    assert iso_witness(b, a, 8) is None


def test_iso_unit_shift_exists_off_wall():
    w = iso_witness(CyclicModule(t * d), CyclicModule(t * d - one), 8)
    assert w is not None and w.verify()
    w2 = iso_witness(CyclicModule(t * d - one), CyclicModule(t * d - one * 2), 8)
    assert w2 is not None and w2.verify()


def test_compose_iso_checks_endpoints():
    w1 = iso_witness(CyclicModule("t*d - 1/2"), CyclicModule("t*d - 3/2"), 8)
    w2 = iso_witness(CyclicModule("t*d - 3/2"), CyclicModule("t*d - 5/2"), 8)
    comp = compose_iso(w1, w2)
    assert comp.verify()
    assert as_presented(comp.source).delta == as_presented(w1.source).delta
    with pytest.raises(ValueError):
        compose_iso(w2, w1)


def test_wmat_mul_rejects_mismatched_shapes():
    # a 1 x 1 matrix times one with no rows: 1 != 0, whether b has rows or not
    for a, b in ((((one,),), ()), (((one,),), ((one,), (t,))), (((one, d),), ((t,),))):
        with pytest.raises(ValueError, match="shape mismatch in product"):
            wmat_mul(a, b)
    assert wmat_mul((), ()) == () and wmat_mul((), ((t, d),)) == ()
    assert wmat_mul(((),), ()) == ((),)
    assert wmat_mul(((t,), (d,)), ((one, d),)) == ((t, t * d), (d, d * d))


def rand_wmat(rng: random.Random, nrows: int, ncols: int) -> tuple:
    """Mostly zero entries, with constants and general elements mixed in."""
    def entry():
        x = rng.random()
        if x < 0.55:
            return WeylElement.zero()
        if x < 0.8:
            return WeylElement.constant(rng.choice((-2, -1, 1, 3, Fraction(1, 2))))
        return rand_weyl(rng, max_deg=2, terms=3)
    return tuple(tuple(entry() for _ in range(ncols)) for _ in range(nrows))


def test_sparse_wmat_mul_matches_the_dense_product():
    rng, qrng = random.Random(1729), random.Random(1730)
    for _ in range(60):
        p, q, r = (rng.randint(1, 6) for _ in range(3))
        a, b = rand_wmat(rng, p, q), rand_wmat(rng, q, r)
        got = wmat_mul(a, b)
        assert got == dense_wmat_mul(a, b)
        assert len(got) == p and all(len(row) == r for row in got)
        assert all(isinstance(e, WeylElement) for row in got for e in row)
        assert all(type(c) is Fraction and c != 0 for row in got for e in row for _, c in e)
        # the same routine over Q, against a dense Fraction product
        qa, qb = rand_qmat(qrng, p, q), rand_qmat(qrng, q, r)
        got = (qa * qb).to_rows()
        assert got == [[sum((qa[i, k] * qb[k, j] for k in range(q)), Fraction(0))
                        for j in range(r)] for i in range(p)]
        assert all(type(x) is Fraction for row in got for x in row)
    # entries that cancel are zero elements
    assert wmat_mul(((t, t),), ((d,), (-d,))) == ((WeylElement.zero(),),)
    # an entry with no term is the ring's own zero
    zero = WeylElement.zero()
    assert type(wmat_mul(((t, one),), ((zero,), (zero,)))[0][0]) is WeylElement
    assert all(type(x) is Fraction for x in (QMatrix([[1, 0]]) * QMatrix([[0], [5]])).row(0))
    # empty shapes: 0 x k times k x m, and k x 0 times 0 x m
    for k, m in ((0, 0), (2, 3)):
        assert (QMatrix.zeros(0, k) * QMatrix.zeros(k, m)).shape == (0, m)
        prod = QMatrix.zeros(k, 0) * QMatrix.zeros(0, m)
        assert prod == QMatrix.zeros(k, m)
        assert all(type(x) is Fraction for row in prod.to_rows() for x in row)
        assert wmat_mul((), rand_wmat(rng, k, m)) == ()
        assert wmat_mul(((),) * k, ()) == ((),) * k


def test_mat_add_keeps_the_left_entry_where_the_right_is_zero():
    x, y = rand_weyl(random.Random(7), max_deg=2, terms=3), WeylElement.zero()
    got = mat_add(((x, x),), ((y, t),))
    assert got[0][0] is x and got[0][1] == x + t
    a = QMatrix([[Fraction(1, 3), 2]])
    assert (a + QMatrix.zeros(1, 2)).row(0)[0] == a.row(0)[0]
    assert (a + QMatrix([[1, -2]])).to_rows() == [[Fraction(4, 3), 0]]


def rand_qmat(rng: random.Random, nrows: int, ncols: int) -> QMatrix:
    """Mostly zero rationals."""
    return QMatrix([[0 if rng.random() < 0.55 else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(ncols)] for _ in range(nrows)])


def test_cyclic_form_upper_triangular():
    m = PresentedModule((("d", "-1"), ("0", "t")))
    found = cyclic_form(m)
    assert found is not None
    cyc, witness = found
    assert cyc.p == t * d
    assert witness.verify()


def test_cyclic_form_returns_verified_witness():
    m = PresentedModule((("d", "-2"), ("-1", "t")))
    found = cyclic_form(m, 8)
    assert found is not None
    cyc, witness = found
    assert witness.verify()
    assert as_presented(witness.source).delta == ((cyc.p,),)
    assert as_presented(witness.target).delta == m.delta


def test_image_span_and_witness():
    m = PresentedModule((("d", "-1"), ("-1", "t")))
    span = module_image_span(m, 4)
    p = t * d - one
    vec = (p, WeylElement.zero())
    assert not any(span.reduce(vec))
    coeffs = image_witness(m, vec, 4)
    assert coeffs is not None
    for k in range(2):
        got = sum(
            (coeffs[i] * m.delta[i][k] for i in range(2)), WeylElement.zero()
        )
        assert got == vec[k]


def test_weyl_linear_system_solve_and_kernel():
    # solve the commutator equation d x - x d = t inside the algebra
    sys = WeylLinearSystem()
    sys.unknown("x", 2)
    sys.equate([(d, "x", one, 1), (one, "x", d, -1)], rhs=t)
    sol = sys.solve()
    assert sol is not None
    assert d * sol["x"] - sol["x"] * d == t

    hom = WeylLinearSystem()
    hom.unknown("y", 0)
    hom.equate([(one, "y", one, 1)])
    kernel = hom.kernel()
    assert kernel == []

    bad = WeylLinearSystem()
    bad.unknown("z", 0)
    bad.equate([(one, "z", one, 1)], rhs=one)
    with pytest.raises(ValueError):
        bad.kernel()

    # no unknown reaches the monomial t of the right-hand side
    unreached = WeylLinearSystem()
    unreached.unknown("z", 0)
    unreached.equate([(one, "z", one, 1)], rhs=t)
    assert unreached.solve() is None

    # x - x = 0: every term cancels, so no column may become a pivot
    free = WeylLinearSystem()
    free.unknown("x", 2)
    free.equate([(one, "x", one, 1), (one, "x", one, -1)])
    assert [v["x"] for v in free.kernel()] == [
        WeylElement.monomial(i, j) for i, j in truncated_monomials(2)
    ]
    assert free.solve() == {"x": WeylElement.zero()}


def test_systems_and_spans_eliminate_through_rref_rows(work):
    # counted as forward passes, which every exit of the kernel runs once
    sys = WeylLinearSystem()
    sys.unknown("x", 2)
    sys.equate([(d, "x", one, 1), (one, "x", d, -1)], rhs=t)
    assert sys.solve() is not None
    assert work["linalg.echelon"] == 1
    hom = WeylLinearSystem()
    hom.unknown("y", 1)
    hom.equate([(one, "y", d, 1)])
    assert hom.kernel() == []
    assert work["linalg.echelon"] == 2
    span = TruncatedSpan([(t,), (t * d,)], 1, 3)
    assert len(span.pivot_degrees()) == 2 and work["linalg.echelon"] == 3
    assert not any(span.reduce((t * 2,))) and work["linalg.echelon"] == 3


# the digest of the rows, offsets and total of every system assembled
# below, as two general products per coefficient, left * t^a d^b * right,
# gave them
ASSEMBLED_SHA256 = "a89d8e46473a84377c41e6dbc96696f1b0fd7a3b875554064648bc28d79dd2c0"


def test_assemble_matches_product_oracle(monkeypatch):
    # every system the searches build assembles to the rows, offsets and
    # total that two general products per coefficient give
    builders = set()
    assemble = WeylLinearSystem._assemble
    assembled = []

    def checked(system):
        builders.add(inspect.currentframe().f_back.f_back.f_code.co_name)
        assembled.append(assemble(system))
        return assembled[-1]

    monkeypatch.setattr(WeylLinearSystem, "_assemble", checked)
    clear_caches()
    for a in (Fraction(2), Fraction(-1, 2), Fraction(5, 3)):
        identify_specialization(representative("T_2_6", {"a": a}))
        # identification builds no system; a cyclic search between shifts does
        iso_witness(CyclicModule(t * d - a), CyclicModule(t * d - a + 1), 8)
    # no constant entry, so only the annihilator search can find its form
    found = cyclic_form(PresentedModule((("t*d", "d"), ("t", "d*t"))), 8)
    assert found[0].p == parse_weyl("t^2*d^2 + 2*t*d - 1")
    for rel in ("t^2*d - 3", "t*d^2 + 3/4*d^2 - 2/5*t*d + 5/7*d - 7/3"):
        hom_search(rel, "d", 8)
        hom_search("d", rel, 8)
    clear_caches()
    assert len(assembled) == 48
    assert digest(assembled) == ASSEMBLED_SHA256
    assert builders >= {"image_witness", "_certify_generator",
                        "_generator_form"}
    # the cyclic certificate reads normal forms modulo Dp instead
    assert "_finish_cyclic_iso" not in builders


def test_image_witness_answers_span_membership():
    # the generator search asks image_witness alone, so it must give the
    # span's answer on images and on random vectors alike
    rng = random.Random(11)
    zero = WeylElement.zero()
    for m in (PresentedModule((("d", "-1"), ("-1", "t"))),
              PresentedModule((("d", "2"), ("0", "t^2")))):
        span = module_image_span(m, 6)
        for trial in range(30):
            if trial % 2:
                c = [rand_weyl(rng, max_deg=2) for _ in range(2)]
                vec = tuple(sum((c[i] * m.delta[i][k] for i in range(2)), zero)
                            for k in range(2))
                assert not any(span.reduce(vec))
            else:
                vec = (rand_weyl(rng), rand_weyl(rng))
            assert (image_witness(m, vec, 6) is not None) == (not any(span.reduce(vec)))


def test_degree_bound_validation():
    clear_caches()
    for cap in (17, -1, True, False):
        with pytest.raises(ValueError):
            iso_witness(CyclicModule("d"), CyclicModule("d"), cap)
        with pytest.raises(ValueError):
            hom_search("t*d", "t*d - 1", cap)
    # a refused bool left no memo entry for the equal int to read
    basis = hom_search("t*d", "t*d - 1", 1)
    assert basis.max_degree == 1 and type(basis.max_degree) is int


def test_cyclic_searches_refuse_presented_modules():
    for search in (hom_search, ext1_dim):
        with pytest.raises(TypeError, match="expects cyclic modules"):
            search(PresentedModule((("t",),)), "d", 4)
    # and the search for a cyclic form takes only a presentation
    for bad in (CyclicModule("d"), "t*d - 1", 5):
        with pytest.raises(TypeError, match="cyclic_form expects a PresentedModule"):
            cyclic_form(bad, 4)


def test_iso_witness_without_cyclic_forms_is_none():
    # D/Dt + D/Dd in either order: neither side has a cyclic form at these
    # caps, so there is nothing to search between and the answer is None
    a = PresentedModule((("t", "0"), ("0", "d")))
    b = PresentedModule((("d", "0"), ("0", "t")))
    for cap in range(3):
        assert cyclic_form(a, cap) is None and cyclic_form(b, cap) is None
        assert iso_witness(a, b, cap) is None


def test_cyclic_iso_tries_at_most_twelve_candidates(monkeypatch):
    # six Hom generators have fifteen pair sums; the first six, in (i, j)
    # order, join them, and all twelve have degree <= 2, so the first rung
    # tries every one and the later rungs, with the same lists, none
    basis = (one, t, d, t ** 2, t * d, d ** 2)
    monkeypatch.setattr(modules, "hom_search",
                        lambda a, b, cap: SimpleNamespace(dim=len(basis), basis=basis))
    tried = []
    monkeypatch.setattr(modules, "_finish_cyclic_iso",
                        lambda a, b, r, s_pool, cap: tried.append(r))
    assert modules._cyclic_iso(CyclicModule("t*d - 1"), CyclicModule("t*d - 2"), 8) is None
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]
    assert tried == [*basis, *(basis[i] + basis[j] for i, j in pairs)]


def test_iso_presented_to_presented():
    a = PresentedModule((("d", "-1"), ("-1", "t")))
    b = PresentedModule((("d", "-1/2"), ("-2", "t")))
    w = iso_witness(a, b, 8)
    assert w is not None
    assert w.verify()


@pytest.mark.parametrize("cap", [8, 10, 12])
def test_iso_reaches_presentations_through_their_cyclic_form(cap):
    # the a = -2 specialization is D/D(t*d + 1), but no short generator
    # maps t*d + 1 straight into it: the witness goes via its cyclic form
    delta = specialize(representative("T_2_6", {"a": Fraction(-2)}))
    w = iso_witness("t*d + 1", delta, cap)
    assert w is not None and w.verify()
    back = iso_witness(delta, "t*d + 1", cap)
    assert back is not None and back.verify()
