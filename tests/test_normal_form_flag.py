"""The block normal form and the quiver form, against the dense oracles.

``conftest.dense_block_normal_form`` is the normal form before it built
the kernel flag from block products and skipped the levels with no
string; dims, strings, factors and every basis entry must agree with it
exactly.  ``quiver_form`` reads basis^-1 off its kernels' free columns,
and that must be the inverse.
"""

import random

import pytest

from weyldeform import (
    QMatrix,
    RelationViolation,
    Representation,
    clear_caches,
    normal_form,
    quiver_form,
    representative,
)
from weyldeform.reps import _block_normal_form, _eigenbasis
from weyldeform.weyl import _counting

from conftest import dense_block_normal_form, rand_invertible, rand_unimodular
from test_identify_normal_form import factor_rep, listed_inputs, rand_block_rep, string_rep


def assert_oracle_form(key, rep):
    form = quiver_form(rep)
    got = _block_normal_form(*form.dims, form.a, form.b)
    want = dense_block_normal_form(*form.dims, form.a, form.b)
    assert (got.dims, got.strings, got.factors) == (want.dims, want.strings, want.factors), key
    assert got.basis.to_rows() == want.basis.to_rows(), key


def test_listed_representatives_match_the_dense_form():
    for key, rep, _ in listed_inputs():
        assert_oracle_form(key, rep)


def test_random_sums_and_their_conjugates_match_the_dense_form():
    rng = random.Random(1638)
    for n in range(2, 17):
        rep = rand_block_rep(rng, n)
        assert_oracle_form(f"random {n}", rep)
        assert_oracle_form(f"conjugated {n}", rep.conjugate(rand_unimodular(rng, n)))


@pytest.mark.parametrize("v", [1, 2])
def test_strings_match_the_dense_form(v):
    for length in range(1, 31):
        assert_oracle_form(f"string {v},{length}", string_rep(v, length))


def test_sums_of_repeated_strings_match_the_dense_form():
    rng = random.Random(1639)
    for _ in range(24):
        pieces = [(rng.randint(1, 2), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        pieces.append(rng.choice(pieces))
        rep = string_rep(*pieces[0])
        for piece in pieces[1:]:
            rep = rep.direct_sum(string_rep(*piece))
        assert_oracle_form(pieces, rep)
        assert sorted(normal_form(rep).strings) == sorted(pieces)


def test_factors_match_the_dense_form():
    for f in ((1,), (-2,), (1, 2), (1, 0, -1), (1, 2, 0, -1, 3), (2, -1, 0, 1, 1, -3)):
        assert_oracle_form(f, factor_rep(f))
    split = factor_rep((2, 3)).direct_sum(factor_rep((2, 3))).direct_sum(string_rep(2, 3))
    assert_oracle_form("two equal factors and a string", split)


def test_quiver_basis_inverse_is_read_off_the_free_columns():
    rng = random.Random(1640)
    reps = [rep for _, rep, _ in listed_inputs()]
    reps += [rand_block_rep(rng, n).conjugate(rand_invertible(rng, n)) for n in range(1, 9)]
    for rep in reps:
        p, basis, binv = _eigenbasis(rep.e1)
        assert binv * basis == QMatrix.identity(rep.n)
        assert basis.to_rows() == quiver_form(rep).basis.to_rows()
        assert p == quiver_form(rep).dims[0]
    # e1 - I and e1 with kernels that do not span: 2 is no eigenvalue,
    # and a nilpotent e1 has one eigenvector
    assert _eigenbasis(QMatrix([[2]])) is None
    assert _eigenbasis(QMatrix([[0, 1], [0, 0]])) is None


BROKEN_TRIPLES = {
    "e1 not idempotent": ([[2]], [[1]], [[0]]),
    "e1 nilpotent": ([[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
    "s12 out of block": ([[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]),
    "s21 out of block": ([[1, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 1], [0, 0]]),
}


@pytest.mark.parametrize("triple", BROKEN_TRIPLES.values(), ids=BROKEN_TRIPLES.keys())
def test_broken_triples_still_raise(triple):
    clear_caches()
    for _ in range(2):
        with pytest.raises(RelationViolation):
            quiver_form(Representation(*triple))


def test_empty_blocks_keep_their_shape():
    assert quiver_form(representative("T_2_1")).a.shape == (0, 2)
    assert quiver_form(representative("T_2_1")).b.shape == (2, 0)
    assert quiver_form(representative("T_3_2")).b.shape == (0, 3)
    assert quiver_form(representative("T_3_2")).a.shape == (3, 0)


def test_integer_triple_hits_the_memo_of_its_equal():
    rep = representative("T_4_25", {"e": 2})
    ints = Representation(*(QMatrix._of(tuple(tuple(int(x) for x in row) for row in m._rows))
                            for m in rep.triple()))
    assert ints == rep and hash(ints) == hash(rep)
    clear_caches()
    assert normal_form(ints) is normal_form(Representation(*rep.triple()))


def test_cold_string_normal_form_work():
    # the flag takes two kernel_basis calls per level, and the complement
    # is computed at the one level where the string is: the dense route
    # made 246 eliminations here
    length = 60
    rep = string_rep(1, length)
    clear_caches()
    # every exit of the elimination kernel runs its forward pass
    with _counting() as work:
        form = normal_form(rep)
    clear_caches()
    assert form.strings == ((1, length),)
    assert work["linalg.echelon"] <= 2 * length + 10


def test_cold_string_normal_form_hands_the_kernel_integers():
    # the flag's kernels, their images under T and the span tests hold
    # primitive integer vectors: on Fraction vectors this normal form
    # handed the kernel 113,340 entries that were not ints
    length = 60
    rep = string_rep(1, length)
    clear_caches()
    with _counting() as work:
        form = normal_form(rep)
    clear_caches()
    assert form.strings == ((1, length),)
    assert work["linalg.rows"] > length
    assert work["linalg.fraction_rows"] == 0
