"""Extension spaces of the cyclic pair and their stabilization."""

import pytest

import weyldeform
from weyldeform import cli
from weyldeform import (
    CyclicModule,
    PresentedModule,
    WeylElement,
    ext1_dim,
    ext_table,
    normal_form,
    quiver_form,
    representative,
)
from weyldeform.modules import _find_cyclic_form
from weyldeform.weyl import _counting

one = WeylElement.one()


def test_crossing_extensions_are_lines():
    res = ext1_dim("d", "t", 8)
    assert res.dim == 1
    assert res.representatives == (one,)
    dim, reps = res
    assert (dim, reps) == (1, (one,))

    res = ext1_dim("t", "d", 8)
    assert res.dim == 1
    assert res.representatives == (one,)


def test_self_extensions_vanish():
    assert ext1_dim("d", "d", 8).dim == 0
    assert ext1_dim("t", "t", 8).dim == 0
    assert ext1_dim("d", "d", 8).representatives == ()


PAIR = PresentedModule((("d", "-1"), ("-1", "t")))


@pytest.mark.parametrize("call, value", [
    pytest.param(lambda: _find_cyclic_form(PAIR, 6), lambda r: r, id="_find_cyclic_form"),
    pytest.param(lambda: quiver_form(representative("T_3_7", {"b": 2})),
                 lambda r: (r, r.basis), id="quiver_form"),
    pytest.param(lambda: normal_form(representative("T_4_22", {"e": 3})),
                 lambda r: (r, r.basis), id="normal_form"),
    pytest.param(lambda: cli._answer(("ext",)), lambda r: r, id="cli._answer"),
])
def test_clear_caches_empties_every_memo(call, value):
    first = call()
    assert call() is first
    weyldeform.clear_caches()
    again = call()
    assert again is not first
    assert value(again) == value(first)


def test_stabilization_of_crossing_entry():
    res = ext1_dim("d", "t", 10)
    assert res.stabilized_at is not None
    assert res.stabilized_at <= 6
    assert res.stable
    # values are flat from the stabilization point on
    tail = res.dims[res.stabilized_at:]
    assert all(v == tail[0] for v in tail)


def test_dims_independent_of_degree_cap():
    low = ext1_dim("d", "t", 8)
    high = ext1_dim("d", "t", 12)
    assert low.dim == high.dim
    assert high.dims[: len(low.dims)] == low.dims


def test_inputs_coerce_from_elements_and_modules():
    a = ext1_dim(CyclicModule("d"), CyclicModule("t"), 8)
    b = ext1_dim("d", "t", 8)
    assert a.dim == b.dim and a.representatives == b.representatives
    # a string is one module's relation, not a sequence of modules
    for bad in ("dt", "t*d - 1"):
        with pytest.raises(TypeError, match="ext_table expects"):
            ext_table(bad, 4)


def test_default_table_parses_its_pair_once():
    first = ext_table()
    assert first.modules == (CyclicModule("d"), CyclicModule("t"))
    with _counting() as work:
        second = ext_table()
    assert work["weyl.parse"] == 0
    assert all(a is b for a, b in zip(first.modules, second.modules, strict=True))
    assert second == first


def test_full_table():
    table = ext_table(max_degree=8)
    assert table.dims1 == ((0, 1), (1, 0))
    assert table.dims2 == ((0, 0), (0, 0))
    assert table.stabilized_at is not None
    assert table.stabilized_at <= 6
    assert table.stable
    # the two nonzero entries are spanned by the class of 1
    assert table.representatives[0][1] == (one,)
    assert table.representatives[1][0] == (one,)


def test_table_with_a_late_jump_has_not_stabilized():
    # Ext^1 into D/D(t*d^2 - 5*d + 1) grows at degree 6, one short of the
    # run of equal values that stabilization needs below the cap 7
    table = ext_table(["t", "t*d^2 - 5*d + 1"], 7)
    assert table.dims1 == ((0, 1), (1, 2))
    assert table.stabilized_at is None and not table.stable


def test_three_point_table_has_no_second_extensions():
    table = ext_table(("d", "t", "t*d - 1/2"), max_degree=8)
    assert table.dims2 == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert table.dims1 == ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def test_nontrivial_pair_extension():
    # D/(pD + Dq) for p = q = t*d has the constants and more in degree 0
    res = ext1_dim("t*d", "t*d", 8)
    assert res.dim >= 1
