"""The pointed quiver algebra: shape, relations, truncated dimensions."""

import pytest
from dataclasses import replace

from weyldeform import (
    ext_table,
    hull_unobstructed,
    classify,
    representative,
    satisfies,
)

from conftest import path_count_dims


def the_hull():
    return hull_unobstructed(ext_table(max_degree=8))


def test_quiver_shape():
    hull = the_hull()
    assert hull.points == ("e1", "e2")
    names = [(a.name, a.source, a.target) for a in hull.arrows]
    assert names == [("s12", 2, 1), ("s21", 1, 2)]
    assert hull.arrow_counts == ((0, 1), (1, 0))


def test_relations_exact_display():
    hull = the_hull()
    assert [r.display for r in hull.relations] == [
        "s12^2 = s21^2 = 0",
        "e1^2 = e1",
        "e1*s12 = s12",
        "s21*e1 = s21",
        "s12*e1 = 0",
        "e1*s21 = 0",
    ]


def test_trunc_dims_match_path_oracle():
    hull = the_hull()
    for m in range(1, 9):
        oracle = path_count_dims(hull.arrow_counts, m)
        assert hull.trunc_dim(m) == oracle
        assert hull.trunc_dim(m) == 2 * m


def test_loop_table_hull():
    base = ext_table(max_degree=8)
    loop = replace(base, dims1=((1, 0), (0, 0)))
    hull = hull_unobstructed(loop)
    assert [a.name for a in hull.arrows] == ["s11"]
    assert [r.display for r in hull.relations] == [
        "e1^2 = e1",
        "e1*s11 = s11",
        "s11*e1 = s11",
    ]
    dims = [hull.trunc_dim(m) for m in range(6)]
    assert dims == [0, 2, 3, 4, 5, 6]
    for m in range(1, 6):
        assert dims[m] == path_count_dims(loop.dims1, m)


def test_rigid_table_hull():
    base = ext_table(max_degree=8)
    rigid = replace(base, dims1=((0, 0), (0, 0)))
    hull = hull_unobstructed(rigid)
    assert hull.arrows == ()
    assert [r.display for r in hull.relations] == ["e1^2 = e1"]
    assert hull.trunc_dim(1) == 2
    assert hull.trunc_dim(5) == 2


def test_multiplicity_arrow_names():
    base = ext_table(max_degree=8)
    doubled = replace(base, dims1=((0, 2), (1, 0)))
    hull = hull_unobstructed(doubled)
    assert [a.name for a in hull.arrows] == ["s12_1", "s12_2", "s21"]
    for m in range(1, 7):
        assert hull.trunc_dim(m) == path_count_dims(doubled.dims1, m)


def test_three_point_table_rejected():
    table = ext_table(("d", "t", "t*d - 1/2"), max_degree=8)
    with pytest.raises(ValueError):
        hull_unobstructed(table)


def test_two_point_rule_only():
    base = ext_table(max_degree=8)
    tripled = replace(
        base,
        modules=base.modules + (base.modules[0],),
        dims1=((0, 1, 0), (1, 0, 0), (0, 0, 0)),
        dims2=((0,) * 3,) * 3,
    )
    with pytest.raises(ValueError):
        hull_unobstructed(tripled)


def test_trunc_dim_rejects_negative():
    hull = the_hull()
    with pytest.raises(ValueError):
        hull.trunc_dim(-1)


def test_relations_annihilate_all_representatives():
    hull = the_hull()
    for n in (1, 2, 3):
        result = classify(n)
        for fam in result.families:
            rep = fam.representative
            for relation in hull.relations:
                assert satisfies(rep, relation)
    for value in ("1", "-3", "2/7"):
        rep = representative("T_2_6", {"a": value})
        for relation in hull.relations:
            assert satisfies(rep, relation)
