"""weyl._counting(), the one work counter, and the pin of what tests rebind.

A tally outside a block changes nothing; a block restores the one around
it, on an exception too; a cold call list counts the same twice and
answers the same with counting on and off.  Tests count work through the
counter, so a test rebinds a library name only to inject a fault, to
check an oracle or to spy on values.
"""

import ast
import contextlib
from pathlib import Path

import pytest

from weyldeform import PresentedModule, classify, clear_caches, ext_table, identify_specialization, iso_witness
from weyldeform import modules, weyl
from weyldeform.weyl import _counting, _tally

from conftest import digest
from test_identify_normal_form import string_rep

# the second presentation has no cyclic form of its own, so iso_witness
# runs its generator loop with the first one's relation
_Q = "t^3*d^3 + 6*t^2*d^2 + 7*t*d + 1"
CALLS = [
    lambda: ext_table(["d", "t", "t*d - 1/2", "d^2 - 2"], 12),
    lambda: identify_specialization(string_rep(1, 10)),
    lambda: iso_witness(PresentedModule((("d", "-1"), ("0", _Q))),
                        PresentedModule((("d", "t*d"), ("0", _Q))), 8),
    lambda: classify(3),
]


def _cold_run(counted: bool):
    clear_caches()
    with _counting() if counted else contextlib.nullcontext() as work:
        answers = digest([repr(call()) for call in CALLS])
    clear_caches()
    return answers, work


def test_a_cold_call_list_counts_the_same_twice_and_answers_as_uncounted():
    first, second, plain = _cold_run(True), _cold_run(True), _cold_run(False)
    assert first == second and first[0] == plain[0]
    for unit in ("linalg.echelon", "weyl.q_multiples", "modules.own_form_with_p",
                 "reps.block_normal_form", "reps.normal_form.misses"):
        assert first[1][unit] > 0, unit


def test_a_block_restores_the_one_around_it_and_a_tally_outside_keeps_nothing():
    _tally("weyl.mul")
    assert weyl._WORK.get() is None
    with _counting() as outer:
        with _counting() as inner:
            _tally("weyl.mul", 2)
            assert weyl._WORK.get() is inner
        with pytest.raises(ZeroDivisionError), _counting() as failed:
            _tally("weyl.shift")
            1 / 0
        assert weyl._WORK.get() is outer
    assert weyl._WORK.get() is None
    # each block counts only the work done outside the blocks inside it
    assert (inner["weyl.mul"], failed["weyl.shift"]) == (2, 1)
    assert (outer["weyl.mul"], outer["weyl.shift"]) == (0, 0)


def test_memo_counts_are_the_cache_info_deltas():
    clear_caches()
    ext_table(["d", "t"], 8)
    before = {memo: memo.cache_info() for memo in modules._MEMOS}
    with _counting() as work:
        ext_table(["d", "t", "t*d - 1/2"], 8)
        classify(2)
    after = {memo: memo.cache_info() for memo in modules._MEMOS}
    clear_caches()
    assert any(after[memo].hits > info.hits for memo, info in before.items())
    for memo, info in before.items():
        name = f"{memo.__module__.rpartition('.')[2]}.{memo.__qualname__}"
        assert work[name + ".hits"] == after[memo].hits - info.hits, name
        assert work[name + ".misses"] == after[memo].misses - info.misses, name


REBINDINGS = sorted([
    ("test_cli.py", "cli._render"), ("test_cli.py", "sys.argv"),
    ("test_modules.py", "WeylLinearSystem._assemble"),  # the product oracle
    ("test_modules.py", "modules._finish_cyclic_iso"), ("test_modules.py", "modules.hom_search"),
    ("test_one_route.py", "modules._finish_cyclic_iso"),
    ("test_proved_window.py", "modules._window_proof"),  # the unproved reference
    ("test_verify_once.py", "IsoWitness.verify"), ("test_verify_once.py", "IsoWitness.verify"),
    ("test_versal.py", "weyldeform.versal.iso_witness"),
    ("test_weyl.py", "WeylElement.__mul__"),  # spies on the product degrees
])


def _target(call: ast.Call) -> str:
    owner, attr = call.args[0], call.args[1]
    if isinstance(owner, ast.Constant):  # monkeypatch.setattr("pkg.mod.name", value)
        return owner.value
    return f"{ast.unparse(owner)}.{attr.value if isinstance(attr, ast.Constant) else ast.unparse(attr)}"


def test_tests_rebind_only_to_inject_faults_check_oracles_or_spy():
    found = sorted((path.name, _target(node)) for path in Path(__file__).parent.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call) and "setattr" in (getattr(node.func, "attr", None),
                                                                  getattr(node.func, "id", None)))
    assert found == REBINDINGS
