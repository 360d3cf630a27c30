"""One route from a presentation to its cyclic form, and one chain per Delta'.

iso_witness maps a cyclic form into a presentation that has none of its
own through cyclic_form's generator loop, given the form's relation; it
must find exactly what ``conftest.cyclic_to_presented_iso``, the
generator-by-generator loop it replaced, found.  The pivot chain is
memoized, so cross_certify's two identifications of one Delta' build it
once.  Every memo registered through ``modules._memo`` is reached by a
public call and emptied by clear_caches().
"""

import hashlib
import json

from weyldeform import (
    IsoWitness,
    PresentedModule,
    WeylElement,
    classify,
    clear_caches,
    compose_iso,
    cross_certify,
    cyclic_form,
    ext1_dim,
    hom_search,
    identify_specialization,
    iso_witness,
    representative,
)
from weyldeform import cli, modules
from weyldeform.cli import _witness_json

from conftest import cyclic_to_presented_iso
from test_identify_normal_form import SAMPLES

_T, _D, _ONE, _ZERO = WeylElement.t(), WeylElement.d(), WeylElement.one(), WeylElement.zero()
Y = {"t": _T, "t*d*t": _T * _D * _T, "t + t^2": _T + _T * _T, "t - t^2*d": _T - _T * _T * _D}


def alternating_word(length: int, last: WeylElement) -> WeylElement:
    """The alternating word in t and d of the given degree, ending in last."""
    other = _D if last == _T else _T
    q = _ONE
    for k in range(length):
        q = (other if k % 2 else last) * q
    return q


def route_family():
    """(key, S, T): S = [[d, -1], [0, q]] presents D/D(q*d), and T is S
    after col1 += col0 * y, so it has no constant entry to pivot on."""
    for length in range(6, 10):
        for last in ("t", "d"):
            q = alternating_word(length - 1, _T if last == "t" else _D)
            s_mod = PresentedModule(((_D, -_ONE), (_ZERO, q)))
            for name, y in Y.items():
                yield (length, last, name), s_mod, PresentedModule(((_D, -_ONE + _D * y), (_ZERO, q)))


def _bytes(w: IsoWitness) -> str:
    return json.dumps(_witness_json(w))


def test_presented_route_finds_what_the_generator_loop_found(monkeypatch):
    # cap 8 only, to keep the test short; caps 6 and 10 give the same
    # found/not-found sets as the reference too
    cap = 8
    own_form = modules._own_form
    with_p = []

    def spy(m, n_cap, p=None):
        if p is not None:
            with_p.append(m)
        return own_form(m, n_cap, p)

    monkeypatch.setattr(modules, "_own_form", spy)
    route = positives = 0
    changed = set()
    for key, s_mod, t_mod in route_family():
        clear_caches()
        cyc_a, w_a = cyclic_form(s_mod, cap)
        got, back = iso_witness(s_mod, t_mod, cap), iso_witness(t_mod, s_mod, cap)
        assert (got is None) == (back is None), key
        for w in (got, back):
            assert w is None or w.verify(), key
        if cyclic_form(t_mod, cap) is not None:
            continue
        route += 1
        ref = cyclic_to_presented_iso(cyc_a, t_mod, cap)
        assert (got is None) == (ref is None), key
        if got is not None:
            positives += 1
            if _bytes(got) != _bytes(compose_iso(w_a.reversed(), ref)):
                changed.add(key)
    clear_caches()
    assert len(with_p) == route
    assert (route, positives) == (26, 12)
    # the declared changes: generator 0 certifies only at s rung 6 and
    # generator 4 at rung 2 or 4, so rung by rung generator 4 comes first
    assert changed == {(7, "t", "t"), (7, "t", "t - t^2*d")}


def _counted(monkeypatch, counts, owner, name):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_cross_certify_builds_one_chain(monkeypatch):
    counts = {"_pivot_chain": 0, "verify": 0}
    _counted(monkeypatch, counts, modules, "_pivot_chain")
    _counted(monkeypatch, counts, IsoWitness, "verify")
    digest = hashlib.sha256()
    for a in SAMPLES:
        clear_caches()
        counts.update(_pivot_chain=0, verify=0)
        w = cross_certify(representative("T_2_6", {"a": a}), (2, a / 2), 8)
        assert w is not None
        # one chain for the two identifications of one Delta': 2 before
        # the chain was memoized
        assert counts == {"_pivot_chain": 1, "verify": 3}, a
        digest.update(_bytes(w).encode())
    clear_caches()
    # the witnesses' bytes before the chain was memoized
    assert digest.hexdigest() == "22357e9e657929ba82cd330f4dd125463de7ba6f253687450e84c3e4fa1ab99e"


PAIR = PresentedModule((("d", "-1"), ("-1", "t")))


def test_every_memo_is_reached_and_cleared(capsys):
    clear_caches()
    cli.main(["ext"])
    capsys.readouterr()
    iso_witness("t*d - 1", "t*d - 2", 6)
    hom_search("t*d", "t", 6)
    cyclic_form(PAIR, 6)
    modules.module_image_span(PAIR, 6)
    ext1_dim("t*d", "t", 6)
    classify(3)
    identify_specialization(representative("T_3_6"), 2)
    assert modules._MEMOS
    for memo in modules._MEMOS:
        assert memo.cache_info().currsize > 0, memo.__wrapped__.__qualname__
    clear_caches()
    for memo in modules._MEMOS:
        assert memo.cache_info().currsize == 0, memo.__wrapped__.__qualname__
