"""One route from a presentation to its cyclic form, and one chain per Delta'.

iso_witness maps a cyclic form into a presentation that has none of its
own through cyclic_form's generator loop, given the form's relation; it
must find exactly what the generator-by-generator loop it replaced found,
pinned by the digests (conftest.digest) of that loop's witnesses.  The pivot chain is
memoized, so cross_certify's two identifications of one Delta' build it
once.  Every memo registered through ``weyl._memo`` is reached by a
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
    cross_certify,
    cyclic_form,
    iso_witness,
    representative,
)
from weyldeform import cli, modules
from weyldeform.cli import _witness_json

from conftest import digest
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


# The generator-by-generator loop at cap 8, each generator in turn at every
# s rung: the route inputs where it found a witness, with the digest of
# that witness composed after the reversed form witness of S
LOOP_WITNESS_SHA256 = {
    (7, "t", "t"): "21727bf4d5427d1de25893ee67bce8c2c9dc7249dfdb0a2f32ab572689979f4a",
    (7, "t", "t*d*t"): "c0377d4305f060bc4d897661bf37a04c470a58f0c89d26fc0d38f80a11b8f72d",
    (7, "t", "t - t^2*d"): "1385c15bfcc8ed1b49ae17327d8287625aac9e94b3631ef4e3d32185d517afb5",
    (7, "d", "t"): "414a9e825ac8ba5efc86456b71ac5bf9c187cd523107efac940055b6d6d52c5c",
    (7, "d", "t*d*t"): "91accad620d5c4842f78cbe5f493182ec632fe54bbce13fb83cf5eba61bd2c25",
    (7, "d", "t - t^2*d"): "8ddffd3a6d71548273d11c321109317cfa9956312c4198cedde0577f08aab6f4",
    (8, "t", "t"): "06c63d9335a02431cbfeb370247c7c9ab67011ba7c7c6aa88b014101205a3896",
    (8, "t", "t*d*t"): "19b06744954ba21ba204a07d35fcda5974bbf4392038abadf4692e0f2be83233",
    (8, "d", "t"): "e04cca7352fa5df6e15118ae3332726fd2a027893c1e560e8f4aaf2b36d5f507",
    (9, "t", "t"): "5bbb1d01490d53a38fed91e2c91cf6818aae7279c40111cfe7297f5d1103072d",
    (9, "t", "t*d*t"): "93a68798cbcfba107002140bfadac69e3fa01d5c81161c705d68179cc7d0e64b",
    (9, "d", "t"): "48c91adb8f1ec6218a165ff95532f75cf150b688de31ab1f868fca0bbbe7610b",
}


def test_presented_route_finds_what_the_generator_loop_found(work):
    # cap 8 only, to keep the test short; caps 6 and 10 give the same
    # found/not-found sets as the reference too
    cap = 8
    route = positives = 0
    changed = set()
    for key, s_mod, t_mod in route_family():
        clear_caches()
        assert cyclic_form(s_mod, cap) is not None, key
        got, back = iso_witness(s_mod, t_mod, cap), iso_witness(t_mod, s_mod, cap)
        assert (got is None) == (back is None), key
        for w in (got, back):
            assert w is None or w.verify(), key
        if cyclic_form(t_mod, cap) is not None:
            continue
        route += 1
        assert (got is None) == (key not in LOOP_WITNESS_SHA256), key
        if got is not None:
            positives += 1
            if digest(got) != LOOP_WITNESS_SHA256[key]:
                changed.add(key)
    clear_caches()
    # iso_witness(t_mod, s_mod) answers by reversing iso_witness(s_mod,
    # t_mod), which runs the loop again: one loop per direction
    assert work["modules.own_form_with_p"] == 2 * route
    assert (route, positives) == (26, 12)
    # the declared changes: generator 0 certifies only at s rung 6 and
    # generator 4 at rung 2 or 4, so rung by rung generator 4 comes first
    assert changed == {(7, "t", "t"), (7, "t", "t - t^2*d")}


def test_cross_certify_builds_one_chain(work):
    digest = hashlib.sha256()
    for a in SAMPLES:
        clear_caches()
        work.clear()
        w = cross_certify(representative("T_2_6", {"a": a}), (2, a / 2), 8)
        assert w is not None
        # one chain for the two identifications of one Delta': 2 before
        # the chain was memoized
        assert (work["modules.pivot_chain"], work["modules.verify"]) == (1, 3), a
        digest.update(_bytes(w).encode())
    clear_caches()
    # the witnesses' bytes before the chain was memoized
    assert digest.hexdigest() == "22357e9e657929ba82cd330f4dd125463de7ba6f253687450e84c3e4fa1ab99e"


PAIR = PresentedModule((("d", "-1"), ("-1", "t")))
KEPT_MEMOS = ("_normal_form_table", "_find_cyclic_form", "quiver_form", "normal_form",
              "_families_by_key", "_answer")


def test_every_memo_is_reached_and_cleared(capsys):
    clear_caches()
    cli.main(["ext"])
    capsys.readouterr()
    cyclic_form(PAIR, 6)
    classify(3)
    # a memo is process state: one is kept only where a workload repeats
    # the question, so a new one is a reviewed change
    assert sorted(memo.__wrapped__.__qualname__ for memo in modules._MEMOS) == sorted(KEPT_MEMOS)
    for memo in modules._MEMOS:
        assert memo.cache_info().currsize > 0, memo.__wrapped__.__qualname__
    clear_caches()
    for memo in modules._MEMOS:
        assert memo.cache_info().currsize == 0, memo.__wrapped__.__qualname__
