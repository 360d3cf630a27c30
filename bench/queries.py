"""How each kind of query runs against the library and is re-checked.

Every kind has three parts:

- ``prepare(api, *args)`` builds the library inputs; it is neither timed
  nor traced;
- ``call(api, *inputs)`` is the one library call that is timed;
- ``check(api, inputs, result)`` re-checks the answer from the
  benchmark's side, untimed and untraced, and returns ``(answered,
  canonical answer)``.  ``answered`` means a certified positive, as the
  CLI's exit code 0 means it: a verified witness, an identified
  specialization, a conjugator that checks, a label that matches, a
  stabilized Hom or Ext profile, a definite yes/no of a complete test.

``check`` raises ``CheckFailed`` when a certificate or an expected
answer does not hold, and ``QueryFailed`` when the call reported an
error instead of an answer (the CLI's exit code 1).  Positive answers
are re-checked with arithmetic written here, not with the library's
own linear algebra, where that is short: conjugators and invariant
subspaces.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as Q

from workloads import FAMILY_PARAMETERS


class CheckFailed(Exception):
    """A returned answer failed the benchmark's own re-check."""


class QueryFailed(Exception):
    """The call reported an error instead of an answer."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- exact arithmetic owned by the benchmark --------------------------------


def _rows(m) -> list[list[Q]]:
    return [list(m.row(i)) for i in range(m.nrows)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _rank(rows) -> int:
    mat = [[Q(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c] / mat[rank][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _check_conjugator(g, rep1, rep2) -> None:
    """g must be invertible with g x g^-1 = x' for all three matrices."""
    gr = _rows(g)
    _require(_rank(gr) == len(gr), "conjugator is singular")
    for x, xp in zip(rep1.triple(), rep2.triple()):
        _require(_matmul(gr, _rows(x)) == _matmul(_rows(xp), gr),
                 "conjugator does not intertwine")


def _check_invariant(rep, basis) -> None:
    dim = _rank(basis)
    _require(0 < dim < rep.n, "submodule is not proper")
    for m in rep.triple():
        rows = _rows(m)
        images = [[sum(a * b for a, b in zip(row, v)) for row in rows] for v in basis]
        _require(_rank([list(v) for v in basis] + images) == dim,
                 "submodule is not invariant")


# -- certificates --------------------------------------------------------------


def _check_witness(api, w, source, target) -> None:
    _require(w.verify(), "witness failed verify()")
    pres = api.as_presented
    _require(pres(w.source).delta == pres(source).delta, "witness source differs")
    _require(pres(w.target).delta == pres(target).delta, "witness target differs")


def _report_answer(api, report) -> tuple[bool, str]:
    if report.target_kind == "cyclic":
        _require(report.identified, "cyclic target without identification")
        _check_witness(api, report.witness, report.target, report.presentation)
        text = f"cyclic:{api.print_weyl(report.target.p)}:{report.alias}:{report.shift}"
        return True, text
    if report.target_kind == "direct_sum":
        parts = [_report_answer(api, sub) for sub in report.target]
        return all(ok for ok, _ in parts), "sum[" + ";".join(t for _, t in parts) + "]"
    _require(not report.identified, "identified report without a target")
    return False, "unidentified"


# -- D-module queries ------------------------------------------------------------


def _prepare_rep(api, label, param):
    name = FAMILY_PARAMETERS[label]
    return api.representative(label, {name: param} if name else None)


def _identify(api, label, a, cap):
    return (_prepare_rep(api, label, a), cap)


def _commutative(api, alpha, beta, cap):
    return ((alpha, beta), cap)


def _check_report(api, inputs, report):
    return _report_answer(api, report)


def _cross(api, label, a, alpha, beta, cap):
    return (_prepare_rep(api, label, a), (alpha, beta), cap)


def _check_cross(api, inputs, w):
    if w is None:
        return False, "none"
    rep, (alpha, beta), _cap = inputs
    const = api.WeylElement.constant
    point = api.PresentedModule((("d", -const(beta)), (-const(alpha), "t")))
    _check_witness(api, w, api.specialize(rep), point)
    return True, "witness"


def _modules_pair(api, p, q, cap):
    return (api.CyclicModule(p), api.CyclicModule(q), cap)


def _check_iso(api, inputs, w):
    source, target, _cap = inputs
    if w is None:
        return False, "none"
    _check_witness(api, w, source, target)
    return True, "witness"


def _check_hom(api, inputs, hom):
    source, target, cap = inputs
    _require(len(hom.dims) == cap + 1 and hom.dim == len(hom.basis), "hom profile is malformed")
    for r in hom.basis:
        _require(api.divide_left(source.p * r, target.p) is not None,
                 "hom representative is not a map")
    stab = hom.stabilized_at()
    text = f"{list(hom.dims)}:{[api.print_weyl(r) for r in hom.basis]}"
    return stab is not None, text


def _check_ext1(api, inputs, res):
    _source, _target, cap = inputs
    _require(len(res.dims) == cap + 1 and res.dim == res.dims[-1]
             and len(res.representatives) == res.dim, "ext profile is malformed")
    text = f"{list(res.dims)}:{[api.print_weyl(r) for r in res.representatives]}"
    return res.stable, text


def _ext_table(api, mods, cap):
    return ([api.CyclicModule(m) for m in mods], cap)


def _check_ext_table(api, inputs, table):
    mods, _cap = inputs
    if [api.print_weyl(m.p) for m in mods] == ["d", "t"]:
        _require(table.dims1 == ((0, 1), (1, 0)), "Ext table of (d, t) is not [[0,1],[1,0]]")
    return table.stable, f"{table.dims1}:{table.stabilized_at}"


# -- quiver representation queries --------------------------------------------------


def _conjugated(api, label, param, g, ginv):
    rep = _prepare_rep(api, label, param)
    gm, gi = api.QMatrix(g), api.QMatrix(ginv)
    conj = api.Representation(*(gm * x * gi for x in rep.triple()))
    return rep, conj


def _check_conj_pos(api, inputs, g):
    rep, conj = inputs
    _require(g is not None, "a conjugate was reported not conjugate")
    _check_conjugator(g, rep, conj)
    return True, "conjugate"


def _conj_neg(api, first, second, g, ginv):
    rep1 = api.representative(first)
    rep2 = _conjugated(api, second, None, g, ginv)[1]
    return rep1, rep2


def _check_conj_neg(api, inputs, g):
    if g is None:
        return False, "not conjugate"
    _check_conjugator(g, *inputs)
    return True, "conjugate"


def _check_match(api, inputs, got):
    rep, _conj = inputs
    want = (rep.label, rep.params.get(FAMILY_PARAMETERS[rep.label]))
    _require(tuple(got) == want, f"match_label gave {got}, expected {want}")
    return True, f"{got}"


def _check_simple(api, inputs, simple):
    rep, _conj = inputs
    _require(simple == api.is_simple(rep), "simplicity changed under conjugation")
    return True, f"{simple}"


def _check_submodule(api, inputs, sub):
    rep, conj = inputs
    if sub is not None:
        _check_invariant(conj, [[Q(x) for x in v] for v in sub])
    _require((sub is None) == api.is_simple(rep), "submodule search disagrees with is_simple")
    return True, "none" if sub is None else f"dim {len(sub)}"


def _check_indec(api, inputs, indec):
    rep, _conj = inputs
    _require(indec == api.is_indecomposable(rep), "indecomposability changed under conjugation")
    return True, f"{indec}"


def _check_classify(api, inputs, result):
    (n,) = inputs
    _require(result.n == n and result.exact == (n <= 3), "classification header is wrong")
    for fam in result.families:
        _require(fam.representative.n == n and sum(fam.dims) == n, "family of the wrong dimension")
    text = ";".join(f"{f.label}:{f.simple}:{f.indecomposable}" for f in result.families)
    return True, text


# -- CLI queries -------------------------------------------------------------------


def _cli_call(api, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(list(argv))
    return code, buf.getvalue()


def _check_cli(api, inputs, result):
    (argv,) = inputs
    code, out = result
    if code == 1:
        raise QueryFailed(f"exit 1: {out.strip()[:200]}")
    _require(code in (0, 2), f"unexpected exit code {code}")
    if "text" not in argv:
        payload = json.loads(out)
        if argv[0] == "ext":
            _require(payload["ext1"] == [[0, 1], [1, 0]], "CLI Ext table is wrong")
    return code == 0, f"{code}:{out}"


def _as_is(api, *args):
    return args


KINDS = {
    # kind: (prepare, call, check)
    "identify": (_identify, lambda api, rep, cap: api.identify_specialization(rep, cap),
                 _check_report),
    "commutative": (_commutative, lambda api, point, cap: api.commutative_specialize(point, cap),
                    _check_report),
    "cross": (_cross, lambda api, rep, point, cap: api.cross_certify(rep, point, cap),
              _check_cross),
    "iso": (_modules_pair, lambda api, p, q, cap: api.iso_witness(p, q, cap), _check_iso),
    "hom": (_modules_pair, lambda api, p, q, cap: api.hom_search(p, q, cap), _check_hom),
    "ext1": (_modules_pair, lambda api, p, q, cap: api.ext1_dim(p, q, cap), _check_ext1),
    "ext_table": (_ext_table, lambda api, mods, cap: api.ext_table(mods, cap), _check_ext_table),
    "classify": (_as_is, lambda api, n: api.classify(n), _check_classify),
    "conj_pos": (_conjugated, lambda api, rep, conj: api.are_conjugate(rep, conj),
                 _check_conj_pos),
    "conj_neg": (_conj_neg, lambda api, rep1, rep2: api.are_conjugate(rep1, rep2),
                 _check_conj_neg),
    "match": (_conjugated, lambda api, rep, conj: api.match_label(conj), _check_match),
    "simple": (_conjugated, lambda api, rep, conj: api.is_simple(conj), _check_simple),
    "submodule": (_conjugated, lambda api, rep, conj: api.find_proper_submodule(conj),
                  _check_submodule),
    "indecomposable": (_conjugated, lambda api, rep, conj: api.is_indecomposable(conj),
                       _check_indec),
    "cli": (_as_is, _cli_call, _check_cli),
}
