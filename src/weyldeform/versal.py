"""Specializing the universal differential at representations and points.

The hull acts on a rank-one free bimodule through the differential

    d = d_op (x) e1 - 1 (x) s12 - 1 (x) s21 + t (x) e2

whose algebra components multiply each hull generator from the right.
Feeding a finite-dimensional representation of the hull relations into
the right-hand tensor factors turns the differential into the square
matrix Delta = d*E1^T - S12^T - S21^T + t*E2^T over the Weyl algebra,
which presents a left module.  This file computes that presentation and
then recognizes the module, with every identification backed by a
verified isomorphism certificate.

Recognition reads each target off the quiver normal form, searching
nothing.  Conjugating the representation by the normal form's basis g
gives Delta' = g^T Delta g^-T, certified by r = u = g^T, s = v = g^-T,
c_a = c_b = 0.  In Delta' the row of a chain vector x_i of T = s12 + s21
says c_i*x_i = T x_i, with c_i = d at vertex 1 and t at vertex 2; all
rows but the last give x_(i+1) = c_i*x_i, so eliminating x_1, x_2, ...
leaves x_0 with one relation.  A string (v, l) ends in T x_(l-1) = 0, so
it gives D/Dw for the alternating word w = c_(l-1)...c_0 (ending in d
for v = 1, in t for v = 2: (1, 2) -> t*d, (2, 3) -> t*d*t).  An
invariant factor f of AB of degree k has a chain of length 2k from
vertex 1 ending in T x_(2k-1) = -sum f_i x_(2i); as x_(2i) = theta^i
x_0, t*x_(2k-1) = theta^k x_0 for theta = t*d, it gives D/D(f(theta)).
The invariants fix those rows, so Delta' is read off them and never
multiplied out.  cyclic_form's pivot chain makes these eliminations in
one Gauss–Jordan pass over [Delta' | 1] and ends at D/Dw, scaling the
last relation to monic, so its search is never reached and another form
raises; the witness read off the reduced rows sends x_i to degree
i < deg w, the multiplicity of D/Dw, and is kept whatever that degree,
so every block is identified.  Each witness handed out is verified once:
a single block's chain witness only as its composite with the
conjugation, a direct sum's block witnesses and its conjugation each on
their own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .linalg import QMatrix
from .modules import (
    CyclicModule,
    DEFAULT_MAX_DEGREE,
    IsoWitness,
    PresentedModule,
    _check_degree,
    _find_cyclic_form,
    _verified,
    compose_iso,
    cyclic_form,
    iso_witness,
    wmat_zero,
)
from .reps import NormalForm, Representation, _rep_from_blocks, normal_form, validate
from .weyl import WeylElement, _exact_number, print_weyl

_D = WeylElement.d()
_T = WeylElement.t()
_ONE = WeylElement.one()
_ZERO = WeylElement.zero()
_THETA = WeylElement.monomial(1, 1)  # t*d
_ALIASES = {_D: "M1", _T: "M2"}

def specialize(rep: Representation) -> PresentedModule:
    """Presentation matrix obtained by specializing the differential.

    Row l of the result is the relation for the l-th generator of the
    presented module: Delta[l][k] = d*E1[k,l] - S12[k,l] - S21[k,l] +
    t*E2[k,l], the transpose of each hull generator's matrix.
    """
    validate(rep)
    return _delta(*rep.triple())


def _delta(e1: QMatrix, s12: QMatrix, s21: QMatrix) -> PresentedModule:
    """The specialized differential of a triple, which must be valid."""
    cols = zip(zip(*e1._rows), zip(*s12._rows), zip(*s21._rows))
    return PresentedModule(tuple(
        tuple(_entry(e, x + y if x and y else x or y, int(k == l))
              for k, (e, x, y) in enumerate(zip(*col)))
        for l, col in enumerate(cols)
    ))


def _entry(e: Fraction, s: Fraction, diag: int) -> WeylElement:
    """d*e - s + t*(diag - e) from Fractions, with no zero term."""
    terms = {}
    if e:
        terms[0, 1] = e
    if s:
        terms[0, 0] = -s
    if e != diag:
        terms[1, 0] = diag - e
    return WeylElement._of(terms)


def _form_delta(form: NormalForm) -> PresentedModule:
    """Delta' = g^T Delta g^-T, read off the invariants: g^-1 e1 g is 1 on
    the first p basis vectors and 0 on the rest, and g^-1 (s12 + s21) g is
    T in the basis (NormalForm._images), so row l is d or t on the
    diagonal and minus T x_l's coordinates elsewhere."""
    p = form.dims[0]
    rows = []
    for l, image in enumerate(form._images()):
        row = [_ZERO] * sum(form.dims)
        row[l] = _D if l < p else _T
        for k, c in image.items():
            row[k] = WeylElement._of({(0, 0): -c})
        rows.append(tuple(row))
    return PresentedModule(tuple(rows))


@dataclass(frozen=True)
class CommutativePoint:
    """A point (alpha, beta) of the commutative base."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _exact_number(self.alpha))
        object.__setattr__(self, "beta", _exact_number(self.beta))


@dataclass(frozen=True)
class SpecializationReport:
    """Outcome of recognizing a specialized presentation.

    target_kind is "cyclic" (witness from the CyclicModule target onto the
    presentation), "direct_sum" (target a cyclic report per normal-form
    summand, each onto its block of Delta'; witness Delta' -> Delta).
    identified is always True: every block's witness is built.  alias
    names M1 = D/Dd and M2 = D/Dt; shift, when set, says the target is
    t*d - base + shift.  max_degree is the cap the caller passed.
    """

    presentation: PresentedModule
    identified: bool
    target_kind: str | None
    target: object
    alias: str | None
    shift: int | None
    witness: IsoWitness | None
    max_degree: int
    message: str
    point: CommutativePoint | None = None


def _rule_target(form: NormalForm, k: int) -> CyclicModule:
    """The k-th summand's target by the rule in the module docstring."""
    if k < len(form.strings):
        v, length = form.strings[k]
        p = _ONE
        for i in range(length):
            p = (_D if (v + i) % 2 else _T) * p
        return CyclicModule(p)
    p = WeylElement.zero()
    for c in reversed(form.factors[k - len(form.strings)]):
        p = p * _THETA + WeylElement.constant(c)
    return CyclicModule(p)


def _block_report(block: PresentedModule, found, want: CyclicModule, n_cap: int,
                  base: Fraction | None) -> SpecializationReport:
    """The report of a block whose pivot chain found (form, witness)."""
    if not found or found[0] != want:
        raise RuntimeError("normal-form target failed verification")
    cyc, witness = found
    alias = _ALIASES.get(cyc.p)
    rest = cyc.p - _THETA
    shift = None if base is None or rest.degree() else base + rest.coeff(0, 0)
    shift = int(shift) if shift is not None and shift.denominator == 1 else None
    name = f"D/D({print_weyl(cyc.p)})" + (f" ({alias})" if alias else "")
    return SpecializationReport(block, True, "cyclic", cyc, alias, shift, witness,
                                n_cap, f"certified isomorphic to {name}")


def _identify_rep(rep: Representation, n_cap: int, base: Fraction | None,
                  point: CommutativePoint | None = None) -> SpecializationReport:
    form = normal_form(rep)  # raises validate()'s RelationViolation on a bad rep
    delta = _delta(*rep.triple())
    nf = _form_delta(form)
    idxs = form.blocks()
    if len(idxs) == 1:
        # one block is Delta' itself: its unverified chain witness, composed
        # with the conjugation when there is one, is verified once
        sub = _block_report(nf, _find_cyclic_form(nf, n_cap), _rule_target(form, 0), n_cap, base)
        w = sub.witness if nf == delta else compose_iso(sub.witness, _conjugation(form, nf, delta, n_cap))
        return replace(sub, presentation=delta, witness=_verified(w), point=point)
    # each block's witness is handed out, so cyclic_form verifies it
    blocks = [PresentedModule(tuple(tuple(nf.delta[i][j] for j in idx) for i in idx)) for idx in idxs]
    subs = tuple(_block_report(b, cyclic_form(b, n_cap), _rule_target(form, k), n_cap, base)
                 for k, b in enumerate(blocks))
    message = f"direct sum of {len(subs)} blocks: " + ", ".join(s.message for s in subs)
    return SpecializationReport(delta, True, "direct_sum", subs, None, None,
                                _verified(_conjugation(form, nf, delta, n_cap)),
                                n_cap, message, point)


def _conjugation(form: NormalForm, nf: PresentedModule, delta: PresentedModule,
                 n_cap: int) -> IsoWitness:
    """The witness Delta' -> Delta: r = u = g^T, s = v = g^-T, c_a = c_b = 0."""
    gt, gti = (tuple(tuple(WeylElement._of({(0, 0): x} if x else {}) for x in col)
                     for col in zip(*m._rows)) for m in (form.basis, form.basis.inverse()))
    zero = wmat_zero(len(gt), len(gt))
    return IsoWitness(nf, delta, gt, gti, gt, gti, zero, zero, n_cap)


def identify_specialization(rep: Representation,
                            max_degree: int = DEFAULT_MAX_DEGREE) -> SpecializationReport:
    """Specialize at a representation and recognize the result.

    Each normal-form summand is one block; the rule in the module docstring
    reads its target and the pivot chain's one Gauss–Jordan pass writes its
    witness down, with no degree cap, so the report is always identified.
    max_degree is validated and recorded in the report; shift is set
    against the representation's parameter, if it has one.
    """
    base = next((Fraction(v) for v in rep.params.values() if v is not None), None)
    return _identify_rep(rep, _check_degree(max_degree), base)


def commutative_specialize(point, max_degree: int = DEFAULT_MAX_DEGREE) -> SpecializationReport:
    """Specialize at a commutative point (alpha, beta) and recognize it.

    [[d, -beta], [-alpha, t]] specializes the (1, 1)-dimensional
    representation with s12 = alpha, s21 = beta, identified as above with
    shift set against alpha*beta; at the origin it splits as M1 + M2.
    """
    point = point if isinstance(point, CommutativePoint) else CommutativePoint(*point)
    rep = _rep_from_blocks(1, 1, [[point.alpha]], [[point.beta]])
    return _identify_rep(rep, _check_degree(max_degree), point.alpha * point.beta, point)


def cross_certify(rep: Representation, point,
                  max_degree: int = DEFAULT_MAX_DEGREE) -> IsoWitness | None:
    """Certified isomorphism between the two specializations, or None.

    Both recognitions must land on cyclic targets; the witnesses are
    then composed directly when the targets are equal, and through
    iso_witness's bounded search between them otherwise.
    """
    r1 = identify_specialization(rep, max_degree)
    r2 = commutative_specialize(point, max_degree)
    if r1.target_kind != "cyclic" or r2.target_kind != "cyclic":
        return None
    w = r2.witness
    if r1.target != r2.target:
        w_mid = iso_witness(r1.target, r2.target, max_degree)
        if w_mid is None:
            return None
        w = compose_iso(w_mid, w)
    return _verified(compose_iso(r1.witness.reversed(), w))
