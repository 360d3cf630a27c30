"""Specializing the universal differential at representations and points.

The hull acts on a rank-one free bimodule through the differential

    d = d_op (x) e1 - 1 (x) s12 - 1 (x) s21 + t (x) e2

whose algebra components multiply each hull generator from the right.
Feeding a finite-dimensional representation of the hull relations into
the right-hand tensor factors turns the differential into a square
matrix over the Weyl algebra, which presents a left module.  This file
computes that presentation and then tries to recognize the module, with
every identification backed by a verified isomorphism certificate.

Recognition compares a short list of targets with the presentation's
cyclic form, which elimination at the constant coupling entries builds;
a report that is not identified says no certified match was found up to
the degree cap, nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .modules import (
    CyclicModule,
    DEFAULT_MAX_DEGREE,
    IsoWitness,
    PresentedModule,
    _check_degree,
    block_decompose,
    compose_iso,
    iso_witness,
)
from .reps import Representation, validate
from .weyl import WeylElement, print_weyl

_D = WeylElement.d()
_T = WeylElement.t()
_ONE = WeylElement.one()

_STANDARD_TERMS = (
    (1, _D, "e1"),
    (-1, _ONE, "s12"),
    (-1, _ONE, "s21"),
    (1, _T, "e2"),
)

# right multiplication of hull generators by the two points
_RIGHT_MULT = {
    ("e1", "e1"): (("e1", 1),),
    ("e2", "e1"): (),
    ("s12", "e1"): (),
    ("s21", "e1"): (("s21", 1),),
    ("e1", "e2"): (),
    ("e2", "e2"): (("e2", 1),),
    ("s12", "e2"): (("s12", 1),),
    ("s21", "e2"): (),
}


@dataclass(frozen=True)
class VersalDifferential:
    """The element d_op(x)e1 - 1(x)s12 - 1(x)s21 + t(x)e2, kept as terms."""

    terms: tuple[tuple[int, WeylElement, str], ...] = _STANDARD_TERMS

    def action_on(self, point: str) -> dict[str, WeylElement]:
        """Algebra coefficients of d applied to a point, by generator."""
        out: dict[str, WeylElement] = {}
        for coef, w, name in self.terms:
            for gen, factor in _RIGHT_MULT[(name, point)]:
                out[gen] = out.get(gen, WeylElement.zero()) + w * (coef * factor)
        return {g: v for g, v in out.items() if not v.is_zero()}

    def validate(self) -> None:
        """Recheck the defining action on both points."""
        expected = {
            "e1": {"e1": _D, "s21": -_ONE},
            "e2": {"e2": _T, "s12": -_ONE},
        }
        for point, want in expected.items():
            got = self.action_on(point)
            if got != want:
                raise ValueError(
                    f"differential acts wrongly on {point}: {got!r}"
                )


STANDARD_DIFFERENTIAL = VersalDifferential()


def specialize(rep: Representation,
               differential: VersalDifferential = STANDARD_DIFFERENTIAL) -> PresentedModule:
    """Presentation matrix obtained by specializing the differential.

    The hull generators are replaced by their matrices; the transpose in
    the index bookkeeping makes row l of the result the relation for the
    l-th generator of the presented module.
    """
    validate(rep)
    mats = {"e1": rep.e1, "s12": rep.s12, "s21": rep.s21, "e2": rep.e2}
    n = rep.n
    rows = []
    for l in range(n):
        row = []
        for k in range(n):
            entry = WeylElement.zero()
            for coef, w, name in differential.terms:
                scalar = Fraction(coef) * mats[name][k, l]
                if scalar:
                    entry = entry + w * scalar
            row.append(entry)
        rows.append(tuple(row))
    return PresentedModule(tuple(rows))


@dataclass(frozen=True)
class CommutativePoint:
    """A point (alpha, beta) of the commutative base."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))


@dataclass(frozen=True)
class SpecializationReport:
    """Outcome of trying to recognize a specialized presentation.

    target_kind is "cyclic" (target a CyclicModule, witness present),
    "direct_sum" (target a tuple of reports, one per diagonal block), or
    None when nothing was certified.  shift, when set, says the target
    relation is t*d - base + shift for the base value the input implied.
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


def _base_candidates() -> list[tuple[str | None, CyclicModule, int | None]]:
    return [
        ("M1", CyclicModule("d"), None),
        ("M2", CyclicModule("t"), None),
        (None, CyclicModule("d*t"), None),
    ]


def _shift_candidates(base: Fraction) -> list[tuple[str | None, CyclicModule, int | None]]:
    out = []
    for m in (0, 1, -1, 2, -2):
        rel = _T * _D - WeylElement.constant(base - m)
        out.append((None, CyclicModule(rel), m))
    return out


def _identify_presented(delta: PresentedModule, max_degree: int,
                        shift_base: Fraction | None,
                        point: CommutativePoint | None = None) -> SpecializationReport:
    blocks = block_decompose(delta)
    if len(blocks) > 1:
        subs = tuple(
            _identify_presented(sub, max_degree, shift_base) for _, sub in blocks
        )
        ok = all(s.identified for s in subs)
        if ok:
            parts = ", ".join(s.message for s in subs)
            message = f"direct sum of {len(subs)} blocks: {parts}"
        else:
            message = (
                f"direct sum of {len(subs)} blocks, not all certified "
                f"up to degree {max_degree}"
            )
        return SpecializationReport(
            delta, ok, "direct_sum" if ok else None,
            subs, None, None, None, max_degree, message, point,
        )
    candidates = _base_candidates()
    if shift_base is not None:
        candidates.extend(_shift_candidates(shift_base))
    seen = set()
    unique = []
    for alias, cand, m in candidates:
        if cand.p in seen:
            continue
        seen.add(cand.p)
        unique.append((alias, cand, m))
    for alias, cand, m in unique:
        witness = iso_witness(cand, delta, max_degree)
        if witness is not None:
            name = f"D/D({print_weyl(cand.p)})"
            if alias:
                name += f" ({alias})"
            return SpecializationReport(
                delta, True, "cyclic", cand, alias, m, witness,
                max_degree, f"certified isomorphic to {name}", point,
            )
    return SpecializationReport(
        delta, False, None, None, None, None, None, max_degree,
        f"no certified match up to degree {max_degree}", point,
    )


def identify_specialization(rep: Representation,
                            max_degree: int = DEFAULT_MAX_DEGREE) -> SpecializationReport:
    """Specialize at a representation and recognize the result.

    Direct sums are recognized blockwise.  When the representation
    carries a parameter, relations t*d - a + m for small integer m are
    offered as candidates alongside the two basic modules and d*t.
    """
    n_cap = _check_degree(max_degree)
    delta = specialize(rep)
    base = None
    for value in rep.params.values():
        if value is not None:
            base = Fraction(value)
            break
    return _identify_presented(delta, n_cap, base)


def commutative_specialize(point, max_degree: int = DEFAULT_MAX_DEGREE) -> SpecializationReport:
    """Specialize at a commutative point (alpha, beta) and recognize it.

    The presentation is [[d, -beta], [-alpha, t]].  At the origin it
    splits as the direct sum of the two basic modules; elsewhere the
    candidates are d*t and the shifts of t*d - alpha*beta.
    """
    if not isinstance(point, CommutativePoint):
        alpha, beta = point
        point = CommutativePoint(alpha, beta)
    n_cap = _check_degree(max_degree)
    delta = PresentedModule((
        (_D, -WeylElement.constant(point.beta)),
        (-WeylElement.constant(point.alpha), _T),
    ))
    return _identify_presented(delta, n_cap, point.alpha * point.beta, point)


def cross_certify(rep: Representation, point,
                  max_degree: int = DEFAULT_MAX_DEGREE) -> IsoWitness | None:
    """Certified isomorphism between the two specializations, or None.

    Both recognitions must land on cyclic targets; the witnesses are
    then composed through iso_witness between the two targets.
    """
    r1 = identify_specialization(rep, max_degree)
    r2 = commutative_specialize(point, max_degree)
    if not (r1.identified and r2.identified):
        return None
    if r1.target_kind != "cyclic" or r2.target_kind != "cyclic":
        return None
    w_mid = iso_witness(r1.target, r2.target, max_degree)
    if w_mid is None:
        return None
    return compose_iso(r1.witness.reversed(), compose_iso(w_mid, r2.witness))
