"""Extension spaces between cyclic modules and the unobstructed hull.

For cyclic left modules D/Dp and D/Dq the first extension space is the
quotient D / (pD + Dq): pD collects right multiples of p, Dq left
multiples of q.  Dimensions are read off one elimination of the normal
forms modulo Dq of the products p*m, m a standard monomial of degree up
to a span wider than the reported range, because a membership witness
can exceed the degree of the element it certifies.  Where
``modules._window_proof`` proves a window (q = t or d, through the
indicial polynomial of p on Q[t] or Q[d], or coprime Bernstein symbols),
the span is the proved one, and the classes lie in degrees up to a proved
top; an answer whose top passes the cap is left unstabilized.  Otherwise,
or when the proved span would be wider, the span is
max(cap + WINDOW_MARGIN - deg p, cap): at least the cap, so a p deeper
than the margin still reaches the top of the range, but not a proof.

Every D/Dp has the free resolution 0 -> D -> D -> D/Dp -> 0 whose map
is right multiplication by p, injective because D is a domain, and D
has global dimension 1.  So Ext^2 between any two of these modules is
zero and the hull below is unobstructed: a fact, not a computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .linalg import mat_add, mat_mul, pivot_columns
from .modules import (
    CyclicModule,
    DEFAULT_MAX_DEGREE,
    WINDOW_MARGIN,
    _check_degree,
    _coerce_module,
    _deg,
    _stabilized_at,
    _window_proof,
)
from .weyl import WeylElement, _product_normal_forms, leading_term, truncated_monomials


@dataclass(frozen=True)
class Ext1Result:
    """Dimension and representatives for one first-extension space.

    dims[n] is the dimension seen at degree cutoff n; the reported dim
    is dims at the full bound.  Iterating yields (dim, representatives)
    so the result unpacks as a pair.
    """

    dim: int
    representatives: tuple[WeylElement, ...]
    dims: tuple[int, ...]
    stabilized_at: int | None

    @property
    def stable(self) -> bool:
        return self.stabilized_at is not None

    def __iter__(self):
        return iter((self.dim, self.representatives))


def ext1_dim(source, target, max_degree: int = DEFAULT_MAX_DEGREE) -> Ext1Result:
    """Compute Ext^1(D/Dp, D/Dq) = D/(pD + Dq) up to a degree bound.

    The representatives are the standard monomials modulo Dq that lead
    no normal form of a p*m, m in the span, in ascending order.
    """
    source = _coerce_module(source)
    target = _coerce_module(target)
    if not isinstance(source, CyclicModule) or not isinstance(target, CyclicModule):
        raise TypeError("ext1_dim expects cyclic modules")
    p, q, n_cap = source.p, target.p, _check_degree(max_degree)
    # free monomials up to degree cut, from the p*m with deg m <= span:
    # the margin window, or the proved one when it needs no more products,
    # as classes lie in degrees <= top and an element of pD + Dq of degree
    # <= low is p*x with deg x <= max(r, low - s)
    span, cut, top = max(n_cap + WINDOW_MARGIN - _deg(p), n_cap), n_cap, None
    proof = _window_proof(p, q)
    if proof is not None:
        r, s, top = proof
        low = min(n_cap, top)
        need = max(r, low - s) if low >= 0 else -1
        if need <= span:
            span, cut = need, low
    (k, l), _ = leading_term(q)

    def col(m):
        # minus the place of m in ascending term_order, so a row's pivot,
        # its smallest column, is its leading monomial
        s = m[0] + m[1]
        return -(s * (s + 1) // 2 + m[0])

    # for a nonstandard m, p*m - p*nf(m) = p*(m - nf(m)) lies in Dq and
    # nf(m) sums standard monomials of no higher degree: only those add
    std = [m for m in truncated_monomials(span) if m[0] < k or m[1] < l]
    # the normal forms of the p*m, reduced from q's table without building
    # the products, each up to a constant factor: a row's scale moves no
    # pivot
    nfs = _product_normal_forms(p, std, q)
    pivots = set(pivot_columns({col(m): c for m, c in num.items()} for num, _ in nfs))
    free = [m for m in truncated_monomials(cut)
            if (m[0] < k or m[1] < l) and col(m) not in pivots]
    dims = tuple(sum(1 for i, j in free if i + j <= n) for n in range(n_cap + 1))
    reps = tuple(WeylElement.monomial(*m) for m in free)
    return Ext1Result(dims[-1], reps, dims, _stabilized_at(dims, top))


@dataclass(frozen=True)
class ExtTable:
    """First and second extension dimensions over a list of modules.

    dims1[i][j] is dim Ext^1(M_j, M_i): column index is the source,
    row index the target, matching the convention that the (i, j) entry
    counts arrows drawn from point j to point i.  dims2 is the zero
    matrix: each module has a free resolution of length 1 (right
    multiplication by p is injective, D being a domain) and D has global
    dimension 1, so no second extension space is nonzero.
    """

    modules: tuple[CyclicModule, ...]
    max_degree: int
    dims1: tuple[tuple[int, ...], ...]
    dims2: tuple[tuple[int, ...], ...]
    representatives: tuple[tuple[tuple[WeylElement, ...], ...], ...]
    stabilized_at: int | None

    @property
    def stable(self) -> bool:
        return self.stabilized_at is not None


# M1 = D/Dd and M2 = D/Dt, the table's modules when none are given;
# parsed once rather than on every call
_PAIR = (CyclicModule("d"), CyclicModule("t"))


def ext_table(modules: Iterable | None = None,
              max_degree: int = DEFAULT_MAX_DEGREE) -> ExtTable:
    if isinstance(modules, str):
        raise TypeError("ext_table expects a sequence of modules, not a string")
    mods = _PAIR if modules is None else tuple(_coerce_module(m) for m in modules)
    n_cap = _check_degree(max_degree)
    results = [
        [ext1_dim(mods[j], mods[i], n_cap) for j in range(len(mods))]
        for i in range(len(mods))
    ]
    dims1 = tuple(tuple(r.dim for r in row) for row in results)
    dims2 = tuple((0,) * len(mods) for _ in mods)
    reps = tuple(tuple(r.representatives for r in row) for row in results)
    stabs = [r.stabilized_at for row in results for r in row]
    stab = None if None in stabs else max(stabs, default=0)
    return ExtTable(mods, n_cap, dims1, dims2, reps, stab)


# -- the pointed hull -------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    """One extension class, drawn as an arrow between the two points."""

    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Relation:
    """A displayed relation plus its word equations.

    Each equation is (lhs, rhs) with words as tuples of generator names
    and rhs None standing for zero.  One display line may carry several
    equations (a chain like x^2 = y^2 = 0).
    """

    display: str
    equations: tuple[tuple[tuple[str, ...], tuple[str, ...] | None], ...]


@dataclass(frozen=True)
class PointedAlgebra:
    """Completed path algebra of the extension quiver, with relations.

    The underlying vector space is spanned by paths; trunc_dim(m) counts
    paths of length below m, which is the dimension of the quotient by
    the m-th power of the arrow ideal.
    """

    points: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]
    arrow_counts: tuple[tuple[int, ...], ...]

    def trunc_dim(self, order: int) -> int:
        """Dimension of the hull modulo the order-th power of the arrow ideal."""
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        return sum(map(sum, self._component_sums(order)[-1]))

    def _component_sums(self, order: int) -> list[tuple[tuple[int, ...], ...]]:
        """Path counts between points, lengths below each order 0, 1, ...,
        order: one running sum of the powers of the arrow counts."""
        k = len(self.points)
        sums = [((0,) * k,) * k]
        power = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        for _ in range(max(0, order)):
            sums.append(mat_add(sums[-1], power))
            power = mat_mul(self.arrow_counts, power, k, 0)
        return sums


def hull_unobstructed(table: ExtTable) -> PointedAlgebra:
    """Build the hull of the deformation problem the table describes.

    Second extensions vanish (see ExtTable), so no obstruction can
    appear: the hull is the completed path algebra of the extension
    quiver and the relations are exactly the pointed-idempotent laws.
    """
    if len(table.modules) != 2:
        raise ValueError("the pointed relation rule is set up for two points")
    arrows = []
    for i, row in enumerate(table.dims1):
        for j, count in enumerate(row):
            base = f"s{i + 1}{j + 1}"
            if count == 1:
                arrows.append(Arrow(base, source=j + 1, target=i + 1))
            else:
                for k in range(count):
                    arrows.append(
                        Arrow(f"{base}_{k + 1}", source=j + 1, target=i + 1)
                    )
    relations = _pointed_relations(tuple(arrows))
    return PointedAlgebra(
        points=("e1", "e2"),
        arrows=tuple(arrows),
        relations=relations,
        arrow_counts=table.dims1,
    )


def _pointed_relations(arrows: tuple[Arrow, ...]) -> tuple[Relation, ...]:
    out: list[Relation] = []
    crossing = sorted((a for a in arrows if a.source != a.target),
                      key=lambda a: a.name)
    if crossing:
        display = " = ".join(f"{a.name}^2" for a in crossing) + " = 0"
        eqs = tuple(((a.name, a.name), None) for a in crossing)
        out.append(Relation(display, eqs))
    out.append(Relation("e1^2 = e1", ((("e1", "e1"), ("e1",)),)))
    for a in sorted(arrows, key=lambda x: x.name):
        if a.target == 1:
            out.append(Relation(
                f"e1*{a.name} = {a.name}",
                ((("e1", a.name), (a.name,)),),
            ))
        if a.source == 1:
            out.append(Relation(
                f"{a.name}*e1 = {a.name}",
                (((a.name, "e1"), (a.name,)),),
            ))
    for a in sorted(arrows, key=lambda x: x.name):
        if a.source == 2:
            out.append(Relation(
                f"{a.name}*e1 = 0",
                (((a.name, "e1"), None),),
            ))
        if a.target == 2:
            out.append(Relation(
                f"e1*{a.name} = 0",
                ((("e1", a.name), None),),
            ))
    return tuple(out)
