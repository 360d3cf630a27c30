"""Left modules over the first Weyl algebra and exact maps between them.

A module is either a ``CyclicModule`` (one generator, one relation, the
quotient D/Dp) or a ``PresentedModule`` (n generators with the rows of an
n-by-n relation matrix as relations).  Elements of a free module D^n are
row vectors; a presentation matrix acts by right multiplication, so the
submodule being quotiented out is spanned by ``m * row_i`` over all
monomials m.

Questions about cyclic modules (Hom, Ext^1 in ``ext``, the isomorphism
certificate) read off normal forms modulo a principal ideal Dp, where {p}
is a Groebner basis.  Only submodules of D^n are solved over
degree-truncated monomial windows; a cyclic form eliminates a generator
at each constant entry and searches only what is left.  Degree caps
default to ``DEFAULT_MAX_DEGREE`` and are never allowed past ``HARD_CAP``.
Membership witnesses in D^n can have higher degree than the vector they
certify (cancellation), so those windows are ``WINDOW_MARGIN`` degrees
wider than the range being reported.  Hom and Ext^1 between cyclic
modules need no margin where ``_window_proof`` bounds the degrees: into
D/Dd = Q[t] or D/Dt = Q[d], and between modules with coprime symbols.
Each witness handed out is verified once, by plain multiplication;
negative answers always mean "no witness up to the degree bound".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm
from typing import Iterable, Sequence, Tuple

from .linalg import echelon_kernel, echelon_solution, mat_add, mat_mul, reduce_row, rref_rows
from .weyl import (
    _MEMOS,
    WeylElement,
    _exact_number,
    _integer_normal_forms,
    _memo,
    _numerators,
    _product_normal_forms,
    _tally,
    leading_term,
    monomial_multiples,
    parse_weyl,
    print_weyl,
    term_order,
    truncated_monomials,
)

DEFAULT_MAX_DEGREE = 8
HARD_CAP = 16
WINDOW_MARGIN = 4
STABLE_RUN = 3

_ZERO = WeylElement.zero()
_ONE = WeylElement.one()

Wmat = Tuple[Tuple[WeylElement, ...], ...]


def _deg(w: WeylElement) -> int:
    d = w.degree()
    return -1 if d is None else d


def _check_degree(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0 or n > HARD_CAP:
        raise ValueError(f"degree bound must be an integer in [0, {HARD_CAP}]")
    return n


def monomial_count(n: int) -> int:
    if n < 0:
        return 0
    return (n + 1) * (n + 2) // 2


# -- module presentations ----------------------------------------------


class CyclicModule:
    """D/Dp for a nonzero relation p.

    The relation is normalized so its leading coefficient (in the
    canonical term order) is 1; scaling by a nonzero rational does not
    change the submodule Dp.
    """

    __slots__ = ("p",)

    def __init__(self, p):
        if isinstance(p, str):
            p = parse_weyl(p)
        if not isinstance(p, WeylElement):
            raise TypeError("relation must be a WeylElement or a string")
        if p.is_zero():
            raise ValueError("cyclic presentation needs a nonzero relation")
        lead = p.items()[-1][1]
        self.p = p * (1 / lead)

    @property
    def n(self) -> int:
        return 1

    def to_presented(self) -> "PresentedModule":
        return PresentedModule(((self.p,),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicModule):
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(("cyclic", self.p))

    def __repr__(self) -> str:
        return f"CyclicModule({print_weyl(self.p)!r})"


class PresentedModule:
    """D^n modulo the row space of a square relation matrix."""

    __slots__ = ("delta", "n")

    def __init__(self, delta: Iterable[Iterable]):
        rows = []
        for row in [delta] if isinstance(delta, str) else delta:
            if isinstance(row, str):
                raise TypeError("presentation rows must be sequences of entries, not strings")
            rows.append(
                tuple(parse_weyl(e) if isinstance(e, str) else e for e in row)
            )
        n = len(rows)
        if n == 0:
            raise ValueError("presentation needs at least one generator")
        for row in rows:
            if len(row) != n:
                raise ValueError("presentation matrix must be square")
            for e in row:
                if not isinstance(e, WeylElement):
                    raise TypeError("matrix entries must be WeylElements or strings")
        self.delta = tuple(rows)
        self.n = n

    def row_degree(self, i: int) -> int:
        degs = [_deg(e) for e in self.delta[i]]
        return max(degs) if degs else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresentedModule):
            return NotImplemented
        return self.delta == other.delta

    def __hash__(self) -> int:
        return hash(self.delta)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(print_weyl(e) for e in row) for row in self.delta
        )
        return f"PresentedModule[{body}]"


def as_presented(m) -> PresentedModule:
    if isinstance(m, CyclicModule):
        return m.to_presented()
    if isinstance(m, PresentedModule):
        return m
    raise TypeError(f"not a module presentation: {m!r}")


def _coerce_module(m):
    if isinstance(m, (str, WeylElement)):
        return CyclicModule(m)
    if isinstance(m, (CyclicModule, PresentedModule)):
        return m
    raise TypeError(f"not a module presentation: {m!r}")


# -- matrices over the algebra ------------------------------------------


def wmat_identity(n: int) -> Wmat:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def wmat_zero(nrows: int, ncols: int) -> Wmat:
    return tuple(tuple(_ZERO for _ in range(ncols)) for _ in range(nrows))


def wmat_mul(a: Wmat, b: Wmat) -> Wmat:
    """a * b by linalg.mat_mul; when b has no rows, each product row is empty."""
    _tally("modules.wmat_mul")
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch in product")
    return mat_mul(a, b, len(b[0]) if b else 0, _ZERO)


def wmat_deg(a: Wmat) -> int:
    degs = [_deg(e) for row in a for e in row]
    return max(degs) if degs else -1


# -- truncated spans ------------------------------------------------------


class TruncatedSpan:
    """Row space of degree-bounded vectors in D^ngens, reduced once.

    Coordinates are ordered by descending total degree, so a reduced
    row's pivot is its highest-degree monomial and the whole row lies in
    degree <= pivot degree.
    """

    def __init__(self, vectors: Sequence[tuple], ngens: int, window: int):
        self.ngens = ngens
        monos = truncated_monomials(window)
        cols = sorted(
            ((g, m) for g in range(ngens) for m in monos),
            key=lambda c: (-(c[1][0] + c[1][1]), c[1][1], c[0]),
        )
        self._cols = cols
        self._pos = {c: k for k, c in enumerate(cols)}
        coords = [self._coords(vec) for vec in vectors]
        self._rows, self._pivots = rref_rows(coords) if coords else ([], [])
        self._pivot_degree = [
            cols[p][1][0] + cols[p][1][1] for p in self._pivots
        ]

    def _coords(self, vec: tuple) -> dict[int, Fraction]:
        if len(vec) != self.ngens:
            raise ValueError("vector has the wrong number of components")
        row = {}
        for g, w in enumerate(vec):
            for ij, c in w.items():
                pos = self._pos.get((g, ij))
                if pos is None:
                    raise ValueError("vector exceeds the span window")
                row[pos] = c
        return row

    def _elements(self, row: dict[int, Fraction]) -> tuple:
        parts: list[dict] = [{} for _ in range(self.ngens)]
        for k in sorted(row):
            g, ij = self._cols[k]
            parts[g][ij] = row[k]
        return tuple(WeylElement(p) for p in parts)

    def pivot_degrees(self) -> list[int]:
        return list(self._pivot_degree)

    def basis_vectors(self) -> list[tuple]:
        return [self._elements(r) for r in self._rows]

    def reduce(self, vec: tuple) -> tuple:
        return self._elements(reduce_row(self._coords(vec), self._rows, self._pivots))


# -- linear systems with algebra-element unknowns -------------------------


class WeylLinearSystem:
    """Exact linear system whose unknowns are algebra elements.

    Each unknown has a degree bound; constraints have the form
    sum_k coef_k * left_k * X_{name_k} * right_k = rhs and expand over
    the monomial coordinates of both sides.  The column of t^a d^b in
    X_{name_k} is left_k * t^a d^b * right_k, from monomial_multiples.
    """

    def __init__(self):
        self._degree: dict[str, int] = {}
        self._eqs: list[tuple[list, WeylElement]] = []

    def unknown(self, name: str, degree: int) -> str:
        if name in self._degree:
            raise ValueError(f"duplicate unknown {name!r}")
        self._degree[name] = degree
        return name

    def equate(self, terms: Iterable[tuple], rhs: WeylElement | None = None) -> None:
        terms = list(terms)
        for _, name, _, _ in terms:
            if name not in self._degree:
                raise KeyError(f"unknown {name!r} is not declared")
        self._eqs.append((terms, _ZERO if rhs is None else rhs))

    def _assemble(self):
        """Sparse rows, one per monomial, with the right-hand side in
        column ``total``; returns (rows, offset of each unknown, total)."""
        _tally("modules.system")
        offset: dict[str, int] = {}
        total = 0
        for name in self._degree:
            offset[name] = total
            total += monomial_count(self._degree[name])
        rows: list[dict[int, Fraction]] = []
        for terms, rhs in self._eqs:
            rowmap: dict[tuple[int, int], dict[int, Fraction]] = {}
            for left, name, right, coef in terms:
                cf = _exact_number(coef)
                # the slack unknowns carry -1: negating skips a gcd
                negate, scaled = cf == -1, cf not in (1, -1)
                ws = monomial_multiples(left, self._degree[name], right)
                for k, w in enumerate(ws, offset[name]):
                    for ij, c in w:
                        if negate:
                            c = -c
                        elif scaled:
                            c *= cf
                        row = rowmap.setdefault(ij, {})
                        y = row.get(k)
                        if y is None:
                            row[k] = c
                        elif y := y + c:
                            row[k] = y
                        else:
                            del row[k]
            for ij, c in rhs.items():
                rowmap.setdefault(ij, {})[total] = c
            rows.extend(rowmap[key] for key in sorted(rowmap))
        return rows, offset, total

    def _unpack(self, x: dict[int, Fraction], offset: dict) -> dict[str, WeylElement]:
        out = {}
        for name in self._degree:
            base = offset[name]
            terms = {
                mono: x[base + k]
                for k, mono in enumerate(truncated_monomials(self._degree[name]))
                if base + k in x
            }
            out[name] = WeylElement(terms)
        return out

    def solve(self) -> dict[str, WeylElement] | None:
        rows, offset, total = self._assemble()
        x = echelon_solution(*rref_rows(rows), total) if rows else {}
        return None if x is None else self._unpack(x, offset)

    def kernel(self) -> list[dict[str, WeylElement]]:
        for _, rhs in self._eqs:
            if not rhs.is_zero():
                raise ValueError("kernel of an inhomogeneous system")
        rows, offset, total = self._assemble()
        return [self._unpack(v, offset) for v in echelon_kernel(*rref_rows(rows), total)]


# -- membership in presentation images ------------------------------------


def module_image_span(m: PresentedModule, window: int) -> TruncatedSpan:
    """Truncated span of {mono * row_i : all rows, mono within the window}.

    Nothing in the package calls it: image_witness answers membership
    and returns the coefficients in one solve.  It stays as the public
    view of the image, which the tests compare with image_witness, and
    the bench tracer wraps by name.
    """
    vectors = []
    for i in range(m.n):
        rd = m.row_degree(i)
        if rd < 0:
            continue
        columns = [monomial_multiples(_ONE, window - rd, e) for e in m.delta[i]]
        vectors.extend(zip(*columns))
    return TruncatedSpan(vectors, m.n, window)


def image_witness(m: PresentedModule, vec: tuple, window: int):
    """Row c with c * delta = vec, searched within the window, or None."""
    sys = WeylLinearSystem()
    for i in range(m.n):
        rd = m.row_degree(i)
        sys.unknown(f"c{i}", window - rd if rd >= 0 else -1)
    for j in range(m.n):
        sys.equate(
            [(_ONE, f"c{i}", m.delta[i][j], 1) for i in range(m.n)],
            rhs=vec[j],
        )
    sol = sys.solve()
    if sol is None:
        return None
    return tuple(sol[f"c{i}"] for i in range(m.n))


def divide_left(r: WeylElement, q: WeylElement) -> WeylElement | None:
    """The unique s with s*q = r, or None when q does not divide r.

    Divides by leading terms under term_order, which is graded, so {q} is
    already a Groebner basis of Dq.
    """
    if q.is_zero():
        raise ValueError("division by the zero element")
    (k, l), lead_q = leading_term(q)
    s = _ZERO
    while not r.is_zero():
        (i, j), lead_r = leading_term(r)
        if i < k or j < l:
            return None
        term = WeylElement.monomial(i - k, j - l, lead_r / lead_q)
        s = s + term
        r = r - term * q
    return s


def _nf_rows(nfs: list[tuple[dict[tuple[int, int], int], int]]) -> list[dict[int, int]]:
    """Sparse integer rows, one per standard monomial, of L times the
    matrix whose column j is the normal form nfs[j], as (numerators, den),
    L the lcm of the columns' denominators: the same kernel and the same
    solutions."""
    scale = lcm(*(den for _, den in nfs))
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for col, (num, den) in enumerate(nfs):
        f = scale // den
        for mono, c in num.items():
            rows.setdefault(mono, {})[col] = c * f
    return list(rows.values())


# -- hom spaces between cyclic modules ------------------------------------


@dataclass(frozen=True)
class HomBasis:
    """Basis of hom classes D/Dp -> D/Dq up to a degree bound.

    A map is right multiplication by r with p*r in Dq; r and r' give the
    same map when r - r' is in Dq.  dims[n] counts classes with a
    representative of degree <= n; basis holds one representative per
    class at the bound.
    """

    source: CyclicModule
    target: CyclicModule
    max_degree: int
    dims: tuple[int, ...]
    basis: tuple[WeylElement, ...]

    @property
    def dim(self) -> int:
        return self.dims[-1]

    def stabilized_at(self) -> int | None:
        proof = _window_proof(self.source.p, self.target.p)
        return _stabilized_at(self.dims, None if proof is None else proof[0])


def _stabilized_at(dims: tuple[int, ...], top: int | None = None) -> int | None:
    """First cutoff from which every later dim agrees, when that run holds
    at least STABLE_RUN dims, or None.  None as well when a proof puts the
    answer's top degree past the cap: a class may lie above it."""
    if top is not None and top >= len(dims):
        return None
    n = len(dims)
    while n and dims[n - 1] == dims[-1]:
        n -= 1
    return n if len(dims) - n >= STABLE_RUN else None


def hom_search(source, target, max_degree: int = DEFAULT_MAX_DEGREE) -> HomBasis:
    """Hom classes between cyclic modules, with the degree profile.

    A class has one representative r on the standard monomials modulo Dq,
    a map when p*r has normal form 0; reduction never raises degree, so
    the profile is exact, not a window estimate.  Where _window_proof
    bounds the classes' degrees (q = t or d, or coprime symbols), only the
    r up to that bound are searched, and a bound past the cap leaves the
    answer unstabilized.  Every representative is rechecked by an exact
    division before the basis is handed back.
    """
    source = _coerce_module(source)
    target = _coerce_module(target)
    if not isinstance(source, CyclicModule) or not isinstance(target, CyclicModule):
        raise TypeError("hom_search expects cyclic modules")
    p, q, n_cap = source.p, target.p, _check_degree(max_degree)
    (k, l), _ = leading_term(q)
    proof = _window_proof(p, q)
    span = n_cap if proof is None else min(n_cap, proof[0])
    # standard monomials in ascending term_order, so the kernel comes out
    # as the reduced basis in TruncatedSpan's order
    std = sorted((m for m in truncated_monomials(span) if m[0] < k or m[1] < l),
                 key=term_order)
    # p*m up to one constant factor, which scales every column alike
    rows = _nf_rows(_product_normal_forms(p, std, q))
    kernel = echelon_kernel(*rref_rows(rows), len(std))
    # a kernel vector's last column is its free one
    dims = tuple(sum(1 for v in kernel if sum(std[max(v)]) <= n) for n in range(n_cap + 1))
    basis = tuple(WeylElement({std[c]: x for c, x in v.items()}) for v in reversed(kernel))
    for r in basis:
        if divide_left(p * r, q) is None:
            raise RuntimeError("hom basis element failed the exact recheck")
    return HomBasis(source, target, n_cap, dims, basis)


# -- windows proved for Hom and Ext^1 --------------------------------------


def _falling(shift: int, count: int) -> list[int]:
    """(k + shift)(k + shift - 1)...(k + shift - count + 1), as integer
    coefficients in k, ascending."""
    poly = [1]
    for step in range(count):
        poly = [(shift - step) * a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _value(c: list[int], x: int) -> int:
    return sum(a * x ** e for e, a in enumerate(c))


def _root_floors(c: list[int], lo: int, hi: int) -> list[int]:
    """Integers n in [lo, hi) such that every real root of c in [lo, hi]
    lies in some [n, n + 1].  The roots of c' cut [lo, hi] into pieces on
    which c is monotone, so one bisection finds c's one sign change in
    each; a piece of length 1 is kept whole."""
    if len(c) < 2:
        return []
    cuts = {lo, hi}
    for n in _root_floors([e * a for e, a in enumerate(c)][1:], lo, hi):
        cuts.update((n, n + 1))
    cuts = sorted(cuts)
    out = []
    for u, v in zip(cuts, cuts[1:]):
        sign = _value(c, u)
        if v > u + 1 and sign * _value(c, v) > 0:
            continue
        while v > u + 1:
            m = (u + v) // 2
            if sign * _value(c, m) > 0:
                u = m
            else:
                v = m
        out.append(u)
    return out


def _largest_root(c: list[int]) -> int:
    """The largest non-negative integer root of c, an integer polynomial
    with a nonzero leading coefficient, or -1 when it has none.  Every
    real root x has |x| <= 1 + max |c_i| (Cauchy's bound)."""
    hi = 1 + max(map(abs, c[:-1]), default=0)
    roots = {x for n in _root_floors(c, 0, hi) for x in (n, n + 1) if _value(c, x) == 0}
    return max(roots, default=-1)


def _indicial(p: WeylElement, on_t: bool) -> tuple[int, list[int]]:
    """(s, c) with p sending monomial k of D/Dd = Q[t] (on_t) or D/Dt =
    Q[d] to c(k) times monomial k + s, plus lower monomials.

    On Q[t], d acts as d/dt: t^i d^j sends t^k to (k)_j t^(k+i-j).  On
    Q[d], t acts as -d/dd: t^i d^j sends d^k to (-1)^i (k+j)_i d^(k+j-i).
    c sums the terms of the largest shift s; falling factorials of
    distinct degrees are independent, so c is not zero."""
    nums, _ = _numerators(p)
    if on_t:
        terms = [(i - j, a, _falling(0, j)) for (i, j), a in nums.items()]
    else:
        terms = [(j - i, (-1) ** i * a, _falling(j, i)) for (i, j), a in nums.items()]
    s = max(shift for shift, _, _ in terms)
    c = [0] * max(len(f) for shift, _, f in terms if shift == s)
    for shift, a, f in terms:
        if shift == s:
            for e, x in enumerate(f):
                c[e] += a * x
    return s, c


def _symbol(w: WeylElement) -> tuple[list[int], bool]:
    """w's top form in commuting t and d, at d = 1, as integer
    coefficients in t, ascending and trimmed; and whether d divides it."""
    nums, _ = _numerators(w)
    a = _deg(w)
    f = [nums.get((i, a - i), 0) for i in range(a + 1)]
    by_d = not f[-1]
    while not f[-1]:
        f.pop()
    return f, by_d


def _coprime(f: list[int], g: list[int]) -> bool:
    """Whether two nonzero integer polynomials, coefficients ascending and
    trimmed, have a constant gcd: Euclid on primitive pseudo-remainders."""
    while g:
        while len(f) >= len(g):
            pad = [0] * (len(f) - len(g)) + g
            f = [g[-1] * a - f[-1] * b for a, b in zip(f, pad)]
            while f and not f[-1]:
                f.pop()
            if not f:
                break
            h = gcd(*f)
            f = [a // h for a in f]
        f, g = g, f
    return len(f) == 1


_T, _D = WeylElement.t(), WeylElement.d()


def _window_proof(p: WeylElement, q: WeylElement) -> tuple[int, int, int] | None:
    """(r, s, top) for a pair whose Hom(D/Dp, D/Dq) is proved to lie in
    degrees <= r and Ext^1 in degrees <= top, with p raising the degree of
    every element of D/Dq of degree > r by exactly s; None otherwise.  So
    an element of pD + Dq of degree <= n is p*x for an x of degree
    <= max(r, n - s).

    - q = d or t: D/Dq is Q[t] or Q[d] and _indicial gives p's (s, c).
      r is c's largest non-negative integer root (-1 if none), so p is
      injective above degree r and hits every monomial of degree
      > max(r + s, s - 1).  See Abramov-Bronstein-Petkovsek (ISSAC 1995)
      and Saito-Sturmfels-Takayama (2000), ch. 5.
    - gcd(sigma(p), sigma(q)) = 1, sigma the top form: on gr D/Dq =
      Q[t, d]/(sigma(q)), p acts as multiplication by sigma(p), which is
      injective.  So Hom = 0, p raises every degree by a = deg p, and
      Ext^1 has gr Q[t, d]/(sigma(p), sigma(q)), zero from degree
      a + deg q - 1 on.
    """
    if q == _D or q == _T:
        s, c = _indicial(p, q == _D)
        r = _largest_root(c)
        return r, s, max(r + s, s - 1)
    (f, f_by_d), (g, g_by_d) = _symbol(p), _symbol(q)
    if (f_by_d and g_by_d) or not _coprime(f, g):
        return None
    return -1, _deg(p), _deg(p) + _deg(q) - 2


# -- isomorphism certificates ----------------------------------------------


@dataclass(frozen=True)
class IsoWitness:
    """Two-sided isomorphism certificate between presented modules.

    With Da, Db the presentation matrices of source and target, the
    matrices here satisfy, exactly,

        Da * r = u * Db          (r defines a map source -> target)
        Db * s = v * Da          (s defines a map target -> source)
        r * s - 1 = c_a * Da     (the composite is the identity on source)
        s * r - 1 = c_b * Db     (and on target)

    verify() rechecks all four lines by plain multiplication.
    """

    source: object
    target: object
    r: Wmat
    s: Wmat
    u: Wmat
    v: Wmat
    c_a: Wmat
    c_b: Wmat
    max_degree: int

    def verify(self) -> bool:
        _tally("modules.verify")
        da = as_presented(self.source).delta
        db = as_presented(self.target).delta
        return (
            wmat_mul(da, self.r) == wmat_mul(self.u, db)
            and wmat_mul(db, self.s) == wmat_mul(self.v, da)
            and wmat_mul(self.r, self.s) == mat_add(wmat_identity(len(da)), wmat_mul(self.c_a, da))
            and wmat_mul(self.s, self.r) == mat_add(wmat_identity(len(db)), wmat_mul(self.c_b, db))
        )

    def reversed(self) -> "IsoWitness":
        return IsoWitness(
            source=self.target,
            target=self.source,
            r=self.s,
            s=self.r,
            u=self.v,
            v=self.u,
            c_a=self.c_b,
            c_b=self.c_a,
            max_degree=self.max_degree,
        )


def _identity_witness(source, target, max_degree: int) -> IsoWitness:
    n = as_presented(source).n
    ident = wmat_identity(n)
    zero = wmat_zero(n, n)
    return IsoWitness(source, target, ident, ident, ident, ident, zero, zero, max_degree)


def _verified(w: IsoWitness) -> IsoWitness:
    """w, once verify() passes: the one check of a witness handed out."""
    if not w.verify():
        raise RuntimeError("witness failed verification")
    return w


def compose_iso(w1: IsoWitness, w2: IsoWitness) -> IsoWitness:
    """Compose certificates without re-solving or re-checking.

    The correction terms substitute one certificate's identities into the
    other, so the composite of two witnesses that verify also verifies.
    """
    _tally("modules.compose")
    if as_presented(w1.target).delta != as_presented(w2.source).delta:
        raise ValueError("witness endpoints do not match")
    r = wmat_mul(w1.r, w2.r)
    s = wmat_mul(w2.s, w1.s)
    u = wmat_mul(w1.u, w2.u)
    v = wmat_mul(w2.v, w1.v)
    c_a = mat_add(w1.c_a, wmat_mul(wmat_mul(w1.r, w2.c_a), w1.v))
    c_b = mat_add(w2.c_b, wmat_mul(wmat_mul(w2.s, w1.c_b), w2.u))
    return IsoWitness(
        w1.source, w2.target, r, s, u, v, c_a, c_b,
        max(w1.max_degree, w2.max_degree),
    )


def _s_rungs(max_degree: int) -> list[int]:
    return sorted({min(x, max_degree) for x in (1, 2, 4, 6)})


def _finish_cyclic_iso(a: CyclicModule, b: CyclicModule, r: WeylElement,
                       s_pool: list[WeylElement], max_degree: int) -> IsoWitness | None:
    """Witness a -> b through r, when r*s - 1 is in Dp for an s in the span
    of s_pool: NF_p(r*s) = NF_p(1), one system over the normal forms,
    whose solution is unique once r is an isomorphism."""
    p, q = a.p, b.p
    u = divide_left(p * r, q)
    if u is None:
        return None
    xs = [r * s for s in s_pool] + [_ONE]
    rows = _nf_rows(_integer_normal_forms(xs, p))
    y = echelon_solution(*rref_rows(rows), len(s_pool))
    if y is None:
        return None
    s = sum((s_pool[j] * x for j, x in y.items()), _ZERO)
    c_b = divide_left(s * r - _ONE, q)
    if c_b is None:
        return None
    v = divide_left(q * s, p)
    if v is None:
        return None
    return IsoWitness(
        a, b,
        ((r,),), ((s,),), ((u,),), ((v,),),
        ((divide_left(r * s - _ONE, p),),), ((c_b,),),
        max_degree,
    )


def _cyclic_iso(a: CyclicModule, b: CyclicModule, max_degree: int) -> IsoWitness | None:
    if a.p == b.p:
        return _identity_witness(a, b, max_degree)
    hab = hom_search(a, b, max_degree)
    if hab.dim == 0:
        return None
    hba = hom_search(b, a, max_degree)
    if hba.dim == 0:
        return None
    pair_sums = (x + y for x, y in combinations(hab.basis, 2))
    candidates = [*hab.basis, *islice(pair_sums, max(0, 12 - len(hab.basis)))]
    s_all = sorted(hba.basis, key=_deg)
    # rs and ss filter fixed lists by a growing cap: equal sizes, equal lists
    tried = None
    for cap in sorted({min(2, max_degree), min(4, max_degree), max_degree}):
        rs = [r for r in candidates if 0 <= _deg(r) <= cap]
        ss = [s for s in s_all if 0 <= _deg(s) <= cap]
        if not rs or not ss or (len(rs), len(ss)) == tried:
            continue
        tried = (len(rs), len(ss))
        for r in rs:
            w = _finish_cyclic_iso(a, b, r, ss, max_degree)
            if w is not None:
                return w
    return None


def _generator_candidates(m: PresentedModule) -> list[tuple]:
    n = m.n
    t = WeylElement.t()
    d = WeylElement.d()

    def vec(entries: dict[int, WeylElement]) -> tuple:
        return tuple(entries.get(i, _ZERO) for i in range(n))

    cands = [vec({i: _ONE}) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cands.append(vec({i: _ONE, j: _ONE}))
            cands.append(vec({i: _ONE, j: -_ONE}))
    for i in range(n):
        for j in range(n):
            if i != j:
                cands.append(vec({i: _ONE, j: t}))
                cands.append(vec({i: _ONE, j: d}))
    return cands[:12]


def _certify_generator(a: CyclicModule, b: PresentedModule, g: tuple, u_row: tuple,
                       s_degree: int, max_degree: int) -> IsoWitness | None:
    """Certify D/Dp = b with the cyclic generator mapping to g."""
    p = a.p
    dp = _deg(p)
    n = b.n
    db = wmat_deg(b.delta)
    sys = WeylLinearSystem()
    for j in range(n):
        sys.unknown(f"s{j}", s_degree)
    for i in range(n):
        sys.unknown(f"v{i}", max(-1, db + s_degree - dp))
    for i in range(n):
        sys.equate(
            [(b.delta[i][j], f"s{j}", _ONE, 1) for j in range(n)]
            + [(_ONE, f"v{i}", p, -1)]
        )
    basis = sys.kernel()
    if not basis:
        return None
    g_deg = max(0, max(_deg(e) for e in g))
    cw = s_degree + g_deg + WINDOW_MARGIN
    sys2 = WeylLinearSystem()
    for k in range(len(basis)):
        sys2.unknown(f"x{k}", 0)
    sys2.unknown("ca", max(0, g_deg + s_degree - dp))
    for i in range(n):
        for l in range(n):
            rd = b.row_degree(l)
            sys2.unknown(f"cb_{i}_{l}", cw - rd if rd >= 0 else -1)
    # the kernel basis as columns: s_mat[j][k] is the s_j of basis vector k
    s_mat = tuple(tuple(x[f"s{j}"] for x in basis) for j in range(n))
    gs = wmat_mul((tuple(g),), s_mat)[0]
    sys2.equate(
        [(gs[k], f"x{k}", _ONE, 1) for k in range(len(basis))]
        + [(_ONE, "ca", p, -1)],
        rhs=_ONE,
    )
    for i in range(n):
        for j in range(n):
            terms = [
                (basis[k][f"s{i}"] * g[j], f"x{k}", _ONE, 1)
                for k in range(len(basis))
            ]
            terms += [
                (_ONE, f"cb_{i}_{l}", b.delta[l][j], -1) for l in range(n)
            ]
            sys2.equate(terms, rhs=_ONE if i == j else _ZERO)
    sol = sys2.solve()
    if sol is None:
        return None
    # the x_k have degree 0: constants, as a column
    xs = tuple((sol[f"x{k}"],) for k in range(len(basis)))
    s_col = wmat_mul(s_mat, xs)
    v_col = wmat_mul(tuple(tuple(x[f"v{i}"] for x in basis) for i in range(n)), xs)
    c_b = tuple(
        tuple(sol[f"cb_{i}_{l}"] for l in range(n)) for i in range(n)
    )
    return IsoWitness(
        a, b,
        (tuple(g),), s_col, (tuple(u_row),), v_col,
        ((sol["ca"],),), c_b,
        max_degree,
    )


def iso_witness(source, target, max_degree: int = DEFAULT_MAX_DEGREE) -> IsoWitness | None:
    """Search for a certified isomorphism between two modules.

    The one isomorphism planner.  Equal presentations get the identity.
    Otherwise each side is brought to a cyclic form D/Dp plus a witness
    (a CyclicModule is its own form, a PresentedModule reads cyclic_form's
    unverified chain, whose witness may pass the cap); the cyclic search
    runs between the two forms and is composed with their witnesses.  When
    one side has no form, that presentation's own generator loop runs with
    the other form's relation, unless the search proved that no D/Dp
    matches it: the bottom of its chain has a zero row or column, so rank
    >= 1.  Only the composite is verified, once.  None means no witness
    was found within the degree bound, a bounded negative, not a proof of
    non-isomorphism.
    """
    n_cap = _check_degree(max_degree)
    source, target = _coerce_module(source), _coerce_module(target)
    if as_presented(source).delta == as_presented(target).delta:
        return _verified(_identity_witness(source, target, n_cap))
    side_a, side_b = (
        (m, None) if isinstance(m, CyclicModule) else _find_cyclic_form(m, n_cap)
        for m in (source, target)
    )
    if not side_a:
        if not side_b:
            return None
        w = iso_witness(target, source, n_cap)
        return None if w is None else w.reversed()
    cyc_a, w_a = side_a
    if not side_b:
        # False: the search proved that no D/Dp matches the target
        found = side_b is None and _own_form(target, n_cap, cyc_a.p)
        w = found[1] if found else None
    else:
        cyc_b, w_b = side_b
        w = _cyclic_iso(cyc_a, cyc_b, n_cap)
        if w is not None and w_b is not None:
            w = compose_iso(w, w_b)
    if w is not None and w_a is not None:
        w = compose_iso(w_a.reversed(), w)
    return None if w is None else _verified(w)


# -- recovering a cyclic presentation --------------------------------------


def cyclic_form(m: PresentedModule, max_degree: int = DEFAULT_MAX_DEGREE):
    """(CyclicModule, witness cyclic -> m) when a single generator with a
    certifiable principal annihilator is found within the bounds, else None.

    A nonzero constant c = delta[i][j] eliminates generator j by relation
    i, all in one Gauss–Jordan pass that writes the chain's witness down
    (_pivot_chain) and ends at D/Dp, p monic, when one generator with a
    nonzero relation is left.  That witness, or a residual's form composed
    with it, is returned whatever its degree: the cap bounds searches,
    never built witnesses.  A residual with a zero row or column has rank
    >= 1 and no form.  Otherwise, from the residual up, the search tries
    the short generator combinations ([:12]) at each s rung and certifies
    one annihilator per generator g: the lowest-degree a with a*g in the
    image, when it is unique up to a scalar.  No other can pass: a
    certificate through g makes ann(g) = Dp, and D is a domain with a
    graded order, so the elements of Dp of degree deg p are the multiples
    of p.  None is a bounded negative; the witness is verified once, at
    the top of the chain, before it is returned.  The unverified chain is
    memoized, so versal's one-block identifications and iso_witness read
    the same one.
    """
    if not isinstance(m, PresentedModule):
        raise TypeError("cyclic_form expects a PresentedModule")
    found = _find_cyclic_form(m, _check_degree(max_degree))
    return (found[0], _verified(found[1])) if found else None


def _pivot_chain(m: PresentedModule, n_cap: int, steps: int | None = None):
    """(residual, witness residual -> m, or None for m itself) by one
    Gauss–Jordan pass over D on the rows [delta | 1], while two generators
    are kept and fewer than steps pivots are made: the pivot, the first
    constant c of the residual by columns from the last and rows from the
    first, has its row scaled by 1/c, and f times that row is taken from
    every other row, f the other row's entry in the pivot column.  With
    P = delta_IJ on the pivots, the witness identities force
    s_J = -P^-1 delta_IK, u = [-delta_RJ P^-1 | 1] and c_b = -P^-1 on
    (J, I): the reduced rows, as in the one-pivot witnesses' product.  One
    generator left with a nonzero relation ends at D/Dp: its row is scaled
    by 1/lead to a monic p, and v holds lead."""
    _tally("modules.pivot_chain")
    n = m.n
    rows = [[*row, *(_ONE if x == l else _ZERO for x in range(n))] for l, row in enumerate(m.delta)]
    kept_rows, kept_cols, pivots = list(range(n)), list(range(n)), {}
    while len(kept_cols) > 1 and len(pivots) != steps:
        i, j = next(((i, j) for j in reversed(kept_cols) for i in kept_rows
                     if _deg(rows[i][j]) == 0), (None, None))
        if i is None:
            break
        inv = 1 / rows[i][j].coeff(0, 0)
        pivots[j] = rows[i] = [x * inv if x else x for x in rows[i]]
        nonzero = [(k, x) for k, x in enumerate(rows[i]) if x]
        for row in rows:
            if (f := row[j]) and row is not rows[i]:
                for k, x in nonzero:
                    row[k] -= f * x
        kept_rows.remove(i)
        kept_cols.remove(j)
    last = rows[kept_rows[0]][kept_cols[0]] if len(kept_cols) == 1 else None
    if not (pivots or last):
        return m, None
    lead = last.items()[-1][1] if last else 1
    if last:
        rows[kept_rows[0]] = [x * (1 / lead) if x else x for x in rows[kept_rows[0]]]
    scale = WeylElement.constant(lead) if last else _ONE
    delta = tuple(tuple(rows[l][k] for k in kept_cols) for l in kept_rows)
    residual = CyclicModule(delta[0][0]) if last else PresentedModule(delta)
    return residual, IsoWitness(
        residual, m,
        tuple(tuple(_ONE if x == k else _ZERO for x in range(n)) for k in kept_cols),
        tuple(tuple(-pivots[x][k] if x in pivots else _ONE if x == k else _ZERO for k in kept_cols)
              for x in range(n)),
        tuple(tuple(rows[l][n:]) for l in kept_rows),
        tuple(tuple(scale if x == l else _ZERO for l in kept_rows) for x in range(n)),
        wmat_zero(n - len(pivots), n - len(pivots)),
        tuple(tuple(-y for y in pivots[x][n:]) if x in pivots else (_ZERO,) * n for x in range(n)),
        n_cap,
    )


@_memo
def _find_cyclic_form(m: PresentedModule, n_cap: int):
    """(D/Dp, unverified witness D/Dp -> m); False when no D/Dp can
    match m, a proof; None when the bounded search found no form."""
    # each level's own search, from the chain's bottom up (a residual's
    # short generators are not its parent's); a level is eliminated again,
    # with one pivot fewer, only when the one below it has no form.  The
    # levels are isomorphic, so a bottom of positive rank ends the search
    mod, w = _pivot_chain(m, n_cap)
    if isinstance(mod, CyclicModule):
        return mod, w
    if _positive_rank(mod):
        return False
    while (found := _own_form(mod, n_cap)) is None:
        if w is None:
            return None
        mod, w = _pivot_chain(m, n_cap, m.n - mod.n - 1)
    return found[0], found[1] if w is None else compose_iso(found[1], w)


def _own_form(m: PresentedModule, n_cap: int, p: WeylElement | None = None):
    """(D/Dp, witness D/Dp -> m) through the short generators, rung by rung:
    with p given, each generator is certified with that relation, else
    with its one annihilator (_generator_form); None when none passes."""
    if p is not None:
        _tally("modules.own_form_with_p")
    gens = _generator_candidates(m)
    forms = functools.cache(lambda gi: _generator_form(m, gens[gi], n_cap, p))
    for sd in _s_rungs(n_cap):
        for gi, g in enumerate(gens):
            form = forms(gi)
            if form is None:
                continue
            w = _certify_generator(form[0], m, g, form[1], sd, n_cap)
            if w is not None:
                return form[0], w
    return None


def _positive_rank(m: PresentedModule) -> bool:
    """Whether delta has a zero row (a missing relation) or column (an
    untouched generator): then m has rank >= 1, unlike any D/Dp."""
    return not (all(map(any, m.delta)) and all(map(any, zip(*m.delta))))


def _generator_form(m: PresentedModule, g: tuple, n_cap: int, p: WeylElement | None = None):
    """(D/Dp, u_row with u_row * delta = p*g) for the given p, else for the
    one annihilator p of g that cyclic_form can certify, or None."""
    g_deg = max(0, max(_deg(e) for e in g))
    for k in _s_rungs(n_cap) if p is None else ():
        sys = WeylLinearSystem()
        sys.unknown("a", k)
        for i in range(m.n):
            rd = m.row_degree(i)
            sys.unknown(f"x{i}", k + g_deg + WINDOW_MARGIN - rd if rd >= 0 else -1)
        for j in range(m.n):
            sys.equate(
                [(_ONE, "a", g[j], 1)]
                + [(_ONE, f"x{i}", m.delta[i][j], -1) for i in range(m.n)]
            )
        avecs = [(s["a"],) for s in sys.kernel() if not s["a"].is_zero()]
        if not avecs:
            continue
        span = TruncatedSpan(avecs, 1, k)
        degrees = span.pivot_degrees()
        if degrees.count(min(degrees)) > 1:
            return None
        p = span.basis_vectors()[degrees.index(min(degrees))][0]
        break
    if p is None:
        return None
    cyc = CyclicModule(p)
    u_row = image_witness(m, tuple(cyc.p * e for e in g), n_cap + WINDOW_MARGIN)
    return None if u_row is None else (cyc, u_row)


def clear_caches() -> None:
    """Empty the cache of every function registered by ``_memo``."""
    for memo in _MEMOS:
        memo.cache_clear()
