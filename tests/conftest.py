"""Shared oracles and fixtures.

The oracles here recompute results by routes independent of the package
internals: operators act on actual polynomials, ranks come from
fraction-free integer elimination, path counts come from walking the
quiver.  Tests compare library output against these, never against the
library itself.
"""

import functools
import math
import random
from fractions import Fraction
from typing import Iterable

import pytest

from weyldeform import (
    CommutativePoint,
    QMatrix,
    SpecializationReport,
    UnsupportedDimensionError,
    WeylElement,
    WeylLinearSystem,
    intertwiners,
    inverse,
    iso_witness,
    normal_form,
    print_weyl,
    quiver_form,
    representative,
    validate,
)
from weyldeform import modules
from weyldeform.ext import Ext1Result
from weyldeform.linalg import kernel_basis, rank, reduce_row, rref_rows
from weyldeform.linalg import solve as solve_linear
from weyldeform.modules import (
    WINDOW_MARGIN,
    _ONE,
    _ZERO,
    CyclicModule,
    HomBasis,
    IsoWitness,
    PresentedModule,
    TruncatedSpan,
    _certify_generator,
    _deg,
    _generator_candidates,
    _generator_form,
    _s_rungs,
    _stabilized_at,
    clear_caches,
    compose_iso,
    divide_left,
    image_witness,
    monomial_count,
    wmat_zero,
)
from weyldeform.reps import FAMILIES, NormalForm, QuiverForm, _eigenbasis, _new_span
from weyldeform.weyl import (Monomial, leading_term, monomial_multiples, term_order,
                             truncated_monomials)


def apply_to_poly(w: WeylElement, coeffs):
    """Apply an operator to a polynomial given by coefficients of x^k.

    t acts as multiplication by x, d as d/dx.  Returns the coefficient
    list of the image, trimmed of trailing zeros.
    """
    out = {}
    for (i, j), c in w.items():
        for k, a in enumerate(coeffs):
            if a == 0:
                continue
            # d^j x^k = k(k-1)...(k-j+1) x^(k-j), then multiply by x^i
            if j > k:
                continue
            fall = 1
            for step in range(j):
                fall *= k - step
            deg = k - j + i
            out[deg] = out.get(deg, Fraction(0)) + c * a * fall
    if not out:
        return []
    top = max(d for d, v in out.items() if v != 0) if any(out.values()) else -1
    if top < 0:
        return []
    return [out.get(k, Fraction(0)) for k in range(top + 1)]


def poly_eq(a, b):
    la = [Fraction(x) for x in a]
    lb = [Fraction(x) for x in b]
    while la and la[-1] == 0:
        la.pop()
    while lb and lb[-1] == 0:
        lb.pop()
    return la == lb


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank_val = 0
    prev = 1
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (pivot * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = pivot
        row += 1
        rank_val += 1
    return rank_val


def ref_mul(a, b, ncols):
    """The product of two dense matrices of Fractions, by the triple loop;
    ncols is b's width, which b cannot show when it has no rows."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(ncols)]
            for i in range(len(a))]


def ref_inverse(rows):
    """The inverse of a square matrix by Gauss-Jordan on Fractions, or None."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return None
        m[c], m[r] = m[r], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for k in range(n):
            if k != c:
                f = m[k][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[c])]
    return [row[n:] for row in m]


def dense_rref_rows(rows):
    """Reduced row echelon form by dense Gauss-Jordan on Fraction lists.

    The elimination loop the package used before its sparse kernel, kept
    verbatim as a reference: returns (nonzero reduced rows, pivot column
    indices) as dense lists.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    for row in mat:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(mat)) if mat[k][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _mono_mul(i: int, j: int, k: int, l: int) -> dict[Monomial, int]:
    # (t^i d^j)(t^k d^l) = sum_m  C(j,m) * k!/(k-m)! * t^(i+k-m) d^(j+l-m)
    # from moving each of the j d's across the k t's.
    out: dict[Monomial, int] = {}
    for m in range(min(j, k) + 1):
        out[(i + k - m, j + l - m)] = math.comb(j, m) * math.perm(k, m)
    return out


def weyl_mul(self, other) -> "WeylElement":
    """Product of two elements, in normal form.

    ``WeylElement.__mul__`` before it summed into a plain dict and built
    its result unconverted, kept verbatim (with its monomial rule above)
    as a reference: every coefficient goes through ``Fraction`` and the
    public constructor drops the zeros.
    """
    w = self._coerce(other)
    if w is None:
        return NotImplemented
    terms: dict[Monomial, Fraction] = {}
    for (i, j), a in self._terms.items():
        for (k, l), b in w._terms.items():
            ab = a * b
            for key, n in _mono_mul(i, j, k, l).items():
                terms[key] = terms.get(key, Fraction(0)) + ab * n
    return WeylElement(terms)


def dense_wmat_mul(a, b):
    """``modules.wmat_mul`` before it walked only the nonzero entries of b,
    kept verbatim as a reference: it tests every (i, k, j)."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in product")
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b)) if a[i][k] and b[k][j]), _ZERO)
            for j in range(len(b[0]) if b else 0)
        )
        for i in range(len(a))
    )


def solve_divide_left(r: WeylElement, q: WeylElement):
    """The unique s with s*q = r, or None, by one exact linear solve.

    The package's division before it divided by leading terms, kept
    verbatim (its module constants inlined) as a reference.
    """
    if q.is_zero():
        raise ValueError("division by the zero element")
    if r.is_zero():
        return WeylElement.zero()
    ds = r.degree() - q.degree()
    if ds < 0:
        return None
    sys = WeylLinearSystem()
    sys.unknown("s", ds)
    sys.equate([(WeylElement.one(), "s", q, 1)], rhs=r)
    sol = sys.solve()
    return None if sol is None else sol["s"]


def items_order_divide_left(r: WeylElement, q: WeylElement):
    """The unique s with s*q = r, or None.

    The package's division before it took leading terms by term_order,
    kept verbatim as a reference: it leads with the last of items(), which
    prefers the d-power.
    """
    if q.is_zero():
        raise ValueError("division by the zero element")
    (k, l), lead_q = q.items()[-1]
    s = _ZERO
    while not r.is_zero():
        (i, j), lead_r = r.items()[-1]
        if i < k or j < l:
            return None
        term = WeylElement.monomial(i - k, j - l, lead_r / lead_q)
        s = s + term
        r = r - term * q
    return s


def windowed_finish_cyclic_iso(a: CyclicModule, b: CyclicModule, r: WeylElement,
                               s_pool: list[WeylElement], max_degree: int):
    """Cyclic witness through r, with the cofactor c_a solved in a window.

    ``modules._finish_cyclic_iso`` before it read r*s - 1 in Dp off normal
    forms modulo Dp, kept verbatim (its 2-degree slack inlined) as a
    reference: c_a is an unknown of a ``WeylLinearSystem`` beside the
    coefficients of s.
    """
    p, q = a.p, b.p
    dp = _deg(p)
    u = divide_left(p * r, q)
    if u is None:
        return None
    ca_deg = max(0, _deg(r) + max(_deg(s) for s in s_pool) - dp + 2)
    sys = WeylLinearSystem()
    for j in range(len(s_pool)):
        sys.unknown(f"y{j}", 0)
    sys.unknown("ca", ca_deg)
    sys.equate(
        [(r * s_pool[j], f"y{j}", _ONE, 1) for j in range(len(s_pool))]
        + [(_ONE, "ca", p, -1)],
        rhs=_ONE,
    )
    sol = sys.solve()
    if sol is None:
        return None
    s = WeylElement.zero()
    for j, cand in enumerate(s_pool):
        s = s + cand * sol[f"y{j}"].coeff(0, 0)
    c_b = divide_left(s * r - _ONE, q)
    if c_b is None:
        return None
    v = divide_left(q * s, p)
    if v is None:
        return None
    return IsoWitness(
        a, b,
        ((r,),), ((s,),), ((u,),), ((v,),),
        ((sol["ca"],),), ((c_b,),),
        max_degree,
    )


def product_assemble(system: WeylLinearSystem):
    """Rows, offsets and total of a ``WeylLinearSystem`` by general products.

    ``WeylLinearSystem._assemble`` before it formed every coefficient as
    ``left * t^a d^b * right`` with two products, kept verbatim (reading
    the unknowns' degrees where it read their monomial lists) as a
    reference.
    """
    monos = {name: truncated_monomials(deg) for name, deg in system._degree.items()}
    offset: dict[str, int] = {}
    total = 0
    for name in monos:
        offset[name] = total
        total += len(monos[name])
    rows: list[dict[int, Fraction]] = []
    for terms, rhs in system._eqs:
        rowmap: dict[tuple[int, int], dict[int, Fraction]] = {}
        for left, name, right, coef in terms:
            cf = Fraction(coef)
            scaled = cf != 1
            for k, (a, b) in enumerate(monos[name], offset[name]):
                w = left * WeylElement.monomial(a, b) * right
                for ij, c in w.items():
                    if scaled:
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


class WindowedSpan(TruncatedSpan):
    """TruncatedSpan with the degree-profile reads the windowed oracles use.

    Coordinates run by descending total degree, so the pivots of degree
    <= n count dim(span intersect V_n) for every n up to the window.
    """

    def dim_cap(self, n: int) -> int:
        return sum(1 for dd in self.pivot_degrees() if dd <= n)

    def pivot_positions(self) -> list[int]:
        return list(self._pivots)

    def standard_monomials(self, n: int) -> list[tuple[int, tuple[int, int]]]:
        """Non-pivot coordinates of degree <= n, ascending canonical order."""
        pivot_set = set(self._pivots)
        out = [
            (g, ij)
            for k, (g, ij) in enumerate(self._cols)
            if k not in pivot_set and ij[0] + ij[1] <= n
        ]
        out.sort(key=lambda c: (c[1][0] + c[1][1], c[1][1], c[0]))
        return out


def windowed_hom_basis(source: CyclicModule, target: CyclicModule, n_cap: int) -> HomBasis:
    """Hom classes by the (r, u) kernel of p*r = u*q and two truncated spans.

    ``modules._hom_basis`` before it read the classes off normal forms
    modulo Dq, kept verbatim (unmemoized, on WindowedSpan) as a reference.
    """
    p, q = source.p, target.p
    dp, dq = _deg(p), _deg(q)
    sys = WeylLinearSystem()
    sys.unknown("r", n_cap)
    sys.unknown("u", dp + n_cap - dq)
    sys.equate([(p, "r", _ONE, 1), (_ONE, "u", q, -1)])
    sols = sys.kernel()
    rspan = WindowedSpan([(s["r"],) for s in sols], 1, n_cap)
    qvecs = [(w,) for w in monomial_multiples(_ONE, n_cap - dq, q)]
    qspan = WindowedSpan(qvecs, 1, n_cap)
    dims = tuple(
        rspan.dim_cap(n) - qspan.dim_cap(n) for n in range(n_cap + 1)
    )
    qpivots = set(qspan.pivot_positions())
    basis = tuple(
        vec[0]
        for vec, pos in zip(rspan.basis_vectors(), rspan.pivot_positions())
        if pos not in qpivots
    )
    for r in basis:
        if divide_left(p * r, q) is None:
            raise RuntimeError("hom basis element failed the exact recheck")
    return HomBasis(source, target, n_cap, dims, basis)


def _generator_witness(a: CyclicModule, b: PresentedModule, g: tuple,
                       s_degrees: Iterable[int], max_degree: int) -> IsoWitness | None:
    """Certify D/Dp = b through the generator g, once p*g lies in the image.

    ``modules._generator_witness`` before iso_witness's presentation branch
    went through the cyclic form's own generator loop, kept verbatim as a
    reference.
    """
    window = max_degree + WINDOW_MARGIN
    u_row = image_witness(b, tuple(a.p * e for e in g), window)
    if u_row is None:
        return None
    for sd in s_degrees:
        w = _certify_generator(a, b, g, u_row, sd, max_degree)
        if w is not None:
            return w
    return None


def cyclic_to_presented_iso(a: CyclicModule, b: PresentedModule,
                            max_degree: int) -> IsoWitness | None:
    """``modules._cyclic_to_presented_iso``, kept verbatim as a reference:
    each generator in turn, at every s rung, through _generator_witness."""
    for g in _generator_candidates(b):
        w = _generator_witness(a, b, g, _s_rungs(max_degree), max_degree)
        if w is not None:
            return w
    return None


_CFORM_ATTEMPT_CAP = 60


def _annihilator_candidates(m: PresentedModule, g: tuple, rungs: list[int]) -> list[WeylElement]:
    """Low-degree elements a with a*g in the image of the presentation.

    ``modules._annihilator_candidates`` before the search certified only
    the lowest-degree one (``modules._generator_form``), kept verbatim as
    a reference, with the attempt cap above.
    """
    g_deg = max(0, max(_deg(e) for e in g))
    seen: set[WeylElement] = set()
    out: list[WeylElement] = []
    for k in rungs:
        sys = WeylLinearSystem()
        sys.unknown("a", k)
        for i in range(m.n):
            rd = m.row_degree(i)
            bound = k + g_deg + WINDOW_MARGIN - rd if rd >= 0 else -1
            sys.unknown(f"x{i}", bound)
        for j in range(m.n):
            sys.equate(
                [(_ONE, "a", g[j], 1)]
                + [(_ONE, f"x{i}", m.delta[i][j], -1) for i in range(m.n)]
            )
        sols = sys.kernel()
        avecs = [(s["a"],) for s in sols if not s["a"].is_zero()]
        if not avecs:
            continue
        span = TruncatedSpan(avecs, 1, k)
        rows = list(zip(span.basis_vectors(), span.pivot_degrees()))
        rows.sort(key=lambda rp: rp[1])
        for (vec, _degree) in rows:
            cand = CyclicModule(vec[0]).p
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
        if out:
            break
    return out[:6]


def _scaling_witness(m: PresentedModule, max_degree: int):
    """(D/Dp, witness D/Dp -> m) for a 1 x 1 presentation (p) with p != 0.

    ``modules._scaling_witness`` before the pivot chain scaled its last
    relation itself (``modules._pivot_chain``), kept verbatim as a
    reference.
    """
    p = m.delta[0][0]
    cyc = CyclicModule(p)
    lead = p.items()[-1][1]
    one = ((_ONE,),)
    return cyc, IsoWitness(
        cyc, m,
        one, one,
        ((WeylElement.constant(1 / lead),),),
        ((WeylElement.constant(lead),),),
        ((_ZERO,),), ((_ZERO,),),
        max_degree,
    )


def search_cyclic_form(m: PresentedModule, n_cap: int):
    """Cyclic form by the annihilator search on every presentation.

    ``modules._cyclic_form_search`` before it eliminated generators at
    constant pivots, kept verbatim (unmemoized) as a reference.
    """
    if m.n == 1:
        if m.delta[0][0].is_zero():
            return None
        return _scaling_witness(m, n_cap)
    attempts = 0
    gens = _generator_candidates(m)
    annihilators = functools.cache(
        lambda gi: _annihilator_candidates(m, gens[gi], _s_rungs(n_cap))
    )
    for sd in _s_rungs(n_cap):
        for gi, g in enumerate(gens):
            for p_cand in annihilators(gi):
                if attempts >= _CFORM_ATTEMPT_CAP:
                    return None
                attempts += 1
                cyc = CyclicModule(p_cand)
                w = _generator_witness(cyc, m, g, (sd,), n_cap)
                if w is not None:
                    return cyc, w
    return None


def _pivot_step(m: PresentedModule, n_cap: int) -> IsoWitness | None:
    """Witness residual -> m, where the residual eliminates generator j by
    relation i at the constant entry c = delta[i][j] (last column first,
    then first row); None when m has no nonzero constant entry.

    ``modules._pivot_step`` before the chain became one Gauss–Jordan pass
    (``modules._pivot_chain``), kept verbatim as a reference: one pivot's
    witness, dense n x n.
    """
    dl = m.delta
    n = m.n
    i, j = next(((i, j) for j in reversed(range(n)) for i in range(n)
                 if _deg(dl[i][j]) == 0), (None, None))
    if i is None:
        return None
    inv = 1 / dl[i][j].coeff(0, 0)
    rows = [l for l in range(n) if l != i]
    cols = [k for k in range(n) if k != j]
    # the Schur complement: row l minus delta[l][j] * c^-1 times row i
    factor = {l: dl[l][j] * inv for l in rows}
    residual = PresentedModule(tuple(
        tuple(dl[l][k] - factor[l] * dl[i][k] if factor[l] else dl[l][k] for k in cols)
        for l in rows
    ))
    # e_j = -c^-1 * sum of delta[i][k] * e_k over k != j
    s = tuple(
        tuple(-inv * dl[i][k] if x == j else _ONE if x == k else _ZERO for k in cols)
        for x in range(n)
    )
    u = tuple(
        tuple(-factor[l] if x == i else _ONE if x == l else _ZERO for x in range(n))
        for l in rows
    )
    return IsoWitness(
        residual, m,
        tuple(tuple(_ONE if x == k else _ZERO for x in range(n)) for k in cols),
        s, u,
        tuple(tuple(_ONE if x == l else _ZERO for l in rows) for x in range(n)),
        wmat_zero(n - 1, n - 1),
        tuple(tuple(WeylElement.constant(-inv) if (x, y) == (j, i) else _ZERO for y in range(n))
              for x in range(n)),
        n_cap,
    )


def step_chain(m: PresentedModule, n_cap: int):
    """(bottom residual, witness bottom -> m or None): the one-pivot
    witnesses of ``_pivot_step`` composed from the top while two generators
    are kept, as ``modules._find_cyclic_form`` built its chain before the
    chain became one Gauss–Jordan pass; one generator left with a nonzero
    relation is finished by ``_scaling_witness``, composed last, as before
    the pass scaled that relation itself."""
    w = None
    while m.n > 1 and (step := _pivot_step(m, n_cap)) is not None:
        w, m = (step if w is None else compose_iso(step, w)), step.source
    if m.n == 1 and not m.delta[0][0].is_zero():
        cyc, scaling = _scaling_witness(m, n_cap)
        return cyc, scaling if w is None else compose_iso(scaling, w)
    return m, w


def parent_cyclic_form(m: PresentedModule, n_cap: int):
    """Cyclic form by the pivot chain, with the list search at each level
    where the chain stops.

    ``modules._find_cyclic_form`` before it certified one annihilator per
    generator, kept (unmemoized, unverified) as a reference.
    """
    step = _pivot_step(m, n_cap) if m.n > 1 else None
    found = None if step is None else parent_cyclic_form(step.source, n_cap)
    if found is not None:
        return found[0], compose_iso(found[1], step)
    return search_cyclic_form(m, n_cap)


def bottom_up_cyclic_form(m: PresentedModule, n_cap: int):
    """``modules._find_cyclic_form`` before it composed the chain top-down,
    kept verbatim (it recurses on itself) as a reference: each level
    composes the residual's form with its step, compose_iso(found, step).
    """
    if m.n == 1:
        if m.delta[0][0].is_zero():
            return None
        return _scaling_witness(m, n_cap)
    step = _pivot_step(m, n_cap)
    found = None if step is None else bottom_up_cyclic_form(step.source, n_cap)
    if found is not None:
        return found[0], compose_iso(found[1], step)
    # no step, or a residual with no form: its short generators are not
    # m's, so m itself is searched
    gens = _generator_candidates(m)
    forms = functools.cache(lambda gi: _generator_form(m, gens[gi], n_cap))
    for sd in _s_rungs(n_cap):
        for gi, g in enumerate(gens):
            form = forms(gi)
            if form is None:
                continue
            w = _certify_generator(form[0], m, g, form[1], sd, n_cap)
            if w is not None:
                return form[0], w
    return None


@pytest.fixture
def both_chains(monkeypatch):
    """run(fn) gives (fn() by the package's chain, fn() by
    bottom_up_cyclic_form), each from empty caches."""
    def run(fn):
        clear_caches()
        got = fn()
        with monkeypatch.context() as patch:
            patch.setattr(modules, "_find_cyclic_form", bottom_up_cyclic_form)
            clear_caches()
            want = fn()
        clear_caches()
        return got, want
    return run


_T = WeylElement.t()
_D = WeylElement.d()


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


def block_decompose(m: PresentedModule) -> list[tuple[tuple[int, ...], PresentedModule]]:
    """Split a presentation into its block-diagonal components.

    Generators i and j land in the same block when delta couples them in
    either matrix position.  Returns (index tuple, submatrix) pairs in
    order of smallest index.

    ``modules.block_decompose`` before identification read its blocks
    off the normal form, kept verbatim as a reference.
    """
    n = m.n
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(n):
            if i != j and (not m.delta[i][j].is_zero() or not m.delta[j][i].is_zero()):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in sorted(groups.values(), key=lambda g: g[0]):
        sub = PresentedModule(
            tuple(tuple(m.delta[i][j] for j in members) for i in members)
        )
        out.append((tuple(members), sub))
    return out


def candidate_identify(delta: PresentedModule, max_degree: int,
                       shift_base: Fraction | None,
                       point: CommutativePoint | None = None) -> SpecializationReport:
    """Identification by trying a fixed candidate list per coordinate block.

    ``versal._identify_presented`` before it read targets off the normal
    form, kept verbatim as a reference.
    """
    blocks = block_decompose(delta)
    if len(blocks) > 1:
        subs = tuple(
            candidate_identify(sub, max_degree, shift_base) for _, sub in blocks
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


_STANDARD_TERMS = (
    (1, _D, "e1"),
    (-1, _ONE, "s12"),
    (-1, _ONE, "s21"),
    (1, _T, "e2"),
)


def term_table_specialize(rep) -> PresentedModule:
    """Presentation matrix by summing a term table over the hull generators.

    ``versal.specialize`` before it evaluated its formula entrywise, kept
    verbatim (the table fixed to the standard terms) as a reference.
    """
    validate(rep)
    mats = {"e1": rep.e1, "s12": rep.s12, "s21": rep.s21, "e2": rep.e2}
    n = rep.n
    rows = []
    for l in range(n):
        row = []
        for k in range(n):
            entry = WeylElement.zero()
            for coef, w, name in _STANDARD_TERMS:
                scalar = Fraction(coef) * mats[name][k, l]
                if scalar:
                    entry = entry + w * scalar
            row.append(entry)
        rows.append(tuple(row))
    return PresentedModule(tuple(rows))


def windowed_ext1(p: WeylElement, q: WeylElement, n_cap: int) -> Ext1Result:
    """Ext^1 by one truncated span over all p- and q-multiples in the window.

    ``ext._ext1`` before it read the quotient off normal forms modulo Dq,
    kept verbatim (unmemoized, on WindowedSpan) as a reference.
    """
    window = n_cap + WINDOW_MARGIN
    dp, dq = _deg(p), _deg(q)
    ws = monomial_multiples(p, window - dp, _ONE) + monomial_multiples(_ONE, window - dq, q)
    span = WindowedSpan([(w,) for w in ws], 1, window)
    dims = tuple(monomial_count(n) - span.dim_cap(n) for n in range(n_cap + 1))
    reps = tuple(
        WeylElement.monomial(*ij) for _, ij in span.standard_monomials(n_cap)
    )
    return Ext1Result(dims[-1], reps, dims, _stabilized_at(dims))


def reference_normal_forms(xs, q: WeylElement, n: int) -> list[WeylElement]:
    """Normal forms modulo Dq by every multiple t^a d^b * q of degree <= n.

    ``weyl.normal_forms`` before it built only the multiples the xs
    reach, kept verbatim as a reference.
    """
    (k, l), lead = leading_term(q)
    reduced: dict[Monomial, dict[Monomial, Fraction]] = {}

    def reduce(terms) -> dict[Monomial, Fraction]:
        out: dict[Monomial, Fraction] = {}
        for mono, c in terms:
            for key, x in reduced.get(mono, {mono: 1}).items():
                out[key] = out.get(key, 0) + c * x
        return {key: c for key, c in out.items() if c}

    span = n - k - l
    multiples = dict(zip(((a + k, b + l) for a, b in truncated_monomials(span)),
                         monomial_multiples(WeylElement.one(), span, q)))
    xs = list(xs)
    if any((x.degree() or 0) > n for x in xs):
        raise ValueError("element exceeds the degree of the normal forms")
    # the non-standard monomials the xs reach, directly or through a multiple
    needed: set[Monomial] = set()
    todo = [mono for x in xs for mono in x._terms]
    while todo:
        mono = todo.pop()
        if mono in multiples and mono not in needed:
            needed.add(mono)
            todo.extend(multiples[mono]._terms)
    # every other term of t^a d^b * q is smaller, so it is reduced already
    for mono in sorted(needed, key=term_order):
        reduced[mono] = reduce((key, -c / lead) for key, c in multiples[mono] if key != mono)
    return [WeylElement._of(reduce(x)) for x in xs]


def filtered_ext1(p: WeylElement, q: WeylElement, n_cap: int,
                  margin: int = WINDOW_MARGIN) -> Ext1Result:
    """Ext^1 from the normal forms of every p*m in the window, filtered
    down to the standard m, in a window ``margin`` degrees past the cap.

    ``ext._ext1`` before it built only the standard products and widened
    the window for deep p, kept verbatim (unmemoized, on the reference
    normal forms above) with the margin as a parameter.
    """
    window = n_cap + margin
    span = window - _deg(p)
    (k, l), _ = leading_term(q)
    prods = [w for (i, j), w in zip(truncated_monomials(span), monomial_multiples(p, span, _ONE))
             if i < k or j < l]
    # columns in descending term_order (TruncatedSpan's), so a row's
    # pivot is its leading monomial
    cols = sorted(truncated_monomials(window), key=term_order, reverse=True)
    pos = {m: c for c, m in enumerate(cols)}
    _, pivots = rref_rows({pos[m]: c for m, c in w}
                          for w in reference_normal_forms(prods, q, window))
    pivot_monos = {cols[c] for c in pivots}
    free = [m for m in truncated_monomials(n_cap)
            if (m[0] < k or m[1] < l) and m not in pivot_monos]
    dims = tuple(sum(1 for i, j in free if i + j <= n) for n in range(n_cap + 1))
    reps = tuple(WeylElement.monomial(*m) for m in free)
    return Ext1Result(dims[-1], reps, dims, _stabilized_at(dims))


def grid_are_conjugate(rep1, rep2):
    """An invertible g with g rep1 g^-1 = rep2, or None, by a grid search.

    The package's conjugacy test before it compared normal forms, kept
    verbatim as a reference for dimensions up to 3 (the grid has
    (n+1)^d points, d the intertwiner dimension): basis elements of the
    intertwiner kernel, a seeded random batch, then a grid whose
    per-variable range exceeds the degree of the determinant.
    """
    if rep1.n != rep2.n:
        raise ValueError("representations of different dimensions")
    n = rep1.n
    if rep1.triple() == rep2.triple():
        return QMatrix.identity(n)
    basis = intertwiners(rep1, rep2)
    if not basis:
        return None

    def check(g: QMatrix):
        ginv = g.inverse()
        if ginv is None:
            return None
        for x, xp in zip(rep1.triple(), rep2.triple()):
            if g * x * ginv != xp:
                return None
        return g

    for g in basis:
        got = check(g)
        if got is not None:
            return got
    d = len(basis)
    rng = random.Random(174)
    for _ in range(32):
        coeffs = [rng.randint(-2, 2) for _ in range(d)]
        g = _combo(basis, coeffs, n)
        got = check(g)
        if got is not None:
            return got
    # determinant has degree <= n in each coordinate, so the grid below
    # finds a nonvanishing point whenever one exists
    grid = range(n + 1)
    stack = [()]
    for _ in range(d):
        stack = [s + (c,) for s in stack for c in grid]
    for coeffs in stack:
        g = _combo(basis, list(coeffs), n)
        got = check(g)
        if got is not None:
            return got
    return None


def _chain(t: QMatrix, vec: list, length: int) -> list:
    """vec, t vec, t^2 vec, ..., length vectors in all: ``reps._chain``
    before the normal form ran on integers, kept verbatim."""
    out = [list(vec)]
    while len(out) < length:
        out.append(t.apply(out[-1]))
    return out


def dense_block_normal_form(p: int, q: int, a: QMatrix, b: QMatrix) -> NormalForm:
    """``reps._block_normal_form`` before it built the kernel flag from
    block products and skipped the levels with no string, kept verbatim
    as a reference (its zero spelled Fraction(0)): one dense power T^l and
    one kernel_basis per vertex at every level, and a complement at every
    (vertex, length) pair."""
    n = p + q
    t = QMatrix._of(tuple(tuple(
        a[i, j - p] if i < p <= j else b[i - p, j] if j < p <= i else Fraction(0)
        for j in range(n)) for i in range(n)))
    # flag[l][v] spans ker T^l inside vertex v (0 for e1's 1-eigenspace),
    # up to the Fitting index, where the kernels stop growing
    flag = [[[], []]]
    power = QMatrix.identity(n)
    while True:
        power = power * t
        rows = power.to_rows()
        level = [
            [[Fraction(0)] * lo + v + [Fraction(0)] * (n - hi)
             for v in kernel_basis([r[lo:hi] for r in rows], hi - lo)]
            for lo, hi in ((0, p), (p, n))
        ]
        if sum(map(len, level)) == sum(map(len, flag[-1])):
            break
        flag.append(level)
    flag.append(level)
    strings, chains = [], []
    for v in (0, 1):
        for length in range(1, len(flag) - 1):
            below = flag[length - 1][v] + [t.apply(x) for x in flag[length + 1][1 - v]]
            for k in _new_span(below, flag[length][v]):
                strings.append((v + 1, length))
                chains.append((v, _chain(t, flag[length][v][k], length)))
    # im T^l past the Fitting index, inside vertex 1, where M = T^2 is AB
    image = [c for c in zip(*power.to_rows()) if not any(c[p:])]
    w = [image[k] for k in _new_span([], image)]
    tt = t.transpose()
    factors = []
    while w:
        k = len(w)
        # d: the degree of M's minimal polynomial on span w
        powers = [_chain(t, x, 2 * k + 1)[::2] for x in w]
        d = rank([sum(col, []) for col in zip(*powers)])
        for c in range(k * k + 1):
            top = [sum(c ** i * x[j] for i, x in enumerate(w)) for j in range(n)]
            chain = _chain(t, top, 2 * d + 1)
            krylov = chain[::2]
            if rank(krylov[:d]) == d:
                break
        coeffs = solve_linear([list(col) for col in zip(*krylov[:d])], krylov[d])
        factors.append(tuple(-x for x in coeffs) + (Fraction(1),))
        chains.append((0, chain[:2 * d]))
        dual = _chain(tt, solve_linear(krylov[:d], [0] * (d - 1) + [1]), 2 * d - 1)
        # the invariant complement: x in span w with f(M^i x) = 0 for i < d
        cut = [[sum(a * b for a, b in zip(f, x)) for x in w] for f in dual[::2]]
        w = [[sum(y[i] * x[j] for i, x in enumerate(w)) for j in range(n)]
             for y in kernel_basis(cut, k)]
    cols = [x for side in (0, 1) for v, chain in chains
            for i, x in enumerate(chain) if (v + i) % 2 == side]
    return NormalForm((p, q), tuple(strings), tuple(factors), QMatrix._of(tuple(zip(*cols))))


def four_product_quiver_form(rep) -> QuiverForm | None:
    """``reps.quiver_form`` before it read a split e1's blocks as they stand
    and multiplied binv only into the columns it reads, kept as a
    reference: the eigenbasis of every e1, then binv*s12*basis and
    binv*s21*basis in full.  None where the eigenvectors do not span or a
    block is out of shape."""
    split = _eigenbasis(rep.e1)
    if split is None:
        return None
    p, basis, binv = split
    n, q = rep.n, rep.n - p
    s12c = binv * rep.s12 * basis
    s21c = binv * rep.s21 * basis
    if not all(s12c[i, j] == 0 == s21c[j, i]
               for i in range(n) for j in range(n) if not i < p <= j):
        return None
    a = QMatrix._of(tuple(tuple(s12c[i, p + j] for j in range(q)) for i in range(p)), q)
    b = QMatrix._of(tuple(tuple(s21c[p + i, j] for j in range(p)) for i in range(q)), p)
    return QuiverForm((p, q), a, b, basis)


def product_form_delta(rep) -> PresentedModule:
    """Delta' as ``versal._identify_rep`` multiplied it out before reading it
    off the invariants: the specialized differential of g^-1 x g for the
    normal form's basis g, each entry built through WeylElement's checks."""
    basis = normal_form(rep).basis
    ginv = basis.inverse()
    e1, s12, s21 = (ginv * x * basis for x in rep.triple())
    n = rep.n
    return PresentedModule(tuple(
        tuple(WeylElement({(0, 1): e1[k, l], (0, 0): -(s12[k, l] + s21[k, l]),
                           (1, 0): int(k == l) - e1[k, l]})
              for k in range(n))
        for l in range(n)))


def _combo(basis, coeffs, n):
    out = QMatrix.zeros(n, n)
    for c, b in zip(coeffs, basis):
        if c:
            out = out + b * Fraction(c)
    return out


def table_match_quiver(p: int, q: int, a: QMatrix, b: QMatrix):
    """Identify block data of total dimension <= 3 as (label, parameter).

    The package's hand-written branch table before match_label read the
    normal form, kept verbatim as a reference.
    """
    n = p + q
    if n == 1:
        return ("T_1_1", None) if p == 1 else ("T_1_2", None)
    if n == 2:
        if (p, q) == (0, 2):
            return ("T_2_1", None)
        if (p, q) == (2, 0):
            return ("T_2_2", None)
        av, bv = a[0, 0], b[0, 0]
        if av == 0 and bv == 0:
            return ("T_2_3", None)
        if av == 0:
            return ("T_2_4", None)
        if bv == 0:
            return ("T_2_5", None)
        return ("T_2_6", av * bv)
    if n == 3:
        if (p, q) == (0, 3):
            return ("T_3_1", None)
        if (p, q) == (3, 0):
            return ("T_3_2", None)
        if (p, q) == (1, 2):
            ab = sum(a[0, k] * b[k, 0] for k in range(2))
            if a.is_zero() and b.is_zero():
                return ("T_3_3", None)
            if a.is_zero():
                return ("T_3_4", None)
            if b.is_zero():
                return ("T_3_5", None)
            return ("T_3_7", ab) if ab != 0 else ("T_3_6", None)
        if (p, q) == (2, 1):
            ba = sum(b[0, k] * a[k, 0] for k in range(2))
            if a.is_zero() and b.is_zero():
                return ("T_3_8", None)
            if b.is_zero():
                return ("T_3_10", None)
            if a.is_zero():
                return ("T_3_9", None)
            return ("T_3_12", ba) if ba != 0 else ("T_3_11", None)
    raise UnsupportedDimensionError(
        f"no family matching for dimension {n}"
    )


_PARAMETER_SAMPLES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _coupling_components(p: int, q: int, a: QMatrix, b: QMatrix):
    """Connected components of the block-coupling graph.

    Nodes are the p-side and q-side basis vectors; a nonzero entry of
    either block ties its two endpoints together.  Each component gives
    an invariant direct summand in these coordinates.
    """
    nodes = [(0, i) for i in range(p)] + [(1, j) for j in range(q)]
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(p):
        for j in range(q):
            if a[i, j] != 0 or b[j, i] != 0:
                parent[find((0, i))] = find((1, j))
    comps: dict = {}
    for v in nodes:
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values(), key=lambda vs: min(vs))


def _component_blocks(comp, a: QMatrix, b: QMatrix):
    ps = [i for side, i in comp if side == 0]
    qs = [j for side, j in comp if side == 1]
    sub_a = QMatrix._of(tuple(tuple(a[i, j] for j in qs) for i in ps))
    sub_b = QMatrix._of(tuple(tuple(b[j, i] for i in ps) for j in qs))
    return len(ps), len(qs), sub_a, sub_b


def _decomposition_labels(spec, forms) -> tuple[str, ...]:
    per_sample = [
        [table_match_quiver(*_component_blocks(c, f.a, f.b))
         for c in _coupling_components(*f.dims, f.a, f.b)]
        for f in forms
    ]
    rendered = []
    for idx, (label, param) in enumerate(per_sample[0]):
        if param is None:
            rendered.append(label)
            continue
        # a summand whose parameter runs through the samples carries the family's
        if [ls[idx][1] for ls in per_sample] == list(_PARAMETER_SAMPLES):
            rendered.append(f"{label}({spec.parameter})")
        else:
            rendered.append(f"{label}({param})")
    return tuple(rendered)


def coupling_decomposition(label: str) -> tuple[str, ...]:
    """A decomposable family's summand labels by the coupling graph.

    The package's route before classify read the normal form, kept
    verbatim as a reference: the connected components of the blocks'
    nonzero entries, each matched at four parameter samples, a summand
    whose parameter follows the samples printed with the family's name.
    The components are matched by table_match_quiver instead of the
    package's normal-form matcher.
    """
    spec = FAMILIES[label]
    if spec.parameter is None:
        reps = [representative(label)]
    else:
        reps = [representative(label, {spec.parameter: s}) for s in _PARAMETER_SAMPLES]
    return _decomposition_labels(spec, [quiver_form(r) for r in reps])


def _extend(rows: list, pivots: list, vectors: list) -> list[int]:
    """Indices of the vectors that enlarge the span of echelon rows.

    Each such vector joins rows and pivots, reduced and scaled so that
    every row stays zero at the pivots before it, as reduce_row needs.
    """
    kept = []
    for k, vec in enumerate(vectors):
        rest = reduce_row({i: x for i, x in enumerate(vec) if x}, rows, pivots)
        if rest:
            piv = min(rest)
            rows.append({c: x / rest[piv] for c, x in rest.items()})
            pivots.append(piv)
            kept.append(k)
    return kept


def burnside_is_simple(rep) -> bool:
    """Whether the three matrices generate the full matrix algebra.

    The package's simplicity test before it became a rule on the block
    shape, kept verbatim as a reference: the span of words in the
    generators is grown one word length at a time.
    """
    validate(rep)
    n = rep.n
    gens = [rep.e1, rep.s12, rep.s21]
    target = n * n

    # echelon basis of the span of words in the generators, grown one
    # word length at a time; a word enters the frontier when it is new
    reduced: list[dict] = []
    pivots: list[int] = []
    candidates = [QMatrix.identity(n)]
    while candidates:
        flat = [[x for i in range(n) for x in mat.row(i)] for mat in candidates]
        frontier = [candidates[k] for k in _extend(reduced, pivots, flat)]
        if len(reduced) == target:
            break
        candidates = [m for w in frontier for g in gens for m in (g * w, w * g)]
    return len(reduced) == target


def _eigen_kernels(e1: QMatrix, s12: QMatrix, s21: QMatrix) -> tuple[list, list]:
    """Kernel bases of the stacked maps, one per e1 eigenvalue.

    A vector in either kernel spans an invariant line: the s-matrices
    kill it and e1 scales it by 0 or 1.
    """
    n = e1.nrows
    eye = QMatrix.identity(n)
    k0 = kernel_basis(QMatrix.from_blocks([[s12], [s21], [e1]]).to_rows(), n)
    k1 = kernel_basis(QMatrix.from_blocks([[s12], [s21], [e1 - eye]]).to_rows(), n)
    return k0, k1


def invariant_checked_submodule(rep):
    """A basis of a proper nonzero invariant subspace, or None.

    The package's submodule search before it read the answer off one
    kernel per vertex line, kept verbatim as a reference: both kernels
    are built, and each candidate line is re-proved invariant by rank.
    """
    quiver_form(rep)
    n = rep.n
    if n > 3:
        raise UnsupportedDimensionError(
            "submodule search is complete only up to dimension 3"
        )
    if n == 1:
        return None
    k0, k1 = _eigen_kernels(rep.e1, rep.s12, rep.s21)
    for vec in k0 + k1:
        sub = (tuple(vec),)
        if _invariant(rep, sub):
            return sub
    return None


def _invariant(rep, basis: tuple) -> bool:
    dim = rank(basis)
    for m in rep.triple():
        if rank([*basis, *(m.apply(v) for v in basis)]) != dim:
            return False
    return True


def path_count_dims(arrow_counts, order):
    """dim of (paths of length < order) in a quiver, by direct walking.

    arrow_counts[i][j] is the number of arrows from point j to point i.
    Paths are composed arrow-after-arrow, so a path arriving at a point
    extends by any arrow leaving that point.
    """
    npts = len(arrow_counts)
    total = 0
    # frontier[v] = number of paths of the current length ending at v
    frontier = [1] * npts
    for _ in range(order):
        total += sum(frontier)
        nxt = [0] * npts
        for i in range(npts):
            for j in range(npts):
                nxt[i] += arrow_counts[i][j] * frontier[j]
        frontier = nxt
    return total


def rand_weyl(rng: random.Random, max_deg=3, max_coef=4, terms=4) -> WeylElement:
    w = WeylElement.zero()
    for _ in range(rng.randint(0, terms)):
        i = rng.randint(0, max_deg)
        j = rng.randint(0, max_deg)
        num = rng.randint(-max_coef, max_coef)
        den = rng.randint(1, 3)
        w = w + WeylElement.monomial(i, j) * Fraction(num, den)
    return w


def rand_poly(rng: random.Random, max_deg=5, max_coef=6):
    return [Fraction(rng.randint(-max_coef, max_coef)) for _ in range(rng.randint(0, max_deg) + 1)]


def rand_invertible(rng: random.Random, n: int) -> QMatrix:
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if inverse(rows) is not None:
            return QMatrix(rows)


def rand_unimodular(rng: random.Random, n: int) -> QMatrix:
    """A random integer matrix of determinant +-1: a row permutation of
    lower times upper unitriangular, off-diagonal entries in -2..2."""
    def tri(below: bool):
        return [[1 if i == j else rng.randint(-2, 2) if (j < i) == below else 0
                 for j in range(n)] for i in range(n)]
    order = rng.sample(range(n), n)
    return QMatrix([QMatrix(tri(True)).row(i) for i in order]) * QMatrix(tri(False))


@pytest.fixture
def rng():
    return random.Random(90125)


# The canonical family table, frozen as literals.  Each entry is
# (dims (p, q), e1 rows, s12 rows, s21 rows) at parameter value a for
# the parametric families.  Kept independent of the library's own
# table builder on purpose.
def frozen_family(label, a=Fraction(1)):
    z1 = ((0,),)
    tables = {
        "T_1_1": ((1, 0), ((1,),), z1, z1),
        "T_1_2": ((0, 1), ((0,),), z1, z1),
        "T_2_1": ((0, 2), ((0, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0))),
        "T_2_2": ((2, 0), ((1, 0), (0, 1)), ((0, 0), (0, 0)), ((0, 0), (0, 0))),
        "T_2_3": ((1, 1), ((1, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0))),
        "T_2_4": ((1, 1), ((1, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 0), (1, 0))),
        "T_2_5": ((1, 1), ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 0))),
        "T_2_6": ((1, 1), ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (a, 0))),
        "T_3_1": ((0, 3), ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
        "T_3_2": ((3, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
        "T_3_3": ((1, 2), ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
        "T_3_4": ((1, 2), ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (1, 0, 0), (0, 0, 0))),
        "T_3_5": ((1, 2), ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
        "T_3_6": ((1, 2), ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (1, 0, 0))),
        "T_3_7": ((1, 2), ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (a, 0, 0), (0, 0, 0))),
        "T_3_8": ((2, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
        "T_3_9": ((2, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 0), (0, 0, 0), (0, 1, 0))),
        "T_3_10": ((2, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                   ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
                   ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
        "T_3_11": ((2, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                   ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
                   ((0, 0, 0), (0, 0, 0), (1, 0, 0))),
        "T_3_12": ((2, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                   ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
                   ((0, 0, 0), (0, 0, 0), (0, a, 0))),
    }
    return tables[label]
