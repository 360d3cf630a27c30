"""Shared oracles, fixtures and the digest that pins replaced routes.

The oracles here recompute results by routes independent of the package
internals: operators act on actual polynomials, ranks come from
fraction-free integer elimination, path counts come from walking the
quiver, the family table is frozen as literals.  Some are earlier package
routes kept because they compute the same mathematics another way:
dense elimination and products, the grid conjugacy search, the dense
block normal form, the Burnside simplicity test, Ext^1 at wide margins,
the block decomposition of a presentation, the branch-table matcher
behind coupling_decomposition, the full normal forms modulo Dq that
Hypothesis inputs are checked against (no pin can cover drawn inputs),
and the eigen-kernels of the submodule search.

An earlier route that only showed a new one gives the same bytes is not
kept.  A change that must keep bytes shows it once, against its parent,
and pins the old route's answers on the test's seeded inputs: digest()
of them, or the exact inputs where the old route found an answer.
"""

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from weyldeform import (
    QMatrix,
    UnsupportedDimensionError,
    WeylElement,
    clear_caches,
    intertwiners,
    inverse,
    print_weyl,
    quiver_form,
    representative,
    validate,
)
from weyldeform.cli import _module_json, _witness_json
from weyldeform.ext import Ext1Result
from weyldeform.linalg import kernel_basis, rank, reduce_row, rref_rows
from weyldeform.linalg import solve as solve_linear
from weyldeform.modules import (
    WINDOW_MARGIN,
    _ONE,
    _ZERO,
    CyclicModule,
    IsoWitness,
    PresentedModule,
    _deg,
    _stabilized_at,
)
from weyldeform.reps import FAMILIES, NormalForm, _new_span
from weyldeform.weyl import (Monomial, _counting, leading_term, monomial_multiples, term_order,
                             truncated_monomials)


def plain(x):
    """x as JSON data: an element by print_weyl, a Fraction as its string,
    modules and witnesses as the CLI writes them, a QMatrix as its shape
    and rows, a dataclass as its fields, a dict with string keys."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, WeylElement):
        return print_weyl(x)
    if isinstance(x, (CyclicModule, PresentedModule)):
        return _module_json(x)
    if isinstance(x, IsoWitness):
        return _witness_json(x)
    if isinstance(x, QMatrix):
        return [[x.nrows, x.ncols], plain(x.to_rows())]
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    raise TypeError(f"no JSON form for {type(x).__name__}")


def digest(x) -> str:
    """SHA-256 of x's canonical JSON: plain(x), keys sorted, no spaces.

    A test that held the package to a route it replaced pins this digest
    of that route's answers, recorded before the route was deleted."""
    text = json.dumps(plain(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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


@pytest.fixture
def work():
    """Cold caches and the Counter of weyl._counting() over the test."""
    clear_caches()
    with _counting() as counts:
        yield counts
    clear_caches()


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
