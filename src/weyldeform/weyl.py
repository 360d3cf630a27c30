"""Exact normal-form arithmetic in the first Weyl algebra.

The algebra is generated over the rationals by ``t`` and ``d`` subject to
the single relation ``d*t - t*d = 1``.  Every element has a unique normal
form as a finite rational combination of monomials ``t^i * d^j`` (all
``t`` factors moved to the left).  Elements are immutable; scalars are
exact :class:`fractions.Fraction` values throughout, so equality of
elements is decidable and every computation downstream of this module is
exact.

``parse_weyl`` and ``print_weyl`` convert between elements and a small
expression language (atoms ``t``, ``d``, integers and integer ratios,
operators ``+ - * ^``, parentheses).  ``print_weyl`` emits a canonical
form that ``parse_weyl`` maps back to the same element.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Tuple

from .linalg import _exact_number

Monomial = Tuple[int, int]

_ZERO = Fraction(0)

__all__ = [
    "WeylElement",
    "WeylSyntaxError",
    "leading_term",
    "monomial_multiples",
    "normal_forms",
    "parse_weyl",
    "print_weyl",
    "term_order",
    "truncated_monomials",
]


_MEMOS: list = []


def _memo(fn):
    """Memoize fn for the life of the process; clear_caches() empties it."""
    cached = functools.cache(fn)
    _MEMOS.append(cached)
    return cached


def _mono_mul(i: int, j: int, k: int, l: int) -> list[tuple[Monomial, int]]:
    # (t^i d^j)(t^k d^l) = sum_m  C(j,m) * k!/(k-m)! * t^(i+k-m) d^(j+l-m)
    # from moving each of the j d's across the k t's.
    return [
        ((i + k - m, j + l - m), math.comb(j, m) * math.perm(k, m))
        for m in range(min(j, k) + 1)
    ]


class WeylElement:
    """An element of the first Weyl algebra in normal form.

    Internally a map from exponent pairs ``(i, j)`` (for ``t^i d^j``) to
    nonzero ``Fraction`` coefficients.  Use the ``t``, ``d``, ``one``,
    ``constant`` and ``monomial`` constructors or ``parse_weyl`` rather
    than building the dict by hand.
    """

    # _text, print_weyl's string, is left unset until it is first asked for
    __slots__ = ("_terms", "_hash", "_text")

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in monomial {(i, j)}")
                if not isinstance(c, Fraction):
                    c = _exact_number(c)
                if c:
                    clean[(i, j)] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _of(cls, terms: dict[Monomial, Fraction]) -> "WeylElement":
        """Wrap nonzero Fraction coefficients as they are, unconverted;
        the caller hands over ``terms`` and no longer touches it."""
        w = object.__new__(cls)
        w._terms = terms
        w._hash = None
        return w

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "WeylElement":
        return cls()

    @classmethod
    def one(cls) -> "WeylElement":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def t(cls) -> "WeylElement":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def d(cls) -> "WeylElement":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def constant(cls, c: int | Fraction) -> "WeylElement":
        return cls({(0, 0): _exact_number(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c: int | Fraction = 1) -> "WeylElement":
        return cls({(i, j): _exact_number(c)})

    # -- inspection --------------------------------------------------

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted by (total degree, d-degree), ascending."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1]))

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), _ZERO)

    def degree(self) -> int | None:
        """Total degree (max of i+j); None for the zero element."""
        if not self._terms:
            return None
        return max(i + j for i, j in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in storage order, unsorted; items() sorts them."""
        return iter(self._terms.items())

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other) -> "WeylElement | None":
        if isinstance(other, WeylElement):
            return other
        if isinstance(other, (int, Fraction)):
            return WeylElement.constant(other)
        return None

    def __add__(self, other) -> "WeylElement":
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in w._terms.items():
            s = terms.get(key)
            if s is None:
                terms[key] = c
            elif s := s + c:
                terms[key] = s
            else:
                del terms[key]
        return WeylElement._of(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "WeylElement":
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self + (-w)

    def __rsub__(self, other) -> "WeylElement":
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w + (-self)

    def __neg__(self) -> "WeylElement":
        return WeylElement._of({key: -c for key, c in self._terms.items()})

    def __mul__(self, other) -> "WeylElement":
        # a constant factor on either side scales the other's coefficients
        if not isinstance(other, WeylElement):
            return self._scaled(other) if isinstance(other, (int, Fraction)) else NotImplemented
        x, y = self._terms, other._terms
        if len(y) == 1 and (0, 0) in y:
            return self._scaled(y[0, 0])
        if len(x) == 1 and (0, 0) in x:
            return other._scaled(x[0, 0])
        terms: dict[Monomial, Fraction] = {}
        for (i, j), a in x.items():
            for (k, l), b in y.items():
                ab = a * b
                for key, n in _mono_mul(i, j, k, l):
                    c = ab if n == 1 else ab * n
                    s = terms.get(key)
                    terms[key] = c if s is None else s + c
        return WeylElement._of({key: c for key, c in terms.items() if c})

    # Only scalars reach here, and scalars commute with everything.
    __rmul__ = __mul__

    def _scaled(self, c: int | Fraction) -> "WeylElement":
        if c == 1:
            return self
        return WeylElement._of({key: a * c for key, a in self._terms.items()} if c else {})

    def __pow__(self, n: int) -> "WeylElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = WeylElement.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self._terms == w._terms

    def __hash__(self) -> int:
        # the terms never change after construction, so hash them once; a
        # scalar element hashes as the scalar, which __eq__ finds equal
        if self._hash is None:
            terms = self._terms
            if not terms.keys() - {(0, 0)}:
                self._hash = hash(terms.get((0, 0), 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def __str__(self) -> str:
        return print_weyl(self)

    def __repr__(self) -> str:
        return f"WeylElement({print_weyl(self)!r})"


# -- named operations --------------------------------------------------


def truncated_monomials(n: int) -> list[Monomial]:
    """Exponent pairs (i, j) with i + j <= n, by total degree then j."""
    return [(total - j, j) for total in range(n + 1) for j in range(total + 1)]


def _shift(w: WeylElement, a: int, b: int) -> WeylElement:
    """t^a * w * d^b, which only moves every exponent pair by (a, b)."""
    return WeylElement._of({(i + a, j + b): c for (i, j), c in w._terms.items()})


def _d_times(w: WeylElement) -> WeylElement:
    """d * w, by d * t^i d^j = t^i d^(j+1) + i t^(i-1) d^j."""
    lower = {(i - 1, j): i * c for (i, j), c in w._terms.items() if i}
    return _shift(w, 0, 1) + WeylElement._of(lower)


def _t_powers(left: WeylElement, top: int) -> list[WeylElement]:
    """``left * t^a`` for a = 0, ..., top, by the recurrence
    t^i d^j * t = t^(i+1) d^j + j t^i d^(j-1)."""
    steps = [left]
    for _ in range(top):
        w = steps[-1]._terms
        # the terms of _shift(w, 1, 0) + the lower ones, in __add__'s order
        terms = {(i + 1, j): c for (i, j), c in w.items()}
        for (i, j), c in w.items():
            if j:
                key = (i, j - 1)
                s = terms.get(key)
                if s is None:
                    terms[key] = j * c
                elif s := s + j * c:
                    terms[key] = s
                else:
                    del terms[key]
        steps.append(WeylElement._of(terms))
    return steps


def monomial_multiples(left: WeylElement, n: int, right: WeylElement) -> list[WeylElement]:
    """``left * t^a d^b * right`` for each (a, b) of truncated_monomials(n),
    by normal-ordering recurrences instead of general products.

    With ``right`` = 1, _t_powers builds ``left * t^a`` for a <= n and
    ``* d^b`` is a shift.  Otherwise _d_times builds ``d^b * right`` for
    b <= n and ``t^a *`` is a shift; unless ``left`` = 1, each entry then
    costs one product.  Ext^1 and Hom do not come here:
    _product_normal_forms reduces the products p*t^a d^b without
    building them.
    """
    monos = truncated_monomials(n)
    if right == 1:
        steps = _t_powers(left, n)
        return [_shift(steps[a], 0, b) for a, b in monos]
    steps = [right]
    for _ in range(n):
        steps.append(_d_times(steps[-1]))
    out = [_shift(steps[b], a, 0) for a, b in monos]
    return out if left == 1 else [left * w for w in out]


def term_order(m: Monomial) -> tuple[int, int]:
    """Sort key by total degree, then t-power (items() prefers d); graded,
    so lm(s*q) = lm(s)*lm(q) and {q} is a Groebner basis of Dq."""
    return m[0] + m[1], m[0]


def leading_term(w: WeylElement) -> tuple[Monomial, Fraction]:
    """The top term of a nonzero w under term_order."""
    return max(w._terms.items(), key=lambda kv: term_order(kv[0]))


def _numerators(w: WeylElement) -> tuple[dict[Monomial, int], int]:
    """(numerators, den): w's coefficients over their least common denominator."""
    den = math.lcm(*(c.denominator for c in w._terms.values()))
    return {mono: c.numerator * (den // c.denominator) for mono, c in w._terms.items()}, den


def _integer_multiple(w: WeylElement) -> WeylElement:
    """The multiple of a nonzero w whose coefficients are coprime integers,
    the leading one positive.  Its coefficients are ints, not Fractions, so
    it stays private: _t_powers, _shift and _d_times keep it over the
    integers, and the normal-form tables read it."""
    nums, _ = _numerators(w)
    g = math.gcd(*nums.values())
    g = g if leading_term(w)[1] > 0 else -g
    return WeylElement._of({mono: c // g for mono, c in nums.items()})


def normal_forms(xs: Iterable[WeylElement], q: WeylElement, n: int) -> list[WeylElement]:
    """The normal form modulo Dq of each x of degree <= n: congruent to x,
    on the standard monomials (those lm(q) does not divide), of degree at
    most deg x.  _integer_normal_forms computes them over the integers,
    from q's table, which reduces each monomial once per process; each is
    converted to Fractions here, once, in the same storage order."""
    xs = list(xs)
    if any((x.degree() or 0) > n for x in xs):
        raise ValueError("element exceeds the degree of the normal forms")
    return [WeylElement._of({mono: Fraction(c, den) for mono, c in num.items()})
            for num, den in _integer_normal_forms(xs, q)]


_Terms = list[tuple[Monomial, int]]


class _NormalFormTable:
    """q's side of the normal forms modulo Dq, for a q with coprime integer
    coefficients (an _integer_multiple): the steps d^b * q, and the normal
    form of each non-standard monomial reached so far, as (numerators,
    den) with den > 0 and coprime to the numerators.  A normal form is
    unique, so no entry depends on which call reached its monomial first."""

    __slots__ = ("k", "l", "lead", "steps", "rows")

    def __init__(self, q: WeylElement):
        (self.k, self.l), self.lead = leading_term(q)
        self.steps = [q]
        self.rows: dict[Monomial, tuple[dict[Monomial, int], int]] = {}

    def _extend(self, monos: Iterable[Monomial]) -> None:
        # the multiple t^a d^b * q led by each non-standard monomial that
        # monos reach and the table lacks; none exceeds the degree of the
        # monomial it came from
        k, l, steps, rows = self.k, self.l, self.steps, self.rows
        multiples: dict[Monomial, WeylElement] = {}
        todo = list(monos)
        while todo:
            mono = todo.pop()
            i, j = mono
            if i >= k and j >= l and mono not in rows and mono not in multiples:
                while len(steps) <= j - l:
                    steps.append(_d_times(steps[-1]))
                w = multiples[mono] = _shift(steps[j - l], i - k, 0)
                todo.extend(w._terms)
        # every other term of t^a d^b * q is smaller, so it is reduced already
        for mono in sorted(multiples, key=term_order):
            rows[mono] = self._combine([(key, -c) for key, c in multiples[mono] if key != mono],
                                       self.lead)

    def _combine(self, terms: _Terms, den: int) -> tuple[dict[Monomial, int], int]:
        # the normal form of sum(c * mono) / den, over one common denominator
        rows = [self.rows.get(mono) for mono, _ in terms]
        common = math.lcm(*(r[1] for r in rows if r))
        out: dict[Monomial, int] = {}
        for (mono, c), r in zip(terms, rows):
            if r is None:
                out[mono] = out.get(mono, 0) + c * common
            else:
                num, rden = r
                f = c * (common // rden)
                for key, x in num.items():
                    out[key] = out.get(key, 0) + f * x
        den *= common
        g = math.gcd(den, *out.values())
        return {key: c // g for key, c in out.items() if c}, den // g

    def reduce(self, elements: list[tuple[_Terms, int]]) -> list[tuple[dict[Monomial, int], int]]:
        """The normal form of each sum(c * mono) / den of elements, as
        (numerators, den) in lowest terms, den > 0."""
        self._extend(mono for terms, _ in elements for mono, _ in terms)
        return [self._combine(terms, den) for terms, den in elements]


@_memo
def _normal_form_table(q: WeylElement) -> _NormalFormTable:
    """The one table of an _integer_multiple q, kept until clear_caches();
    Dq is the same ideal for every nonzero multiple of q, so all of them
    share it."""
    return _NormalFormTable(q)


def _integer_normal_forms(xs: Iterable[WeylElement],
                          q: WeylElement) -> list[tuple[dict[Monomial, int], int]]:
    """normal_forms over the integers, of any degree: each as (numerators,
    den), den > 0 and coprime to the numerators.  The xs may have int
    coefficients.  t^a d^b * q is built and reduced only for the monomials
    the xs reach, directly or through another multiple, and only once per
    q per process: q's table keeps them until clear_caches()."""
    table = _normal_form_table(_integer_multiple(q))
    return table.reduce([(list(num.items()), den) for num, den in map(_numerators, xs)])


def _product_normal_forms(p: WeylElement, monos: list[Monomial],
                          q: WeylElement) -> list[tuple[dict[Monomial, int], int]]:
    """_integer_normal_forms of p' * t^a d^b for each (a, b) of monos, p' =
    _integer_multiple(p), a constant multiple of p, so each comes out up
    to a constant factor.  The products are not built: _t_powers gives
    p' * t^a, and * d^b shifts its terms as they go into q's table."""
    steps = [list(w) for w in _t_powers(_integer_multiple(p), max((a for a, _ in monos), default=0))]
    table = _normal_form_table(_integer_multiple(q))
    return table.reduce([([((i, j + b), c) for (i, j), c in steps[a]], 1) for a, b in monos])


# -- printing ---------------------------------------------------------


def _pow_str(sym: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return sym
    return f"{sym}^{e}"


def print_weyl(w: WeylElement) -> str:
    """Canonical string form: terms by descending total degree, then
    ascending d-degree; ``t`` factors before ``d``; explicit ``*``.
    Elements are immutable, so each is formatted once and keeps its text."""
    try:
        return w._text
    except AttributeError:
        pass
    ordered = sorted(w._terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0][1]))
    parts: list[str] = []
    for (i, j), c in ordered:
        mono = "*".join(p for p in (_pow_str("t", i), _pow_str("d", j)) if p)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    w._text = text = " ".join(parts) or "0"
    return text


# -- parsing ----------------------------------------------------------


class WeylSyntaxError(ValueError):
    """Raised on malformed input; carries the 0-based position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


_OPS = set("+-*^/()")


def _tokenize(s: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    n = len(s)
    pos = 0
    while pos < n:
        ch = s[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and s[pos].isdigit():
                pos += 1
            toks.append(("INT", s[start:pos], start))
            continue
        if ch in ("t", "d"):
            toks.append(("NAME", ch, pos))
            pos += 1
            continue
        if ch in _OPS:
            toks.append((ch, ch, pos))
            pos += 1
            continue
        raise WeylSyntaxError(f"unexpected character {ch!r}", pos)
    toks.append(("EOF", "", n))
    return toks


class _Parser:
    def __init__(self, s: str):
        self.source = s
        self.toks = _tokenize(s)
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.idx]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def parse(self) -> WeylElement:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "EOF":
            if kind in ("INT", "NAME", "("):
                raise WeylSyntaxError(
                    f"unexpected {text!r}; adjacent factors need an explicit '*'", pos
                )
            raise WeylSyntaxError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> WeylElement:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> WeylElement:
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "*":
                self.next()
                value = value * self.factor()
            elif kind in ("INT", "NAME", "("):
                raise WeylSyntaxError(
                    f"unexpected {text!r}; adjacent factors need an explicit '*'", pos
                )
            else:
                return value

    def factor(self) -> WeylElement:
        kind, _, _ = self.peek()
        if kind == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self) -> WeylElement:
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            kind, text, pos = self.next()
            if kind != "INT":
                raise WeylSyntaxError("exponent must be a nonnegative integer", pos)
            base = base ** int(text)
        return base

    def atom(self) -> WeylElement:
        kind, text, pos = self.next()
        if kind == "INT":
            if self.peek()[0] == "/":
                self.next()
                dkind, dtext, dpos = self.next()
                if dkind != "INT":
                    raise WeylSyntaxError("'/' is only allowed between integers", dpos)
                if int(dtext) == 0:
                    raise WeylSyntaxError("zero denominator", dpos)
                return WeylElement.constant(Fraction(int(text), int(dtext)))
            return WeylElement.constant(int(text))
        if kind == "NAME":
            return WeylElement.t() if text == "t" else WeylElement.d()
        if kind == "(":
            value = self.expr()
            kind2, text2, pos2 = self.next()
            if kind2 != ")":
                raise WeylSyntaxError("expected ')'", pos2)
            return value
        if kind == "/":
            raise WeylSyntaxError("'/' is only allowed between integers", pos)
        if kind == "EOF":
            raise WeylSyntaxError("unexpected end of input", pos)
        raise WeylSyntaxError(f"unexpected {text!r}", pos)


def parse_weyl(s: str) -> WeylElement:
    """Parse an expression in ``t`` and ``d`` into normal form.

    Raises :class:`WeylSyntaxError` (with a position) on malformed
    input.  Division is restricted to integer literals, exponents are
    nonnegative integer literals, and juxtaposition is rejected.
    """
    if not isinstance(s, str):
        raise TypeError("parse_weyl expects a string")
    return _Parser(s).parse()
