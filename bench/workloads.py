"""Seeded query lists for the four workloads.

A query is plain data (strings, integers, Fractions and tuples of
them); ``queries.py`` turns it into library calls.  Each run draws the
same number of queries of each kind, from the same cost class, so the
total work of a run barely depends on the seed: the seed only chooses
which inputs fill the slots and in which order they arrive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

WORKLOADS = ("ident-sweep", "ext-highdeg", "quiver-orbits", "cli-session")


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple

    def text(self) -> str:
        return f"{self.kind}{self.args!r}"


def generate(workload: str, seed: int) -> list[Query]:
    """The query list of one run; equal seeds give equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


# -- input pools ------------------------------------------------------------

# small-height nonzero rationals: integers, half-integers, thirds
_SMALL = tuple(
    Q(x) for x in ("1", "2", "3", "-2", "-3", "1/2", "-1/2", "3/2", "-3/2",
                   "5/2", "1/3", "-1/3", "2/3", "-2/3")
)
_WALL = Q(-1)
_IDENT_VALUES = tuple(
    Q(x) for x in ("1", "2", "-2", "3", "1/2", "-1/2", "3/2", "-3/2", "5/2",
                   "1/3", "-1/3", "2/3")
)
# T_2_6 at a presents the same module as the commutative point (1, a), so
# alpha = 1 would let a query reuse another's cached work
_ALPHAS = (Q(-1), Q(2), Q(1, 2), Q(3))


def _rel(template: str, c: Q) -> str:
    """Substitute a constant into a relation template as parser input."""
    return template.replace("{c}", f"({c})")


def _unit_shift(b: Q) -> tuple[str, str]:
    return _rel("t*d - {c}", b), _rel("t*d - {c}", b - 1)


# -- ident-sweep ------------------------------------------------------------


def _ident_sweep(rng: random.Random) -> list[Query]:
    # every run uses all twelve values, dealt to the roles by the seed, so
    # its work barely depends on the seed; the identifications are most
    # of the run, so the cheap unit-shift queries stay few and both
    # latency percentiles fall among the identifications
    values = rng.sample(_IDENT_VALUES, len(_IDENT_VALUES))
    queries = [Query("identify", ("T_2_6", a, 8)) for a in [_WALL] + values[:8]]
    queries.append(Query("identify", ("T_2_6", values[8], 10)))
    for ab in values[9:11]:
        alpha = rng.choice(_ALPHAS)
        queries.append(Query("commutative", (alpha, ab / alpha, 8)))
    alpha = rng.choice(_ALPHAS)
    queries.append(Query("cross", ("T_2_6", values[11], alpha, values[11] / alpha, 8)))
    shifts = rng.sample(_SMALL, 4)
    for b in shifts[:2]:
        queries.append(Query("iso", (*_unit_shift(b), 8)))
    for b in shifts[2:]:
        queries.append(Query("hom", (*_unit_shift(b), 10)))
    rng.shuffle(queries)
    return queries


# -- ext-highdeg ------------------------------------------------------------

# (source template, target template, cap, count): sparse, paper-like
# relations of degree <= 3, each copy with its own seeded small constant.
# Several slots cost about the same (0.4-0.6 s on the reference machine),
# so that both latency percentiles fall inside that group.
_EXT1_SLOTS = (
    ("t*d - {c}", "d", 12, 2),
    ("t^2 - {c}", "d^2", 12, 1),
    ("t^2*d - {c}", "d", 12, 2),
    ("t*d^2 - {c}", "d", 12, 2),
    ("t*d - {c}", "d^2", 14, 2),
    ("d^2 - {c}", "t", 12, 1),
    ("d^2 - {c}", "t*d", 14, 1),
    ("t*d - {c}", "d", 16, 1),
)
_HOM_SLOTS = (
    ("t*d - {c}", "t*d - {c} - 1", 12, 1),
    ("t^2 - {c}", "d^2", 12, 1),
    ("t", "t*d - {c}", 14, 1),
    ("t*d - {c}", "t*d - {c} - 1", 14, 1),
    ("t*d - {c}", "t*d - {c} - 1", 16, 1),
    ("d^2 - {c}", "d", 12, 1),
)
# one dense relation per run: t*d^2 plus four lower monomials, with
# coefficients of height up to 9
_DENSE_TEMPLATE = "t*d^2 + {a}*d^2 + {b}*t*d + {c}*d + {e}"
_DENSE_COEFFS = tuple(
    Q(x) for x in ("3/4", "-2/5", "5/7", "-7/3", "4/9", "-5/6", "7/4", "-3/8")
)


def _ext_highdeg(rng: random.Random) -> list[Query]:
    queries = [Query("ext_table", (("d", "t"), 12))]
    for kind, slots in (("ext1", _EXT1_SLOTS), ("hom", _HOM_SLOTS)):
        for src, tgt, cap, count in slots:
            # distinct constants, so no copy hits another's cache entry
            for c in rng.sample(_SMALL, count):
                queries.append(Query(kind, (_rel(src, c), _rel(tgt, c), cap)))
    a, b, c, e = rng.sample(_DENSE_COEFFS, 4)
    dense = _DENSE_TEMPLATE.format(a=f"({a})", b=f"({b})", c=f"({c})", e=f"({e})")
    queries.append(Query("ext1", (dense, "d", 12)))
    rng.shuffle(queries)
    return queries


# -- quiver-orbits ----------------------------------------------------------

# Every family of dimension 2 to 4 is drawn once per run as a positive,
# and every pair below once as a negative, so the mix is the same for
# every seed; the seed draws the conjugating matrices, the parameters and
# the order.
_PARAM_VALUES = (Q(1), Q(-1), Q(2), Q(1, 2), Q(-3), Q(2, 3))

# pairs of distinct non-parametric families whose intertwiner space has
# dimension d, so that a negative walks the (n+1)^d grid: two pairs of
# dimension 3 with d = 6, three with d = 4; of dimension 4, two with
# d = 5, nine with d = 4 and four with d = 3
_NEGATIVE_PAIRS = (
    ("T_3_1", "T_3_3"), ("T_3_2", "T_3_8"),
    ("T_3_3", "T_3_4"), ("T_3_8", "T_3_10"), ("T_3_9", "T_3_10"),
    ("T_4_3", "T_4_9"), ("T_4_4", "T_4_5"),
    ("T_4_1", "T_4_8"), ("T_4_1", "T_4_16"), ("T_4_2", "T_4_3"),
    ("T_4_3", "T_4_17"), ("T_4_5", "T_4_16"), ("T_4_6", "T_4_13"),
    ("T_4_9", "T_4_14"), ("T_4_13", "T_4_15"), ("T_4_15", "T_4_23"),
    ("T_4_3", "T_4_10"), ("T_4_4", "T_4_17"), ("T_4_5", "T_4_8"),
    ("T_4_6", "T_4_16"),
)

# Pairs of dimension 4 whose grid has 5^7 points or more.  They exceed
# the per-query deadline at the seed, so they are kept out of the timed
# mix; ROADMAP item 3 (conjugacy without the grid) should clear them.
KNOWN_DEADLINE_PAIRS = (
    ("T_4_3", "T_4_5"), ("T_4_3", "T_4_14"), ("T_4_8", "T_4_9"),
    ("T_4_8", "T_4_16"), ("T_4_3", "T_4_13"), ("T_4_3", "T_4_4"),
)


def _unimodular(rng: random.Random, n: int) -> tuple[tuple, tuple]:
    """A seeded integer matrix g of determinant +-1 and its inverse.

    A permutation after n - 1 elementary row operations by +-1 keeps the
    entries small, so the conjugate costs about what the representative
    costs and the seed barely moves the work.
    """
    g = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    for _ in range(n - 1):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # row_i += c * row_j on g; column_j -= c * column_i on the inverse
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in ginv:
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    g = [g[p] for p in perm]
    ginv = [[row[p] for p in perm] for row in ginv]
    return tuple(map(tuple, g)), tuple(map(tuple, ginv))


def _quiver_orbits(rng: random.Random) -> list[Query]:
    queries = [Query("classify", (n,)) for n in (1, 2, 3, 4)]
    for label, parameter in FAMILY_PARAMETERS.items():
        n = int(label.split("_")[1])
        param = rng.choice(_PARAM_VALUES) if parameter else None
        target = (label, param, *_unimodular(rng, n))
        queries.append(Query("conj_pos", target))
        if n <= 3:
            queries.append(Query("match", target))
            queries.append(Query("submodule", target))
        queries.append(Query("simple", target))
        queries.append(Query("indecomposable", target))
    for first, second in _NEGATIVE_PAIRS:
        n = int(first.split("_")[1])
        queries.append(Query("conj_neg", (first, second, *_unimodular(rng, n))))
    rng.shuffle(queries)
    return queries


# Family label -> name of its parameter (None when discrete), for
# dimensions 2 to 4.  Pinned here, not read from the library, so the
# workload does not change when the library's tables do.
FAMILY_PARAMETERS = {
    **{f"T_2_{k}": None for k in range(1, 6)}, "T_2_6": "a",
    **{f"T_3_{k}": None for k in range(1, 13)}, "T_3_7": "b", "T_3_12": "c",
    **{f"T_4_{k}": ("e" if k in (7, 12, 21, 22, 25, 26) else None)
       for k in range(1, 27)},
}


# -- cli-session ------------------------------------------------------------

# The pool, most frequent first; entry k appears round(_ZIPF_SCALE / k)
# times per run, at least once, and the seed only shuffles the stream.
# Entries the library caches sit at the top.  Only eight calls per run
# (the cold specializations, classify 4, the first Ext table) are slower
# than the twelve repeats of `commutative 2 3`, which stays uncached in
# part, so query_tail_ms (the eleventh slowest call) falls inside that
# plateau instead of on the edge between cold and warm calls.
_CLI_POOL = (
    ("specialize", "T_2_6", "--param", "a=1/2"),
    ("ext",),
    ("hom", "t*d - 1", "t*d - 2"),
    ("iso", "t*d - 1", "t*d - 2"),
    ("commutative", "1", "1"),
    ("commutative", "2", "3", "--format", "text"),
    ("hull",),
    ("specialize", "T_2_6", "--param", "a=1"),
    ("simple", "T_2_6", "--param", "a=1"),
    ("classify", "3"),
    ("ext", "--format", "text"),
    ("iso", "d", "t"),
    ("hom", "d^2", "d"),
    ("specialize", "T_2_6", "--param", "a=-1", "--format", "text"),
    ("classify", "2"),
    ("hull", "--format", "text"),
    ("simple", "T_3_7", "--param", "b=2"),
    ("hom", "d", "t"),
    ("iso", "d*t", "t*d + 1"),
    ("specialize", "T_2_3"),
    ("commutative", "0", "0"),
    ("simple", "T_2_4"),
    ("simple", "T_4_20", "--format", "text"),
    ("iso", "t*d + 1", '{"type": "presented", "delta": [["d", "-1"], ["-1", "t"]]}'),
    ("specialize", "T_3_12", "--param", "c=1"),
    ("hom", "t*d - 1/2", "d", "--format", "text"),
    ("iso", "t*d - 1", "t*d - 2", "--max-degree", "10"),
    ("hom", "t", "t*d", "--format", "text"),
    ("classify", "4", "--format", "text"),
)
_ZIPF_SCALE = 70


def _cli_session(rng: random.Random) -> list[Query]:
    stream = []
    for rank, argv in enumerate(_CLI_POOL, start=1):
        stream += [Query("cli", (argv,))] * max(1, round(_ZIPF_SCALE / rank))
    rng.shuffle(stream)
    return stream


_GENERATORS = {
    "ident-sweep": _ident_sweep,
    "ext-highdeg": _ext_highdeg,
    "quiver-orbits": _quiver_orbits,
    "cli-session": _cli_session,
}
