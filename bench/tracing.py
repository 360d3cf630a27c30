"""Outside-in span tracing of the weyldeform layers.

Nothing under src/ is edited: ``Tracer.install`` replaces the public
functions and methods listed in TARGETS with timing wrappers, at every
module-level binding that refers to them (so ``modules.kernel_basis``,
``reps.rref_rows``, ``versal.cyclic_form``, ``cli.hom_search`` and the
package namespace are all covered), and ``uninstall`` puts the
originals back.

Each call becomes a span with a name, start, end, parent span and query
id.  A span's self time is its duration minus the part covered by its
child spans.  The two hottest leaves (``WeylElement.__mul__`` and
``QMatrix.__mul__``) are only aggregated, not stored one by one, which
keeps memory flat on the conjugacy grid; their time is still taken out
of the parent's self time.  Time spent in the wrappers themselves is
measured on every call, kept out of every span, and reported as
``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter

ELIM = "linalg.rref_rows"

# (module, attribute, class or None, span name)
TARGETS = (
    ("weyl", "__mul__", "WeylElement", "weyl.mul"),
    ("weyl", "parse_weyl", None, "weyl.parse"),
    ("linalg", "rref_rows", None, ELIM),
    ("linalg", "kernel_basis", None, "linalg.kernel_basis"),
    ("linalg", "solve", None, "linalg.solve"),
    ("linalg", "inverse", None, "linalg.inverse"),
    ("linalg", "__mul__", "QMatrix", "linalg.qmatrix_mul"),
    ("modules", "__init__", "TruncatedSpan", "modules.span_build"),
    ("modules", "reduce", "TruncatedSpan", "modules.span_reduce"),
    ("modules", "solve", "WeylLinearSystem", "modules.system"),
    ("modules", "kernel", "WeylLinearSystem", "modules.system"),
    ("modules", "module_image_span", None, "modules.image_span"),
    ("modules", "divide_left", None, "modules.divide"),
    ("modules", "hom_search", None, "modules.hom"),
    ("modules", "iso_witness", None, "modules.iso"),
    ("modules", "cyclic_form", None, "modules.cform"),
    ("modules", "verify", "IsoWitness", "modules.verify"),
    ("ext", "ext1_dim", None, "ext.ext1"),
    ("reps", "intertwiners", None, "reps.intertwiners"),
    ("reps", "are_conjugate", None, "reps.conj"),
    ("reps", "classify", None, "reps.classify"),
    ("reps", "is_simple", None, "reps.simple"),
    ("reps", "is_indecomposable", None, "reps.indec"),
    ("reps", "find_proper_submodule", None, "reps.submodule"),
    ("reps", "match_label", None, "reps.match"),
    ("versal", "identify_specialization", None, "versal.identify"),
    ("versal", "commutative_specialize", None, "versal.identify"),
    ("versal", "cross_certify", None, "versal.cross"),
    ("cli", "main", None, "cli.main"),
)

LEAVES = frozenset({"weyl.mul", "linalg.qmatrix_mul"})
# a call of one of these counts as a cache hit when no elimination ran below it
HIT_TRACKED = frozenset({"modules.hom", "modules.cform", "modules.image_span", "ext.ext1"})


class _Frame:
    __slots__ = ("sid", "name", "child", "elim")

    def __init__(self, sid, name):
        self.sid = sid
        self.name = name
        self.child = 0.0
        self.elim = False


class Tracer:
    """Span recorder; one per process, installed around the layers."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, query id)
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()  # work counters measured at the boundaries
        self.maxima = Counter()
        self.overhead = 0.0
        self.query = None
        self.paused = False
        self._stack = []
        self._active = Counter()
        self._next_id = 0
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self, package) -> None:
        mods = {
            name: sys.modules[f"{package.__name__}.{name}"]
            for name in ("weyl", "linalg", "modules", "ext", "reps", "versal", "cli")
        }
        everywhere = [package, *mods.values()]
        wrapped = {}
        for mod_name, attr, cls_name, span in TARGETS:
            if cls_name is not None:
                cls = getattr(mods[mod_name], cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(span, original))
                continue
            original = getattr(mods[mod_name], attr)
            wrapper = wrapped.setdefault(id(original), self._wrap(span, original))
            for mod in everywhere:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def pause(self):
        """Run benchmark-side work (input building, re-checks) untraced."""
        before = self.paused
        self.paused = True
        try:
            yield
        finally:
            self.paused = before

    def reset_stack(self) -> None:
        """Drop frames left open by a query aborted at its deadline."""
        for frame in self._stack:
            self._active[frame.name] -= 1
        self._stack.clear()

    # -- the wrapper --------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        leaf = name in LEAVES
        before_call = _BEFORE.get(name)
        after_call = _AFTER.get(name)
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            t0 = _clock()
            if before_call is not None:
                args = before_call(tracer, args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = _Frame(sid, name)
            stack.append(frame)
            active[name] += 1
            result = None
            t1 = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t2 = _clock()
                stack.pop()
                active[name] -= 1
                dur = t2 - t1
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame.child
                parent = stack[-1] if stack else None
                if not leaf:
                    tracer.spans.append(
                        (sid, name, t1, t2, parent.sid if parent else None, tracer.query)
                    )
                elim = frame.elim or name == ELIM
                if name in HIT_TRACKED and not elim:
                    tracer.counts[name + ".hits"] += 1
                if after_call is not None:
                    after_call(tracer, args, result)
                t3 = _clock()
                tracer.overhead += (t1 - t0) + (t3 - t2)
                if parent is not None:
                    parent.child += t3 - t0
                    parent.elim = parent.elim or elim

        return traced

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, query in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "query": query,
                }) + "\n")

    def layer_metrics(self, query_s: float) -> dict:
        """The per-layer metrics, by name, as (value, unit) pairs.

        query_s is the traced time spent inside the queries.
        """
        c, tot, own, n = self.calls, self.total, self.self_time, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        elim_cells = n["elim_cells"]
        wrappers = ("linalg.kernel_basis", "linalg.solve", "linalg.inverse")
        out = {
            "linalg.elim_calls": (c[ELIM], "count"),
            "linalg.elim_self_s": (own[ELIM], "s"),
            "linalg.elim_cells": (elim_cells, "count"),
            "linalg.elim_nonzeros": (n["elim_nonzeros"], "count"),
            "linalg.elim_density": (ratio(n["elim_nonzeros"], elim_cells), "ratio"),
            "linalg.elim_max_cells": (self.maxima["elim_cells"], "count"),
            "linalg.wrapper_self_s": (sum(own[w] for w in wrappers), "s"),
            "linalg.qmatrix_mul_calls": (c["linalg.qmatrix_mul"], "count"),
            "linalg.qmatrix_mul_self_s": (own["linalg.qmatrix_mul"], "s"),
            "linalg.inverse_calls": (c["linalg.inverse"], "count"),
            "weyl.mul_calls": (c["weyl.mul"], "count"),
            "weyl.mul_self_s": (own["weyl.mul"], "s"),
            "weyl.parse_calls": (c["weyl.parse"], "count"),
            "weyl.parse_self_s": (own["weyl.parse"], "s"),
            "modules.span_builds": (c["modules.span_build"], "count"),
            "modules.span_self_s": (own["modules.span_build"], "s"),
            "modules.span_reduces": (c["modules.span_reduce"], "count"),
            "modules.span_reduce_s": (tot["modules.span_reduce"], "s"),
            "modules.system_solves": (c["modules.system"], "count"),
            "modules.system_self_s": (own["modules.system"], "s"),
            "modules.hom_calls": (c["modules.hom"], "count"),
            "modules.hom_hit_ratio": (ratio(n["modules.hom.hits"], c["modules.hom"]), "ratio"),
            "modules.cform_calls": (c["modules.cform"], "count"),
            "modules.cform_s": (tot["modules.cform"], "s"),
            "modules.cform_hit_ratio": (ratio(n["modules.cform.hits"], c["modules.cform"]), "ratio"),
            "modules.image_span_hit_ratio": (
                ratio(n["modules.image_span.hits"], c["modules.image_span"]), "ratio"),
            "modules.iso_calls": (c["modules.iso"], "count"),
            "modules.iso_s": (tot["modules.iso"], "s"),
            "modules.iso_found_ratio": (ratio(n["iso_found"], c["modules.iso"]), "ratio"),
            "modules.divide_calls": (c["modules.divide"], "count"),
            "modules.divide_s": (tot["modules.divide"], "s"),
            "modules.verify_calls": (c["modules.verify"], "count"),
            "modules.verify_s": (tot["modules.verify"], "s"),
            "ext.ext1_calls": (c["ext.ext1"], "count"),
            "ext.ext1_s": (tot["ext.ext1"], "s"),
            "ext.ext1_hit_ratio": (ratio(n["ext.ext1.hits"], c["ext.ext1"]), "ratio"),
            "reps.conj_calls": (c["reps.conj"], "count"),
            "reps.conj_s": (tot["reps.conj"], "s"),
            "reps.conj_candidates": (n["conj_candidates"], "count"),
            "reps.conj_yield": (ratio(n["conj_found"], n["conj_candidates"]), "ratio"),
            "reps.intertwiner_s": (tot["reps.intertwiners"], "s"),
            "reps.intertwiner_dim_max": (self.maxima["intertwiner_dim"], "count"),
            "reps.classify_s": (tot["reps.classify"], "s"),
            "reps.simple_s": (tot["reps.simple"], "s"),
            "reps.indec_s": (tot["reps.indec"], "s"),
            "versal.identify_calls": (c["versal.identify"], "count"),
            "versal.identify_self_s": (own["versal.identify"], "s"),
            "versal.identified_ratio": (
                ratio(n["identified"], c["versal.identify"]), "ratio"),
            "cli.main_calls": (c["cli.main"], "count"),
            "cli.self_s": (own["cli.main"], "s"),
            "cli.output_bytes": (n["cli_output_bytes"], "bytes"),
            "trace.spans": (len(self.spans), "count"),
            "trace.overhead_s": (self.overhead, "s"),
            "trace.wall_s": (query_s, "s"),
            "trace.overhead_ratio": (ratio(self.overhead, query_s - self.overhead), "ratio"),
        }
        return out


# -- per-target hooks ---------------------------------------------------


def _elim_shape(tracer, args):
    rows = args[0]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
        args = (rows,) + tuple(args[1:])
    cells = len(rows) * (len(rows[0]) if rows else 0)
    tracer.counts["elim_cells"] += cells
    tracer.counts["elim_nonzeros"] += sum(1 for row in rows for x in row if x)
    if cells > tracer.maxima["elim_cells"]:
        tracer.maxima["elim_cells"] = cells
    return args


def _inverse_candidate(tracer, args):
    if tracer._active["reps.conj"]:
        tracer.counts["conj_candidates"] += 1
    return args


def _iso_found(tracer, args, result):
    if result is not None:
        tracer.counts["iso_found"] += 1


def _conj_found(tracer, args, result):
    if result is not None:
        tracer.counts["conj_found"] += 1


def _intertwiner_dim(tracer, args, result):
    if result is not None and len(result) > tracer.maxima["intertwiner_dim"]:
        tracer.maxima["intertwiner_dim"] = len(result)


def _identified(tracer, args, result):
    if result is not None and result.identified:
        tracer.counts["identified"] += 1


_BEFORE = {ELIM: _elim_shape, "linalg.inverse": _inverse_candidate}
_AFTER = {
    "modules.iso": _iso_found,
    "reps.conj": _conj_found,
    "reps.intertwiners": _intertwiner_dim,
    "versal.identify": _identified,
}
