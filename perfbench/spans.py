"""Span tracing for the perfbench traced run, and the per-layer metrics.

The tracer wraps public functions of mzvkit from outside the package.
Sibling modules import those functions by name (``from .linalg import
nullspace``, ``from mpmath import pslq``), so a wrapper replaces every
module's binding of the same function object; otherwise calls would escape
it.  Each call records a span ``[name, start_ns, end_ns, parent, note]``;
spans stay in memory and are written out when the pass ends.

A span's self time is its duration minus the part of it that its child
spans cover.  The pass itself is the root span, so its self time is the
time no traced layer accounts for.
"""

import functools
import statistics
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, NOTE = range(5)
ROOT = "pass"


class Tracer:
    """Records nested spans of one thread and patches functions to emit them."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []  # (namespace, key, original), in patch order

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        stack = self._stack
        self.spans.append([name, self.clock(), 0, stack[-1] if stack else -1, None])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def _close(self, index):
        self._stack.pop()
        self.spans[index][END] = self.clock()

    def wrap(self, name, fn, note=None):
        """A function that runs fn inside a span; note(args, kwargs, result)
        may attach a small JSON value to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][NOTE] = note(args, kwargs, result)
            return result

        return traced

    def patch(self, targets, modules=None):
        """Replace every binding of each target function by a traced wrapper.

        targets holds (span name, owner, attribute, note); owner is a module
        or a class.  Every module namespace in `modules` (default: all of
        sys.modules) that binds the same object is patched as well.
        """
        wrappers = {}
        for name, owner, attr, note in targets:
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, note)
            wrappers[id(original)] = (original, wrapped)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, original))
        if modules is None:
            modules = list(sys.modules.values())
        for module in modules:
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._patches.append((namespace, key, value))

    def restore(self):
        """Put back every binding that patch replaced, newest first."""
        while self._patches:
            holder, key, original = self._patches.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)


def self_times(spans):
    """Self time of every span: duration minus the union of its children.

    Children appear after their parent and in start order, as the tracer
    records them; each child interval is clipped to its parent's.
    """
    covered = [0] * len(spans)
    reach = [None] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent < 0:
            continue
        p_start, p_end = spans[parent][START], spans[parent][END]
        lo = max(span[START], p_start, reach[parent] if reach[parent] is not None else p_start)
        hi = min(span[END], p_end)
        if hi > lo:
            covered[parent] += hi - lo
        if reach[parent] is None or hi > reach[parent]:
            reach[parent] = hi
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def in_pass(spans):
    """Flags for the spans that lie under the root pass span."""
    flags = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        flags[i] = span[NAME] == ROOT or (parent >= 0 and flags[parent])
    return flags


# ---------------------------------------------------------------------------
# what is traced in mzvkit

def _note_eval(args, kwargs, result):
    k = args[0] if args else kwargs["k"]
    digits = args[1] if len(args) > 1 else kwargs.get("digits", 60)
    return [sum(k), digits]


def _note_found(args, kwargs, result):
    return result is not None


def _note_entries(args, kwargs, result):
    return len(result.entries)


def _note_verdict(args, kwargs, result):
    return result.verdict


def _note_nullspace(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return [len(rows) * ncols, ncols - len(result)]


def targets():
    """(span name, owner, attribute, note) for every traced function.

    finite.zeta_F wraps the cached private _zeta_F: zeta_natural_F reaches
    zeta_F's work only through it, never through the public zeta_F.
    """
    from mzvkit import dsh, finite, indices, linalg, numeric, regularization, relations

    return [
        ("numeric.eval", numeric, "eval_admissible", _note_eval),
        ("numeric.eval_combo", numeric, "eval_combo", None),
        ("numeric.cache.get", numeric.ValueCache, "get", _note_found),
        ("numeric.cache.put", numeric.ValueCache, "put", None),
        ("numeric.cache.load", numeric, "configure_cache", None),
        ("numeric.direct_sum", numeric, "direct_sum_natural", None),
        ("relations.check", relations, "check_main_congruence", _note_verdict),
        ("relations.spanning_set", relations, "build_spanning_set", _note_entries),
        ("relations.verify", relations, "verify_congruence", None),
        ("relations.pslq", relations, "pslq", _note_found),
        ("regularization.stuffle", regularization, "stuffle_regularize", None),
        ("regularization.shuffle", regularization, "shuffle_regularize", None),
        ("regularization.natural", regularization, "natural_regularize", None),
        ("finite.zeta_natural_F", finite, "zeta_natural_F", None),
        ("finite.zeta_F", finite, "_zeta_F", None),
        ("finite.modp", finite, "zeta_natural_A_component", None),
        ("finite.modp", finite, "zeta_A_component", None),
        ("indices.stuffle", indices, "stuffle", None),
        ("indices.shuffle_words", indices, "shuffle_words", None),
        ("dsh.dimension", dsh, "dsh_dimension", None),
        ("dsh.space", dsh, "double_shuffle_space", None),
        ("linalg.nullspace", linalg, "nullspace", _note_nullspace),
    ]


def regularization_cache_info():
    """lru_cache counters of the regularization schemes; read them after
    Tracer.restore, when the module bindings are the cached functions again."""
    from mzvkit import regularization

    out = {}
    for scheme in ("stuffle", "shuffle", "natural"):
        info = getattr(regularization, scheme + "_regularize").cache_info()
        out[scheme] = [info.hits, info.misses]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("numeric", "relations", "regularization", "finite", "indices", "dsh", "linalg")

EVAL_CELLS = tuple((w, 60) for w in range(2, 9)) + tuple(
    (w, d) for d in (120, 400) for w in (6, 7, 8))

# layer -> its metrics, the end-to-end metrics they should move and where
LAYER_MAP = {
    "numeric": {
        "metrics": ["numeric.eval.calls", "numeric.eval.computed", "numeric.eval.self_s"]
        + ["numeric.eval.w%d.d%d.ms" % cell for cell in EVAL_CELLS]
        + ["numeric.eval_combo.self_s", "numeric.cache.hit_ratio",
           "numeric.cache.put.self_s", "numeric.cache.load_s",
           "numeric.direct_sum.self_s", "numeric.self_s"],
        "moves": "pass_s/cpu_s on sweep_cold (d60 cells) and highprec (high-digit "
                 "cells, hit_ratio); setup_s/pass_s on sweep_warm (load, hits); "
                 "flat on exact except direct_sum",
    },
    "relations": {
        "metrics": ["relations.spanning_set.calls", "relations.spanning_set.self_s",
                    "relations.spanning_set.entries", "relations.pslq.calls",
                    "relations.pslq.self_s", "relations.pslq.found_ratio",
                    "relations.verify.self_s", "relations.verdict.confirmed",
                    "relations.verdict.inconclusive", "relations.self_s"],
        "moves": "pass_s on sweep_warm, where it dominates; a small share of "
                 "sweep_cold; absent from highprec and exact",
    },
    "regularization": {
        "metrics": ["regularization.stuffle.hits", "regularization.stuffle.misses",
                    "regularization.shuffle.hits", "regularization.shuffle.misses",
                    "regularization.natural.hits", "regularization.natural.misses",
                    "regularization.self_s"],
        "moves": "pass_s on exact; a small share of sweep_*",
    },
    "finite": {
        "metrics": ["finite.zeta_natural_F.self_s", "finite.zeta_F.self_s",
                    "finite.modp.calls", "finite.modp.self_s", "finite.self_s"],
        "moves": "pass_s on exact; a small share of sweep_*",
    },
    "indices": {
        "metrics": ["indices.stuffle.calls", "indices.shuffle_words.calls",
                    "indices.self_s"],
        "moves": "pass_s on exact",
    },
    "dsh": {
        "metrics": ["dsh.calls", "dsh.self_s"],
        "moves": "pass_s and peak_rss_mb on exact (drives polynomials, matrices, "
                 "groupring)",
    },
    "linalg": {
        "metrics": ["linalg.nullspace.calls", "linalg.nullspace.self_s",
                    "linalg.nullspace.cells", "linalg.nullspace.rank"],
        "moves": "pass_s and peak_rss_mb on exact; absent elsewhere",
    },
    "trace": {
        "metrics": ["trace.pass_s", "trace.unattributed_s", "trace.overhead_ratio",
                    "trace.spans"],
        "moves": "none; checks the trace itself",
    },
}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "1"
    return "count"


PER_LAYER = [m for layer in LAYER_MAP.values() for m in layer["metrics"]]


def pass_metrics(spans, cache_info):
    """Per-layer metrics of one traced pass, except trace.overhead_ratio."""
    selfs = self_times(spans)
    inside = in_pass(spans)
    count, self_ns = {}, {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    computed, cells, missed = 0, {}, set()
    gets = hits = entries = pslq_found = cells_sum = rank_sum = 0
    verdicts = {"confirmed": 0, "inconclusive": 0}
    load_ns = unattributed = pass_ns = 0
    n_in = 0
    for i, span in enumerate(spans):
        name, note = span[NAME], span[NOTE]
        duration = span[END] - span[START]
        if name == "numeric.cache.load" and not inside[i]:
            load_ns += duration
        if not inside[i]:
            continue
        n_in += 1
        if name == ROOT:
            unattributed += selfs[i]
            pass_ns += duration
            continue
        count[name] = count.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        layer_ns[name.split(".")[0]] += selfs[i]
        if name == "numeric.cache.get":
            gets += 1
            hits += bool(note)
            if not note:
                missed.add(span[PARENT])
        elif name == "relations.spanning_set":
            entries += note
        elif name == "relations.pslq":
            pslq_found += bool(note)
        elif name == "relations.check":
            verdicts[note] = verdicts.get(note, 0) + 1
        elif name == "linalg.nullspace":
            cells_sum += note[0]
            rank_sum += note[1]
    for i in missed:
        span = spans[i]
        if span[NAME] == "numeric.eval":
            computed += 1
            cells.setdefault(tuple(span[NOTE]), []).append(span[END] - span[START])

    def s(name):
        return self_ns.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "numeric.eval.calls": count.get("numeric.eval", 0),
        "numeric.eval.computed": computed,
        "numeric.eval.self_s": s("numeric.eval"),
    }
    for cell in EVAL_CELLS:
        times = cells.get(cell)
        m["numeric.eval.w%d.d%d.ms" % cell] = statistics.median(times) / 1e6 if times else 0.0
    m.update({
        "numeric.eval_combo.self_s": s("numeric.eval_combo"),
        "numeric.cache.hit_ratio": ratio(hits, gets),
        "numeric.cache.put.self_s": s("numeric.cache.put"),
        "numeric.cache.load_s": load_ns / 1e9,
        "numeric.direct_sum.self_s": s("numeric.direct_sum"),
        "relations.spanning_set.calls": count.get("relations.spanning_set", 0),
        "relations.spanning_set.self_s": s("relations.spanning_set"),
        "relations.spanning_set.entries": entries,
        "relations.pslq.calls": count.get("relations.pslq", 0),
        "relations.pslq.self_s": s("relations.pslq"),
        "relations.pslq.found_ratio": ratio(pslq_found, count.get("relations.pslq", 0)),
        "relations.verify.self_s": s("relations.verify"),
        "relations.verdict.confirmed": verdicts["confirmed"],
        "relations.verdict.inconclusive": verdicts["inconclusive"],
        "finite.zeta_natural_F.self_s": s("finite.zeta_natural_F"),
        "finite.zeta_F.self_s": s("finite.zeta_F"),
        "finite.modp.calls": count.get("finite.modp", 0),
        "finite.modp.self_s": s("finite.modp"),
        "indices.stuffle.calls": count.get("indices.stuffle", 0),
        "indices.shuffle_words.calls": count.get("indices.shuffle_words", 0),
        "dsh.calls": count.get("dsh.space", 0),
        "linalg.nullspace.calls": count.get("linalg.nullspace", 0),
        "linalg.nullspace.self_s": s("linalg.nullspace"),
        "linalg.nullspace.cells": cells_sum,
        "linalg.nullspace.rank": rank_sum,
        "trace.pass_s": pass_ns / 1e9,
        "trace.unattributed_s": unattributed / 1e9,
        "trace.spans": n_in,
    })
    for layer in LAYERS:
        if layer != "linalg":  # nullspace is linalg's only traced function
            m[layer + ".self_s"] = layer_ns[layer] / 1e9
    for scheme, (h, miss) in cache_info.items():
        m["regularization.%s.hits" % scheme] = h
        m["regularization.%s.misses" % scheme] = miss
    # exact in integer nanoseconds: every in-pass span's self time is
    # counted once, so the layers and the root's own time tile the pass
    m["_balanced"] = sum(layer_ns.values()) + unattributed == pass_ns
    return m
