"""Spans and counts around the calls into each ``ordramsey`` module.

:meth:`Tracer.install` replaces public functions at the name each module
actually calls them by: ``degrees`` binds ``rank_counts`` through
``from .typecalc import ...``, so the wrapper goes on
``ordramsey.degrees.rank_counts``, and the same function is wrapped again
wherever another module binds it.  A span is (name, start, end, parent,
request); spans stay in memory until :meth:`Tracer.dump`.  Nothing in the
package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter

# (span name, binding sites as (module, attribute)).  Generators get one
# span per resumption, so consumer work between items is not charged.
TARGETS = (
    ("ordinal.parse", [("ordinal", "parse"), ("cli", "parse")]),
    ("degrees.classify", [("degrees", "classify"), ("cli", "classify")]),
    ("degrees.pipeline_bound", [("degrees", "pipeline_bound"), ("cli", "pipeline_bound")]),
    ("degrees.bound_add", [("degrees", "bound_add")]),
    ("degrees.bound_pow", [("degrees", "bound_pow")]),
    ("degrees.product_bound", [("degrees", "product_bound"), ("verify", "product_bound")]),
    ("typecalc.enum_power", [("degrees", "enum_power"), ("cli", "enum_power"), ("verify", "enum_power")]),
    ("typecalc.out_degrees", [("degrees", "out_degrees")]),
    ("typecalc.rank_counts", [("degrees", "rank_counts"), ("verify", "rank_counts")]),
    ("typecalc.enum_mult", [("cli", "enum_mult"), ("verify", "enum_mult")]),
    ("typecalc.enum_additive", [("cli", "enum_additive"), ("verify", "enum_additive"), ("witness", "enum_additive")]),
    ("typecalc.enum_strict", [("cli", "enum_strict"), ("verify", "enum_strict"), ("witness", "enum_strict")]),
    ("typecalc.enum_product_types", [("cli", "enum_product_types"), ("verify", "enum_product_types"), ("witness", "enum_product_types")]),
    ("typecalc.mult_type", [("verify", "mult_type"), ("witness", "mult_type")]),
    ("typecalc.reconstruct", [("verify", "reconstruct_mult"), ("verify", "reconstruct_power")]),
    ("chains.enumerate_embeddings", [("verify", "enumerate_embeddings"), ("witness", "enumerate_embeddings")]),
    ("chains.order_points", [("chains", "order_points")]),
    ("witness.realized_colors", [("cli", "realized_colors")]),
    ("verify.run_all", [("cli", "run_all")]),
    ("verify.type_counts", [("verify", "check_type_counts")]),
    ("verify.product_bound", [("verify", "check_product_bound")]),
    ("verify.roundtrips", [("verify", "check_roundtrips")]),
    ("verify.finite_convention", [("verify", "check_finite_convention")]),
)
GENERATORS = {"chains.enumerate_embeddings"}

# Counters that add up the length of a call's result.
RESULT_COUNTS = {
    "typecalc.enum_power": "typecalc.trees",
    "typecalc.enum_mult": "typecalc.types",
    "typecalc.enum_additive": "typecalc.types",
    "typecalc.enum_strict": "typecalc.types",
    "typecalc.enum_product_types": "typecalc.types",
}

# lru caches whose hit ratio is reported: (name, module, attribute)
CACHES = (
    ("typecalc.rank_counts", "typecalc", "rank_counts"),
    ("typecalc.enum_power", "typecalc", "enum_power"),
    ("chains.order_points", "chains", "order_points"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        # one entry per span, in start order, held in flat arrays
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_of = array("i")
        self._open = []
        self.request = -1
        self.counts = Counter()
        self._caches = {}

    def begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request_of.append(self.request)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int):
        self.end[index] = time.perf_counter()
        self._open.pop()

    def span(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(index)

    def _wrap(self, name: str, fn):
        counted = RESULT_COUNTS.get(name)

        if name in GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    index = self.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.finish(index)
                    self.counts["chains.embeddings"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if counted:
                self.counts[counted] += len(result)
            if name == "verify.run_all":
                self.counts["verify.checks"] += len(result.entries)
                self.counts["verify.mismatched"] += len(result.mismatches)
            return result

        return wrapper

    def install(self):
        """Import the package modules and wrap every target binding."""
        modules = {
            short: importlib.import_module(f"ordramsey.{short}")
            for short in ("ordinal", "chains", "typecalc", "degrees", "witness", "verify", "cli")
        }
        for name, module, attr in CACHES:
            self._caches[name] = getattr(modules[module], attr)
        for name, sites in TARGETS:
            for module, attr in sites:
                fn = getattr(modules[module], attr)
                setattr(modules[module], attr, self._wrap(name, fn))
        return self

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, plus
        counts and cache statistics.

        Self time is a span's duration minus the time its child spans
        cover; inclusive time skips spans nested in a same-named span.
        """
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for i in range(n):
            nid = self.name_of[i]
            entry = spans[self.names[nid]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["self"] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                entry["total"] += dur
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {"spans": spans, "counts": dict(self.counts), "caches": caches}

    def dump(self, path) -> dict:
        """Write every span and the summary to ``path``; return the summary."""
        summary = self.summary()
        rows = [
            [self.request_of[i], i, self.parent[i], self.names[self.name_of[i]], self.start[i], self.end[i]]
            for i in range(len(self.name_of))
        ]
        with open(path, "w") as fh:
            json.dump({"summary": summary, "columns": ["request", "span", "parent", "name", "start", "end"], "spans": rows}, fh)
        return summary


def merge(summaries) -> dict:
    """Add up summaries from several processes."""
    out = {"spans": {}, "counts": Counter(), "caches": {}}
    for s in summaries:
        for name, entry in s["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += entry[key]
        out["counts"].update(s["counts"])
        for name, (hits, misses) in s["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return out
