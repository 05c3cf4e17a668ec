"""Spans around the calls into each layer of ``operad_gsb``, from outside.

The tracer replaces a callable where its caller looks it up (a module
global or a class attribute) with a wrapper that records one span per
call: name, start, end and the span that was open when it began.  Spans
live in compact in-memory arrays until the run ends; self time is a
span's duration minus the time its child spans cover.

Leaf functions, which call no other wrapped function, run millions of
times on the sweep (``match_at`` alone 6.5M), so they are not stored one
span each: each call adds its count and duration to per-name totals and
its duration to the covered time of the enclosing span.  Self times come
out the same, at a fraction of the memory and overhead.

Only public entry points and the two private functions through which
``complete`` and the rank oracle reach a layer are wrapped.  Patching
``trees.replace_at`` or ``trees.graft`` itself would count every level of
their internal recursion as a call, so they are wrapped in the modules
that call them instead.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from typing import Callable


class Tracer:
    """In-memory span recorder plus outcome counters, patched in and out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # per stored span: time covered by leaf calls made directly in it
        self.span_leaf = array("d")
        self._stack = [-1]
        # leaf name -> [calls, seconds]
        self.leaves: dict[str, list] = {}
        self.counters: Counter[str] = Counter()
        # arguments -> size of each distinct tree list enumerated
        self.tree_sizes: dict[tuple, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``before(args)`` runs ahead of the call (for cache-hit tests),
        ``after(args, result)`` after it returns; both feed ``counters``.
        """
        nid = self._name_id(name)
        names, parents, leaf = self.span_name, self.span_parent, self.span_leaf
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            leaf.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_leaf(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """Like ``wrap`` for a function that calls no wrapped function."""
        total = self.leaves.setdefault(name, [0, 0.0])
        leaf, stack = self.span_leaf, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                total[0] += 1
                total[1] += dur
                if stack[-1] >= 0:
                    leaf[stack[-1]] += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, before=None, after=None,
              leaf: bool = False) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``restore``."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        wrap = self.wrap_leaf if leaf else self.wrap
        setattr(owner, attr, wrap(name, original, before, after))

    def count_calls(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (constructors)."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.span_name)
        covered = array("d", self.span_leaf)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[names[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
        return out

    def dump(self, path) -> None:
        """Write a JSON header line, then the span columns as raw arrays.

        The header gives the span names, the leaf totals and the column
        order and types; each column holds one entry per stored span.
        """
        columns = [("name", self.span_name), ("parent", self.span_parent),
                   ("start", self.span_start), ("end", self.span_end),
                   ("leaf_s", self.span_leaf)]
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "columns": [[col, arr.typecode] for col, arr in columns],
            "leaves": self.leaves,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken from."""
    from operad_gsb import completion, enumeration, ordering, polynomials, rewriting, trees

    counters = tracer.counters
    tree_sizes = tracer.tree_sizes

    def count_iterations(args, result):
        for rec in result[1].iterations:
            counters["completion.compositions"] += rec.compositions
            counters["completion.nonzero"] += rec.nonzero

    def count_scms(args, result):
        counters["completion.scms.count"] += len(result[0])

    def match_succeeded(args, result):
        if result is not None:
            counters["rewriting.match_at.successes"] += 1

    # Cache-hit tests read the caches' current private names; if a later
    # version renames them, every call counts as a miss.
    def redex_cached(args):
        cache = getattr(args[0], "_first_redex", None)
        if cache is not None and args[1] in cache:
            counters["rewriting.Reducer.first_redex.hits"] += 1

    def key_cached(args):
        cache = getattr(args[0], "_key_cache", None)
        if cache is not None and args[1] in cache:
            counters["ordering.monomial_key.hits"] += 1

    def record_trees(args, result):
        tree_sizes[args] = len(result)

    patch = tracer.patch
    patch(completion, "complete", "completion.complete", after=count_iterations)
    patch(completion, "self_reduce", "completion.self_reduce")
    patch(completion, "_enumerate_scms", "completion.scms", after=count_scms)
    patch(completion, "s_polynomial", "completion.s_polynomial")
    for module in (completion, rewriting):
        patch(module, "normal_form", "rewriting.normal_form")
        patch(module, "match_at", "rewriting.match_at", after=match_succeeded,
              leaf=True)
    patch(rewriting.Reducer, "reduce", "rewriting.Reducer.reduce")
    patch(rewriting.Reducer, "first_redex", "rewriting.Reducer.first_redex",
          before=redex_cached)
    patch(enumeration, "is_normal_monomial", "rewriting.is_normal_monomial")
    for module in (completion, enumeration, rewriting):
        patch(module, "graft", "trees.graft", leaf=True)
    patch(rewriting, "replace_at", "trees.replace_at", leaf=True)
    for module in (polynomials, rewriting):
        patch(module, "add", "polynomials.add", leaf=True)
        patch(module, "scale", "polynomials.scale", leaf=True)
    patch(ordering.OperationOrder, "monomial_key", "ordering.monomial_key",
          before=key_cached, leaf=True)
    patch(enumeration, "all_tree_monomials", "enumeration.all_tree_monomials",
          after=record_trees)
    for fn in ("enumerate_normal", "count_normal", "dimension_by_linear_algebra"):
        patch(enumeration, fn, f"enumeration.{fn}")
    patch(enumeration, "_integer_rank", "enumeration.integer_rank", leaf=True)
    tracer.count_calls(trees.TreeMonomial, "__init__", "trees.TreeMonomial.created")
    tracer.count_calls(polynomials.TreePolynomial, "__init__",
                       "polynomials.TreePolynomial.created")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    spans = tracer.summary()
    c = tracer.counters

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "rewriting.match_at", "rewriting.Reducer.first_redex",
        "rewriting.is_normal_monomial", "rewriting.Reducer.reduce",
        "rewriting.normal_form", "trees.graft", "trees.replace_at",
        "polynomials.add", "ordering.monomial_key",
    ):
        out[f"{name}.calls"] = (span(name)["calls"], "count")
        out[f"{name}.self_s"] = (span(name)["self_s"], "s")
    out["polynomials.scale.calls"] = (span("polynomials.scale")["calls"], "count")
    for name in (
        "completion.self_reduce", "completion.scms", "completion.s_polynomial",
        "enumeration.all_tree_monomials", "enumeration.enumerate_normal",
        "enumeration.count_normal", "enumeration.dimension_by_linear_algebra",
        "enumeration.integer_rank",
    ):
        out[f"{name}.self_s"] = (span(name)["self_s"], "s")
    out["completion.self_reduce.total_s"] = (span("completion.self_reduce")["total_s"], "s")
    out["completion.self_reduce.normal_form_calls"] = (
        _calls_under(tracer, "rewriting.normal_form", "completion.self_reduce"), "count")
    out["rewriting.match_at.success_ratio"] = (_ratio(
        c["rewriting.match_at.successes"], span("rewriting.match_at")["calls"]), "ratio")
    out["rewriting.Reducer.first_redex.hit_ratio"] = (_ratio(
        c["rewriting.Reducer.first_redex.hits"],
        span("rewriting.Reducer.first_redex")["calls"]), "ratio")
    out["ordering.monomial_key.hit_ratio"] = (_ratio(
        c["ordering.monomial_key.hits"], span("ordering.monomial_key")["calls"]), "ratio")
    out["trees.TreeMonomial.created"] = (c["trees.TreeMonomial.created"], "count")
    out["polynomials.TreePolynomial.created"] = (
        c["polynomials.TreePolynomial.created"], "count")
    out["enumeration.all_tree_monomials.trees"] = (
        sum(tracer.tree_sizes.values()), "count")
    out["completion.scms.count"] = (c["completion.scms.count"], "count")
    out["completion.compositions"] = (c["completion.compositions"], "count")
    out["completion.nonzero_ratio"] = (_ratio(
        c["completion.nonzero"], c["completion.compositions"]), "ratio")
    return out


def _calls_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    ids = tracer._ids
    if name not in ids or ancestor not in ids:
        return 0
    nid, aid = ids[name], ids[ancestor]
    names, parents = tracer.span_name, tracer.span_parent
    total = 0
    for i in range(len(names)):
        if names[i] != nid:
            continue
        p = parents[i]
        while p >= 0 and names[p] != aid:
            p = parents[p]
        total += p >= 0
    return total
