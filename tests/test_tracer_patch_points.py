"""The benchmark's tracer patches the package by attribute name; every
name it wraps must still exist, and a traced call must reach it."""

import operad_gsb as og
from operad_gsb.rewriting import Reducer, RewriteRule
from operad_gsb.trees import replace_at

from conftest import load_bench_module


def test_tracer_patches_and_restores(dend, dend_up):
    tracing = load_bench_module("tracing")
    original = vars(Reducer)["reduce"]
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        prec, _ = dend.signature.symbols
        leaf = og.LEAF
        mono = og.node(prec, og.node(prec, og.node(prec, leaf, leaf), leaf), leaf)
        reducer = Reducer(
            [RewriteRule.from_polynomial(r, dend_up) for r in dend.relations], dend_up
        )
        p = og.TreePolynomial.monomial(mono)
        assert reducer.reduce(p) == reducer.reduce(p)
        # earlier tests may keep the reduction's trees alive; trees with a
        # label no other test uses are new here, whichever way they are built
        fresh = og.node(og.OperationSymbol("traced"), leaf, leaf)
        og.graft(fresh, [fresh, leaf])
        replace_at(fresh, (1,), fresh)
    finally:
        tracer.restore()
    assert vars(Reducer)["reduce"] is original
    assert tracer.summary()["rewriting.Reducer.reduce"]["calls"] == 2
    # the second reduction finds every redex in the reducer's cache
    assert tracer.counters["rewriting.Reducer.first_redex.hits"] > 0
    # reduction steps embed through the wrapped rewriting.graft/replace_at
    assert tracer.leaves["trees.graft"][0] > 0
    assert tracer.leaves["trees.replace_at"][0] > 0
    # the constructor, graft and replace_at each made a tree through the
    # patched constructor body
    assert tracer.counters["trees.TreeMonomial.created"] >= 3
