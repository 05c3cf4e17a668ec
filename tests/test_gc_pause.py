"""The engine's entry points pause the cyclic garbage collector.

``complete``, ``is_gsb`` and ``normal_form`` run with the collector off,
because the engine builds no reference cycle, and leave its switch as
they found it.  With the collector on, ``complete`` and ``is_gsb``
collect the two young generations on the way out; with it off, no entry
point collects anything.
"""

import gc
import random
import sys

import pytest

import operad_gsb as og
from operad_gsb.rewriting import ReductionError, RewriteRule
from operad_gsb.trees import _cyclic_gc_paused

from conftest import random_polynomial

LEAF = og.LEAF


@pytest.fixture
def gc_log():
    """The generation of each collection that starts during the test; the
    collector's switch is restored afterwards."""
    was_enabled = gc.isenabled()
    log: list[int] = []

    def record(phase, info):
        if phase == "start":
            log.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield log
    finally:
        gc.callbacks.remove(record)
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def _set_collector(on: bool) -> None:
    # a full collection first, so no automatic one falls due during the call
    gc.collect()
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def entry_points(dend, dend_up, dend_basis_up):
    """name -> (call that returns, (exception, call that raises it))."""
    prec, succ = dend.signature.symbols
    x = og.node(prec, LEAF, LEAF)
    y = og.node(succ, LEAF, LEAF)
    # under prec<succ the first rule rewrites x to the greater y
    loop = (
        RewriteRule(x, og.TreePolynomial({y: -1})),
        RewriteRule(y, og.TreePolynomial({x: -1})),
    )
    p = og.TreePolynomial.monomial(og.node(prec, og.node(succ, x, LEAF), LEAF))
    return {
        "complete": (
            lambda: og.complete(dend.relations, dend_up),
            (og.TreeError, lambda: og.complete([og.TreePolynomial({}, 3)], dend_up)),
        ),
        "is_gsb": (
            lambda: og.is_gsb(dend_basis_up),
            (ReductionError, lambda: og.is_gsb(og.GSBasis(loop, dend_up))),
        ),
        "normal_form": (
            lambda: og.normal_form(p, dend_basis_up.rules, dend_up),
            (ReductionError, lambda: og.normal_form(p, loop, dend_up)),
        ),
    }


@pytest.mark.parametrize("path", ["return", "error"])
@pytest.mark.parametrize("on", [True, False], ids=["collector_on", "collector_off"])
@pytest.mark.parametrize("name", ["complete", "is_gsb", "normal_form"])
def test_entry_points_restore_the_collector(name, on, path, entry_points, gc_log):
    returns, (error, raises) = entry_points[name]
    _set_collector(on)
    gc_log.clear()
    if path == "return":
        returns()
    else:
        with pytest.raises(error):
            raises()
    assert gc.isenabled() is on
    # with the collector on, nothing is collected during the call and only
    # complete and is_gsb hand back the young generations; with it off,
    # nothing is collected at all
    hand_back = on and name != "normal_form"
    assert gc_log == ([1] if hand_back else [])


def test_a_caller_that_paused_the_collector_keeps_it_paused(quad, quad_basis_cbda, gc_log):
    order = og.OperationOrder.from_string("c<b<d<a", quad.signature)

    @_cyclic_gc_paused(hand_back=True)
    def caller():
        basis, _ = og.complete(quad.relations, order)
        assert not gc.isenabled()
        assert og.is_gsb(basis)
        assert not gc.isenabled()
        # the inner calls handed nothing back: the outer call does it
        assert gc_log == []
        return basis

    _set_collector(True)
    gc_log.clear()
    basis = caller()
    assert gc.isenabled()
    assert gc_log == [1]
    assert basis.polynomials() == quad_basis_cbda.polynomials()


@pytest.mark.usefixtures("gc_log")
def test_the_engine_builds_no_reference_cycle(quad, quad_basis_cbda):
    # if a change to the engine made a cycle, a paused call would leave it
    # for the next collection to find
    _set_collector(False)
    order = og.OperationOrder.from_string("a<b<d<c", quad.signature)
    _, report = og.complete(quad.relations, order)
    assert report.status == "iteration_cap"
    assert gc.collect() == 0
    assert og.is_gsb(quad_basis_cbda)
    assert gc.collect() == 0
    rng = random.Random("no cycles")
    symbols = quad_basis_cbda.order.ranked
    for _ in range(4):
        p = random_polynomial(rng, symbols, 10)
        og.normal_form(p, quad_basis_cbda.rules, quad_basis_cbda.order)
        assert gc.collect() == 0


# 3.14's incremental collector counts its generations differently
@pytest.mark.skipif(sys.version_info >= (3, 14), reason="generational collector only")
@pytest.mark.usefixtures("gc_log")
@pytest.mark.parametrize("name", ["complete", "is_gsb"])
def test_the_caller_inherits_no_due_collection(name, quad, quad_basis_cbda):
    # a paused call allocates without collecting; the hand-back leaves the
    # middle generation empty, so the caller's next young collection does
    # not reach it
    order = og.OperationOrder.from_string("b<c<d<a", quad.signature)
    _set_collector(True)
    if name == "complete":
        og.complete(quad.relations, order)
    else:
        og.is_gsb(quad_basis_cbda)
    assert gc.get_count()[1] == 0
