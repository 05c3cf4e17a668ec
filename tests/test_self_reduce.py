"""Final inter-reduction: ``self_reduce``, which edits one reducer over
the whole rule list in place for the whole call, against the same
restart loop built on plain ``normal_form`` calls modulo the others,
plus its defining properties.  ``Reducer.update`` keeps a cached redex
only while it is still the first one: deleting a rule creates no match,
and a new lead occurs only in subtrees of at least its arity."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import operad_gsb as og
from operad_gsb import completion
from operad_gsb.rewriting import Reducer, RewriteRule, normal_form

from conftest import random_rules, random_tree


def restart_self_reduce(rules, ord):
    """Reference oracle: normal-form each rule modulo the others in turn;
    on the first change, start again from the top."""
    out = list(rules)
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            others = out[:i] + out[i + 1 :]
            if not others:
                continue
            nf = normal_form(out[i].polynomial, others, ord)
            if nf == out[i].polynomial:
                continue
            if nf.is_zero:
                del out[i]
            else:
                out[i] = RewriteRule.from_polynomial(nf, ord)
            changed = True
            break
    return tuple(out)


def assert_inter_reduced(rules):
    # no monomial of a rule contains the lead of another rule
    for i, rule in enumerate(rules):
        leads = [r.lead for j, r in enumerate(rules) if j != i]
        for m in rule.polynomial.terms:
            assert og.is_normal_monomial(m, leads), (i, og.format_tree(m))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_self_reduce_matches_restart_loop(seed, quad):
    rules, order = random_rules(seed, quad)
    got = og.self_reduce(rules, order)
    assert got == restart_self_reduce(rules, order)
    assert_inter_reduced(got)
    assert og.self_reduce(got, order) == got


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    edits=st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from(["delete", "reduce", "copy"])),
        max_size=6,
    ),
)
def test_update_keeps_only_redexes_that_are_still_first(seed, edits, quad):
    # edits: delete rule i, replace it by its monic normal form modulo the
    # others (deleted when zero), or by a copy of another rule, whose
    # arity may differ
    rules, order = random_rules(seed, quad)
    rng = random.Random(seed)
    reducer = Reducer(rules, order)

    def fill():
        # cache the subtrees of every rule monomial and of random trees
        for rule in reducer.rules:
            for m in rule.polynomial.terms:
                reducer.first_redex(m)
        for _ in range(8):
            reducer.first_redex(random_tree(rng, order.ranked, rng.randint(2, 6)))

    fill()
    for pick, edit in edits:
        if not reducer.rules:
            break
        i = pick % len(reducer.rules)
        others = reducer.rules[:i] + reducer.rules[i + 1 :]
        if edit == "copy":
            rule = reducer.rules[rng.randrange(len(reducer.rules))]
        else:
            nf = normal_form(reducer.rules[i].polynomial, others, order)
            zero = edit == "delete" or nf.is_zero
            rule = None if zero else RewriteRule.from_polynomial(nf, order)
        reducer.update(i, rule)
        assert reducer.rules == (others if rule is None else others[:i] + (rule,) + others[i:])
        fresh = Reducer(reducer.rules, order)
        for m in list(reducer._first_redex):
            assert reducer.first_redex(m) == fresh.first_redex(m), og.format_tree(m)
        fill()


@pytest.fixture(scope="module")
def captured_final_inputs(quad):
    """Row -> the rule list its final inter-reduction receives, with the
    order and the final basis, for every row stopped by the iteration cap."""
    rows = {}
    real = completion.self_reduce
    for perm in itertools.permutations("abcd"):
        text = "<".join(perm)
        order = og.OperationOrder.from_string(text, quad.signature)
        calls = []

        def capture(rules, ord):
            calls.append(tuple(rules))
            return real(rules, ord)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(completion, "self_reduce", capture)
            basis, report = og.complete(quad.relations, order)
        # one call on the input relations, one on the final working basis
        assert len(calls) == 2
        if report.status == "iteration_cap":
            rows[text] = calls[-1], order, basis
    assert len(rows) == 10
    return rows


def test_self_reduce_matches_restart_loop_on_sweep_row(captured_final_inputs):
    for text, (rules, order, basis) in captured_final_inputs.items():
        got = og.self_reduce(rules, order)
        assert got == basis.rules, text
        assert got == restart_self_reduce(rules, order), text
    rules, order, basis = captured_final_inputs["a<b<d<c"]
    got = basis.rules
    # several rules really change or vanish on row a<b<d<c, and one gets
    # a lead that no input rule has
    assert len(got) < len(rules)
    assert len(set(rules) - set(got)) > len(rules) - len(got)
    assert {r.lead for r in got} - {r.lead for r in rules}


def test_self_reduce_properties_on_sweep_row(captured_final_inputs):
    rules, order, _ = captured_final_inputs["a<b<d<c"]
    got = og.self_reduce(rules, order)
    assert_inter_reduced(got)
    assert og.self_reduce(got, order) == got


def test_self_reduce_drops_duplicates_and_keeps_singletons(dend, dend_up):
    rule = RewriteRule.from_polynomial(dend.relations[0], dend_up)
    assert og.self_reduce([rule], dend_up) == (rule,)
    assert og.self_reduce([rule] * 3, dend_up) == (rule,)
    assert og.self_reduce([], dend_up) == ()


def test_self_reduce_quadri_inputs_all_orders(quad):
    # the input relations of every order, as complete orients them
    for perm in itertools.permutations("abcd"):
        order = og.OperationOrder.from_string("<".join(perm), quad.signature)
        rules = [RewriteRule.from_polynomial(r, order) for r in quad.relations]
        assert og.self_reduce(rules, order) == restart_self_reduce(rules, order)
