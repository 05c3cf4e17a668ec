"""Final inter-reduction: ``self_reduce``, which reads one reducer over
the whole rule list per pass, against the same restart loop built on
plain ``normal_form`` calls modulo the others, plus its defining
properties."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import operad_gsb as og
from operad_gsb import completion
from operad_gsb.rewriting import RewriteRule, normal_form

from conftest import random_rules


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


@pytest.fixture(scope="module")
def captured_final_input(quad):
    """The rule list the final inter-reduction of row a<b<d<c receives."""
    order = og.OperationOrder.from_string("a<b<d<c", quad.signature)
    calls = []
    real = completion.self_reduce

    def capture(rules, ord):
        calls.append(tuple(rules))
        return real(rules, ord)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(completion, "self_reduce", capture)
        basis, report = og.complete(quad.relations, order)
    # one call on the input relations, one on the final working basis
    assert len(calls) == 2
    assert report.status == "iteration_cap"
    return calls[-1], order, basis


def test_self_reduce_matches_restart_loop_on_sweep_row(captured_final_input):
    rules, order, basis = captured_final_input
    got = og.self_reduce(rules, order)
    assert got == basis.rules
    assert got == restart_self_reduce(rules, order)
    # several rules really change or vanish on this input, and one gets a
    # lead that no input rule has
    assert len(got) < len(rules)
    assert len(set(rules) - set(got)) > len(rules) - len(got)
    assert {r.lead for r in got} - {r.lead for r in rules}


def test_self_reduce_properties_on_sweep_row(captured_final_input):
    rules, order, _ = captured_final_input
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
