"""Overlap enumeration, S-polynomials, completion runs, basis checks."""

import itertools

import pytest

import operad_gsb as og
from operad_gsb import completion
from operad_gsb.completion import (
    GSBasis,
    SmallCommonMultiple,
    s_polynomial,
    small_common_multiples,
)
from operad_gsb.rewriting import Reducer, RewriteRule

from conftest import assert_bd_conjugates, bd_swap

LEAF = og.LEAF


def L(x, y):
    return og.node(x, og.node(y, LEAF, LEAF), LEAF)


def LL(x, y, z):
    return og.node(x, og.node(y, og.node(z, LEAF, LEAF), LEAF), LEAF)


def LR(x, y, z):
    return og.node(x, og.node(y, LEAF, og.node(z, LEAF, LEAF)), LEAF)


def corolla(x, y, z):
    return og.node(x, og.node(y, LEAF, LEAF), og.node(z, LEAF, LEAF))


def rules_for(pres, order):
    return tuple(RewriteRule.from_polynomial(r, order) for r in pres.relations)


def test_no_self_overlap_for_first_relation(dend, dend_up):
    d1 = rules_for(dend, dend_up)[0]
    assert small_common_multiples(d1.lead, d1.lead) == []


def test_chain_overlap_first_two_relations(dend, dend_up):
    prec, succ = dend.signature.symbols
    d1, d2, _ = rules_for(dend, dend_up)
    scms = small_common_multiples(d1.lead, d2.lead)
    assert len(scms) == 1
    scm = scms[0]
    assert scm.multiple == LL(prec, prec, succ)
    assert scm.occ_f.vertex == (0,)
    assert scm.occ_g.vertex == ()
    # a proper overlap: the multiple is larger than the outer lead
    assert scm.multiple != d2.lead
    # nothing in the other orientation
    assert small_common_multiples(d2.lead, d1.lead) == []


def test_cubic_self_overlaps(dend, dend_down):
    succ = dend.signature["succ"]
    cubic = LL(succ, succ, succ)
    scms = small_common_multiples(cubic, cubic)
    assert [s.multiple.arity for s in scms] == [5, 6]
    assert [s.occ_f.vertex for s in scms] == [(0,), (0, 0)]


def test_inclusion_kinds(quad):
    a, b, c, d = quad.signature.symbols
    # fully inside, away from the root: the multiple is the outer lead
    scms = small_common_multiples(L(b, c), LL(a, b, c))
    assert len(scms) == 1 and scms[0].multiple == LL(a, b, c)
    assert scms[0].occ_f.vertex == (0,)
    # root-aligned inclusion is reported once, with the contained lead first
    assert len(small_common_multiples(L(a, b), LL(a, b, c))) == 1
    assert small_common_multiples(LL(a, b, c), L(a, b)) == []
    # a symbol that shares a name but not an arity never overlaps
    f2, f3 = og.OperationSymbol("f", 2), og.OperationSymbol("f", 3)
    wide = og.node(f3, LEAF, LEAF, LEAF)
    assert small_common_multiples(L(f2, f2), wide) == []
    assert small_common_multiples(wide, L(f2, f2)) == []


def test_s_polynomial_values(dend, dend_up, quad, quad_cbda):
    prec, succ = dend.signature.symbols
    d1, d2, _ = rules_for(dend, dend_up)
    scm = small_common_multiples(d1.lead, d2.lead)[0]
    got = s_polynomial(d1, d2, scm)
    assert got == og.TreePolynomial(
        {
            LR(prec, succ, prec): -1,
            corolla(prec, succ, prec): 1,
            corolla(prec, succ, succ): 1,
        }
    )
    # a rule against itself on the identical occurrence cancels outright
    from operad_gsb.rewriting import match_at

    occ = match_at(d1.lead, (), d1.lead)
    trivial = SmallCommonMultiple(d1.lead, occ, occ)
    assert s_polynomial(d1, d1, trivial).is_zero

    a, b, c, d = quad.signature.symbols
    q = rules_for(quad, quad_cbda)
    scm = small_common_multiples(q[8].lead, q[4].lead)[0]
    got = s_polynomial(q[8], q[4], scm)
    assert got == og.TreePolynomial(
        {
            LL(c, a, b): 1,
            LL(c, a, c): 1,
            LL(c, a, d): 1,
            LR(c, a, a): -1,
            corolla(a, a, c): 1,
        }
    )


def test_complete_dendriform_up(dend, dend_up):
    basis, report = og.complete(dend.relations, dend_up)
    assert [(r.compositions, r.nonzero) for r in report.iterations] == [(4, 0)]
    assert report.status == "gsb_confirmed"
    assert report.basis == tuple(r.make_monic(dend_up) for r in dend.relations)
    assert og.self_reduce(basis.rules, dend_up) == basis.rules


def test_complete_dendriform_down(dend, dend_down):
    succ, prec = dend.signature["succ"], dend.signature["prec"]
    basis, report = og.complete(dend.relations, dend_down)
    assert [(r.compositions, r.nonzero) for r in report.iterations] == [(5, 1), (4, 0)]
    assert report.status == "gsb_confirmed"
    assert report.basis_size == 4
    cubic = og.TreePolynomial(
        {LL(succ, succ, succ): 1, corolla(succ, succ, succ): -1, LR(succ, succ, prec): 1}
    )
    assert report.iterations[0].added == (cubic,)


def test_complete_quadri_good_orders(quad, quad_cbda, quad_cdba):
    for order in (quad_cbda, quad_cdba):
        basis, report = og.complete(quad.relations, order)
        assert [(r.compositions, r.nonzero) for r in report.iterations] == [(16, 0)]
        assert report.status == "gsb_confirmed"
        assert report.basis_size == 9


def test_complete_caps(dend, dend_down):
    _, report = og.complete(
        dend.relations, dend_down, og.CompletionConfig(max_iterations=1)
    )
    assert report.status == "iteration_cap"
    assert len(report.iterations) == 1
    _, report = og.complete(
        dend.relations, dend_down, og.CompletionConfig(max_arity=3)
    )
    assert report.status == "arity_cap"
    assert report.iterations[0].compositions == 0


def test_complete_rejects_bad_input(dend, dend_up):
    with pytest.raises(og.TreeError):
        og.complete([og.TreePolynomial.zero(3)], dend_up)
    tern = og.OperationSymbol("tern", 3)
    sig = og.Signature((tern,))
    rel = og.TreePolynomial.monomial(og.node(tern, LEAF, LEAF, LEAF))
    order = og.OperationOrder((tern,))
    with pytest.raises(og.TreeError, match="binary"):
        og.complete([rel], order)
    # an operation that shares a name but not an arity with a ranked one
    f2, f3 = og.OperationSymbol("f", 2), og.OperationSymbol("f", 3)
    x = og.node(f3, og.node(f3, LEAF, LEAF, LEAF), LEAF, LEAF)
    y = og.node(f3, LEAF, og.node(f3, LEAF, LEAF, LEAF), LEAF)
    with pytest.raises(og.TreeError, match="operation f/3 is not ranked"):
        og.complete([og.TreePolynomial({x: 1, y: -1})], og.OperationOrder((f2,)))


def test_self_reduce(dend, dend_up, quad, quad_cbda):
    rules = rules_for(dend, dend_up)
    assert og.self_reduce(rules, dend_up) == rules
    assert og.self_reduce((rules[0], rules[0]), dend_up) == (rules[0],)
    qrules = rules_for(quad, quad_cbda)
    assert og.self_reduce(qrules, quad_cbda) == qrules


def test_self_reduce_builds_one_reducer_per_call(quad):
    # on the rule list the final inter-reduction of row a<b<d<c receives,
    # one reducer over the whole list serves every rewrite of the call,
    # edited in place after each
    order = og.OperationOrder.from_string("a<b<d<c", quad.signature)
    calls = []
    real = completion.self_reduce

    def capture(rules, ord):
        calls.append(tuple(rules))
        return real(rules, ord)

    class Counting(Reducer):
        built = rewrites = 0

        def __init__(self, *args):
            Counting.built += 1
            super().__init__(*args)

        def reduce(self, p, *args, **kwargs):
            Counting.rewrites += 1
            return super().reduce(p, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(completion, "self_reduce", capture)
        og.complete(quad.relations, order)
        mp.setattr(completion, "Reducer", Counting)
        got = real(calls[-1], order)
    # every rule dropped took a rewrite of its own
    assert Counting.rewrites >= len(calls[-1]) - len(got) > 0
    assert Counting.built == 1


def test_is_gsb(dend, dend_down, dend_basis_down, quad, quad_cdba):
    check = og.is_gsb(dend_basis_down)
    assert check.status == "confirmed" and bool(check)
    assert len(check.certificate) == 9
    assert all(rec.normal_form.is_zero for rec in check.certificate)
    bare = GSBasis(rules_for(dend, dend_down), dend_down)
    check = og.is_gsb(bare)
    assert check.status == "refuted" and not bool(check)
    qbare = GSBasis(rules_for(quad, quad_cdba), quad_cdba)
    assert og.is_gsb(qbare).status == "confirmed"
    # an arity cap that skips candidates cannot confirm
    capped = og.is_gsb(dend_basis_down, og.CompletionConfig(max_arity=4))
    assert capped.status == "indeterminate"


@pytest.mark.parametrize("order_text", ["c<b<d<a", "c<d<b<a"])
def test_is_gsb_certificate_equals_first_round_records(quad, order_text):
    # complete and is_gsb share one composition loop, so on a basis
    # confirmed at iteration 1 they keep the same records in order
    order = og.OperationOrder.from_string(order_text, quad.signature)
    basis, report = og.complete(quad.relations, order)
    (first,) = report.iterations
    certificate = og.is_gsb(basis).certificate
    assert [(r.outer_index, r.inner_index, r.scm) for r in certificate] == [
        (r.outer_index, r.inner_index, r.scm) for r in first.records
    ]
    assert certificate == first.records
    assert len(first.records) == first.compositions == 16


@pytest.mark.xfail(strict=True, reason="the root overlap of two rules with one lead "
                   "is never enumerated (ROADMAP item 13)")
def test_two_rules_with_one_lead_compose_at_the_root():
    # a round can add two rules with one lead; their difference is a
    # composition at the root, but _enumerate_scms sees two equal leads
    # as a rule with itself and skips the overlap in both orientations
    sig = og.Signature((og.OperationSymbol("f", 2),))
    order = og.OperationOrder.from_string("f", sig)
    rules = tuple(
        og.RewriteRule.from_polynomial(og.parse_polynomial(text, sig), order)
        for text in ("(f (f * *) *) - (f * (f * *))", "(f (f * *) *) - 2 (f * (f * *))")
    )
    assert rules[0].lead == rules[1].lead
    certificate = og.is_gsb(GSBasis(rules, order)).certificate
    at_root = [rec for rec in certificate if rec.scm.multiple == rules[0].lead]
    assert [{rec.outer_index, rec.inner_index} for rec in at_root] == [{0, 1}]


def test_iteration_one_count_matches_chain_formula(quad):
    # for quadratic binary input, compositions at iteration 1 count the
    # (outer second letter == inner root letter) chain matches
    for perm in itertools.permutations("abcd"):
        order = og.OperationOrder.from_string("<".join(perm), quad.signature)
        leads = [r.make_monic(order).leading_term(order)[0] for r in quad.relations]
        roots = [t.label.name for t in leads]
        seconds = [t.children[0].label.name for t in leads]
        expected = sum(
            1 for s in seconds for r in roots if s == r
        )
        actual = sum(
            len(small_common_multiples(f, g)) for f in leads for g in leads
        )
        assert actual == expected
        for lead in leads:
            assert lead.children[1] == LEAF and lead.children[0] != LEAF


@pytest.mark.parametrize("order_text", ["b<a<c<d", "a<b<d<c", "c<b<d<a"])
def test_bd_relabel_symmetry(quad, order_text):
    docs = []
    for text in (order_text, bd_swap(order_text)):
        order = og.OperationOrder.from_string(text, quad.signature)
        _, report = og.complete(quad.relations, order)
        docs.append(report.to_json_dict(order))
    assert_bd_conjugates(*docs)


def test_added_elements_lie_in_the_ideal(dend, dend_down, dend_basis_down):
    _, report = og.complete(dend.relations, dend_down)
    cubic = report.iterations[0].added[0]
    assert og.normal_form(cubic, dend_basis_down.rules, dend_down).is_zero
    # independent membership check: appending it cannot cut the dimension
    augmented = og.Presentation(
        dend.signature, dend.relations + (cubic,), "augmented"
    )
    assert og.dimension_by_linear_algebra(augmented, 4) == og.dimension_by_linear_algebra(dend, 4)
