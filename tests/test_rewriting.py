"""Occurrence search, the embedding step, S-polynomials, normal forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import operad_gsb as og
from operad_gsb.completion import small_common_multiples, s_polynomial
from operad_gsb.rewriting import (
    ReductionError,
    Reducer,
    RewriteRule,
    add_embedding,
    match_at,
)
from operad_gsb.trees import MAX_TREE_DEPTH, replace_at, subtrees

from conftest import random_polynomial, random_rules, random_tree

LEAF = og.LEAF


def L(x, y):
    return og.node(x, og.node(y, LEAF, LEAF), LEAF)


def R(x, y):
    return og.node(x, LEAF, og.node(y, LEAF, LEAF))


def LL(x, y, z):
    return og.node(x, og.node(y, og.node(z, LEAF, LEAF), LEAF), LEAF)


def LR(x, y, z):
    return og.node(x, og.node(y, LEAF, og.node(z, LEAF, LEAF)), LEAF)


def RL(x, y, z):
    return og.node(x, LEAF, og.node(y, og.node(z, LEAF, LEAF), LEAF))


def corolla(x, y, z):
    return og.node(x, og.node(y, LEAF, LEAF), og.node(z, LEAF, LEAF))


def find(ambient, pattern):
    """Occurrences of a single pattern, in preorder of vertex."""
    return [occ for _, occ in og.occurrences(ambient, [pattern])]


@pytest.fixture(scope="module")
def drules(dend, dend_up):
    return tuple(RewriteRule.from_polynomial(r, dend_up) for r in dend.relations)


def first_redex(leads, ambient):
    """The first redex of ``ambient`` by rules with these leads and zero
    tails, as a reducer finds it; a redex lookup reads no order."""
    rules = [RewriteRule(lead, og.TreePolynomial.zero(lead.arity)) for lead in leads]
    return Reducer(rules, None).first_redex(ambient)


def test_find_occurrences_examples(dend):
    prec, succ = dend.signature.symbols
    ambient = LL(prec, prec, succ)
    occs = find(ambient, L(prec, succ))
    assert [o.vertex for o in occs] == [(0,)]
    t = random_tree(random.Random(5), dend.signature.symbols, 4)
    occs = find(t, t)
    assert len(occs) == 1 and occs[0].vertex == ()
    assert all(b == LEAF for b in occs[0].bindings)
    assert find(R(succ, succ), L(succ, succ)) == []
    with pytest.raises(og.TreeError):
        find(t, LEAF)
    # a symbol that shares a name but not an arity is another label
    f2, f3 = og.OperationSymbol("f", 2), og.OperationSymbol("f", 3)
    narrow, wide = og.node(f2, LEAF, LEAF), og.node(f3, LEAF, LEAF, LEAF)
    assert find(wide, narrow) == [] and find(narrow, wide) == []
    assert first_redex([narrow], wide) is None
    # a lead's leaf child captures an internal ambient child
    lead = L(prec, succ)
    ambient = og.node(prec, og.node(succ, LEAF, LEAF), og.node(prec, LEAF, LEAF))
    assert [o.vertex for o in find(ambient, lead)] == [()]
    assert first_redex([lead], ambient) == (0, find(ambient, lead)[0])
    # a lead's internal child never matches an ambient leaf
    lead = R(prec, succ)
    ambient = L(prec, succ)
    assert find(ambient, lead) == []
    assert first_redex([lead], ambient) is None
    # nor a child that shares its name but not its arity
    lead = og.node(prec, narrow, LEAF)
    ambient = og.node(prec, wide, LEAF)
    assert find(ambient, lead) == []
    assert first_redex([lead], ambient) is None


def test_occurrences_in_preorder(quad):
    a, b, c, d = quad.signature.symbols
    # two occurrences of the same pattern, one under each branch
    amb = og.node(a, og.node(b, og.node(c, LEAF, LEAF), LEAF), og.node(b, og.node(c, LEAF, LEAF), LEAF))
    occs = find(amb, og.node(b, og.node(c, LEAF, LEAF), LEAF))
    assert [o.vertex for o in occs] == [(0,), (1,)]


@given(seed=st.integers(0, 10**9))
def test_occurrence_reassembly(seed, quad):
    rng = random.Random(seed)
    syms = quad.signature.symbols
    ambient = random_tree(rng, syms, rng.randint(2, 6))
    pattern = random_tree(rng, syms, rng.randint(2, 3))
    for occ in find(ambient, pattern):
        rebuilt = og.graft(pattern, occ.bindings)
        assert rebuilt == og.subtree_at(ambient, occ.vertex)
        assert replace_at(ambient, occ.vertex, rebuilt) == ambient


@given(seed=st.integers(0, 10**9))
def test_occurrences_match_brute_force(seed, quad):
    # one walk yields exactly what matching every pattern at every
    # vertex finds, in the same (vertex preorder, pattern index) order
    rng = random.Random(seed)
    syms = quad.signature.symbols
    ambient = random_tree(rng, syms, rng.randint(1, 7))
    patterns = [random_tree(rng, syms, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
    expected = [
        (idx, occ)
        for vertex, _ in subtrees(ambient)
        for idx, pattern in enumerate(patterns)
        if (occ := match_at(ambient, vertex, pattern)) is not None
    ]
    assert list(og.occurrences(ambient, patterns)) == expected
    # a reducer, filtering by child labels, finds the first of them in
    # every subtree; one lead comes from the ambient tree, and one lead
    # is repeated, so that the first rule with it must win
    leads = list(patterns)
    if ambient.label is not None:
        leads.append(rng.choice([sub for _, sub in subtrees(ambient)]))
    leads.insert(rng.randint(0, len(leads)), rng.choice(leads))
    for _, sub in subtrees(ambient):
        expected = next(
            (
                (idx, occ)
                for vertex, _ in subtrees(sub)
                for idx, lead in enumerate(leads)
                if (occ := match_at(sub, vertex, lead)) is not None
            ),
            None,
        )
        assert first_redex(leads, sub) == expected


@given(seed=st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_lead_redex_skips_only_its_own_rule(seed, quad):
    # a rule's lead, searched by the reducer over the whole list, gives
    # the first redex by the other rules; a twin of one lead must be
    # found at the root of the other, and the cache keeps answering with
    # every rule
    rules, order = random_rules(seed, quad)
    rng = random.Random(seed)
    twin = rng.choice(rules).lead
    rules.insert(
        rng.randint(0, len(rules)), RewriteRule(twin, og.TreePolynomial.zero(twin.arity))
    )
    leads = [r.lead for r in rules]
    reducer = Reducer(rules, order)
    for i in rng.sample(range(len(rules)), len(rules)):
        expected = next(og.occurrences(leads[i], leads[:i] + leads[i + 1 :]), None)
        if expected is not None:
            idx, occ = expected
            expected = (idx + (idx >= i), occ)
        assert reducer.lead_redex(i) == expected
        assert reducer.first_redex(leads[i]) == next(og.occurrences(leads[i], leads))


@given(seed=st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_first_redex_after_warm_subtrees(seed, quad):
    # the memo answers a tree from its subtrees' answers: warming them in
    # any order must not change the tree's own
    rules, order = random_rules(seed, quad)
    rng = random.Random(seed)
    leads = [r.lead for r in rules]
    # leads grafted under a random tree, so that several children hold one
    outer = random_tree(rng, order.ranked, rng.randint(2, 4))
    m = og.graft(outer, [rng.choice([*leads, LEAF]) for _ in range(outer.arity)])
    subs = [sub for _, sub in subtrees(m)]
    rng.shuffle(subs)
    warm = Reducer(rules, order)
    for sub in rng.sample(subs, rng.randint(0, len(subs))):
        warm.first_redex(sub)
    expected = next(og.occurrences(m, leads), None)
    assert warm.first_redex(m) == Reducer(rules, order).first_redex(m) == expected
    for sub in subs:
        assert warm.first_redex(sub) == next(og.occurrences(sub, leads), None)


def test_first_redex_at_max_depth(quad):
    # the search recurses once per level; the deepest tree must not
    # exhaust the interpreter's stack, with or without a redex
    a, b, c, d = quad.signature.symbols
    lead = L(b, c)
    rule = RewriteRule(lead, og.TreePolynomial.zero(lead.arity))
    order = og.OperationOrder((a, b, c, d))
    for bottom, found in ((lead, True), (L(c, b), False)):
        deep = bottom
        while deep.depth < MAX_TREE_DEPTH:
            deep = og.node(a, deep, LEAF)
        redex = Reducer([rule], order).first_redex(deep)
        if found:
            idx, occ = redex
            assert (occ.vertex, idx) == ((0,) * (MAX_TREE_DEPTH - 2), 0)
        else:
            assert redex is None


def step(p, m, rule, occ):
    """One reduction step as ``Reducer.reduce`` takes it: delete ``m`` and
    add ``-coeff(m)`` times the rule's tail embedded at ``occ``."""
    terms = dict(p.terms)
    created = add_embedding(terms, -terms.pop(m), rule.tail, m, occ)
    return og.TreePolynomial(terms, p.arity), created


def test_apply_rule_at_root(dend, dend_up, drules):
    prec, succ = dend.signature.symbols
    d1 = drules[0]
    p = og.TreePolynomial.monomial(L(prec, succ))
    occ = match_at(L(prec, succ), (), d1.lead)
    got, created = step(p, L(prec, succ), d1, occ)
    assert got == og.TreePolynomial.monomial(R(succ, prec))
    assert created == [R(succ, prec)]
    # embedding the whole rule instead cancels the lead's image itself
    terms = dict(p.terms)
    assert add_embedding(terms, -1, d1.polynomial, L(prec, succ), occ) == [R(succ, prec)]
    assert og.TreePolynomial(terms, p.arity) == got


def test_apply_rule_first_chain_step(dend, dend_up, drules):
    # first rewriting step of the overlap between the first two relations
    prec, succ = dend.signature.symbols
    p = og.TreePolynomial(
        {LR(prec, succ, prec): -1, corolla(prec, succ, prec): 1, corolla(prec, succ, succ): 1}
    )
    m = LR(prec, succ, prec)
    occ = match_at(m, (), drules[0].lead)
    assert occ is not None
    got, _ = step(p, m, drules[0], occ)
    assert got == og.TreePolynomial(
        {RL(succ, prec, prec): -1, corolla(prec, succ, prec): 1, corolla(prec, succ, succ): 1}
    )


def embed(ambient, occ, p):
    """Oracle: every monomial of ``p`` embedded into ``ambient`` at ``occ``."""
    return og.TreePolynomial(
        {replace_at(ambient, occ.vertex, og.graft(m, occ.bindings)): c for m, c in p.terms.items()},
        ambient.arity,
    )


@given(seed=st.integers(0, 10**9))
@settings(max_examples=60)
def test_s_polynomial_is_difference_of_embeddings(seed, quad):
    rng = random.Random(seed)
    order = og.OperationOrder(tuple(rng.sample(quad.signature.symbols, 4)))
    f, g = (
        RewriteRule.from_polynomial(
            random_polynomial(rng, order.ranked, rng.randint(3, 4)), order
        )
        for _ in range(2)
    )
    for outer, inner in ((g, f), (f, g), (f, f)):
        for scm in small_common_multiples(inner.lead, outer.lead):
            expected = embed(scm.multiple, scm.occ_f, inner.polynomial) - embed(
                scm.multiple, scm.occ_g, outer.polynomial
            )
            got = s_polynomial(inner, outer, scm)
            assert got == expected
            assert scm.multiple not in got.terms


def test_normal_form_examples(dend, dend_up, dend_down, drules):
    prec, succ = dend.signature.symbols
    # self-overlap of the second relation reduces to zero
    d2 = drules[1]
    scm = small_common_multiples(d2.lead, d2.lead)[0]
    assert og.normal_form(s_polynomial(d2, d2, scm), drules, dend_up).is_zero
    # a normal monomial is untouched
    mono = og.TreePolynomial.monomial(R(succ, prec))
    assert og.normal_form(mono, drules, dend_up) == mono
    # the unresolvable overlap under the reversed order yields the cubic element
    down = tuple(RewriteRule.from_polynomial(r, dend_down) for r in dend.relations)
    d2d, d3d = down[1], down[2]
    scm = small_common_multiples(d2d.lead, d3d.lead)[0]
    nf = og.normal_form(s_polynomial(d2d, d3d, scm), down, dend_down)
    assert nf.make_monic(dend_down) == og.TreePolynomial(
        {LL(succ, succ, succ): 1, corolla(succ, succ, succ): -1, LR(succ, succ, prec): 1}
    )


def test_is_normal_monomial(dend, dend_up, drules):
    prec, succ = dend.signature.symbols
    leads = [r.lead for r in drules]
    assert og.is_normal_monomial(R(succ, prec), leads)
    assert og.is_normal_monomial(L(succ, prec), leads)
    assert not og.is_normal_monomial(L(prec, prec), leads)
    assert og.is_normal_monomial(LEAF, leads)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=50)
def test_strict_descent(seed, dend, dend_up, drules):
    rng = random.Random(seed)
    p = random_polynomial(rng, dend.signature.symbols, rng.randint(3, 5))
    reducer = Reducer(drules, dend_up)
    key = dend_up.monomial_key
    while True:
        redex = None
        for m in p.terms:
            r = reducer.first_redex(m)
            if r is not None:
                redex = (m, *r)
                break
        if redex is None:
            break
        m, idx, occ = redex
        q, created = step(p, m, drules[idx], occ)
        # the rewritten monomial disappears; nothing >= it enters or changes
        assert m not in q.terms
        assert set(q.terms) - set(p.terms) <= set(created)
        for new in created:
            assert key(new) < key(m)
        p = q


def test_unoriented_rules_are_refused(dend, dend_up, drules):
    prec, succ = dend.signature.symbols
    x = og.node(prec, LEAF, LEAF)
    y = og.node(succ, LEAF, LEAF)
    # two rules that would swap the corollas forever; under prec<succ the
    # first one rewrites x to the greater y
    loop = (
        RewriteRule(x, og.TreePolynomial({y: -1})),
        RewriteRule(y, og.TreePolynomial({x: -1})),
    )
    with pytest.raises(ReductionError, match="not oriented"):
        Reducer(loop, dend_up)
    with pytest.raises(ReductionError, match="not oriented"):
        og.normal_form(og.TreePolynomial.monomial(x), loop, dend_up)
    # the trace is keyword-only, so a stray positional argument is refused
    # rather than taken as the trace list
    with pytest.raises(TypeError):
        og.normal_form(og.TreePolynomial.monomial(x), drules, dend_up, [])


@given(seed=st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_reducer_refuses_a_reoriented_rule(seed, quad):
    # rules oriented by the order are accepted; making one rule's greatest
    # tail monomial its lead is refused, naming that rule, by the
    # constructor and by ``update``, which then leaves the rules as they were
    rules, order = random_rules(seed, quad)
    reducer = Reducer(rules, order)
    tailed = [i for i, rule in enumerate(rules) if rule.tail.terms]
    if not tailed:
        return
    i = random.Random(seed).choice(tailed)
    p = rules[i].polynomial
    lead = max(rules[i].tail.terms, key=order.monomial_key)
    c = Fraction(p.terms[lead])
    rest = og.TreePolynomial({m: v / c for m, v in p.terms.items() if m != lead}, p.arity)
    rules[i] = RewriteRule(lead, rest)
    with pytest.raises(ReductionError, match=f"^rule {i} is not oriented by the order$"):
        Reducer(rules, order)
    before = reducer.rules
    with pytest.raises(ReductionError, match=f"^rule {i} is not oriented by the order$"):
        reducer.update(i, rules[i])
    assert reducer.rules == before


def greatest_first(reducer, p):
    """The documented traced schedule, literally: each step rewrites the
    greatest monomial that has a redex.  Returns the ``(rule index,
    vertex)`` steps and the normal form."""
    terms, steps = dict(p.terms), []
    while True:
        for m in sorted(terms, key=reducer.ord.monomial_key, reverse=True):
            redex = reducer.first_redex(m)
            if redex is not None:
                break
        else:
            return steps, og.TreePolynomial(terms, p.arity)
        idx, occ = redex
        steps.append((idx, occ.vertex))
        add_embedding(terms, -terms.pop(m), reducer.rules[idx].tail, m, occ)


def grafted_polynomial(rng, rules, order):
    """Leads and tail monomials of one arity, each grafted into a slot of
    one random tree: the terms share that tree, so their images meet and
    cancel far more often than those of random trees."""
    pieces = [m for r in rules for m in (r.lead, *r.tail.terms)]
    outer = random_tree(rng, order.ranked, rng.randint(2, 3))
    arity = rng.choice(pieces).arity
    same = [m for m in pieces if m.arity == arity]
    terms = {}
    for _ in range(rng.randint(2, 8)):
        slot = rng.randrange(outer.arity)
        args = [rng.choice(same) if i == slot else LEAF for i in range(outer.arity)]
        terms[og.graft(outer, args)] = rng.choice([-1, 1])
    return og.TreePolynomial(terms, outer.arity + arity - 1)


@given(seed=st.integers(0, 10**9))
@example(seed=105)  # a monomial cancels, then a later step brings it back
@settings(max_examples=60, deadline=None)
def test_worklist_matches_literal_strategy(seed, dend, dend_down, quad):
    # both deterministic schedules agree with the documented greatest-first
    # one, the traced schedule step by step, even on incomplete
    # (non-confluent) rule sets: the dendriform relations under the
    # reversed order, and random quadri rules, some sums of others
    rng = random.Random(seed)
    rules = tuple(RewriteRule.from_polynomial(r, dend_down) for r in dend.relations)
    dsyms = dend.signature.symbols
    cases = [(Reducer(rules, dend_down), random_polynomial(rng, dsyms, rng.randint(2, 5)))]
    rules, order = random_rules(seed, quad)
    reducer = Reducer(rules, order)
    cases += [(reducer, grafted_polynomial(rng, rules, order)) for _ in range(3)]
    for reducer, p in cases:
        steps, literal = greatest_first(reducer, p)
        trace = []
        assert reducer.reduce(p, trace=trace) == literal
        assert trace == steps
        assert reducer.reduce(p) == literal


def test_randomized_strategy_agrees_on_confirmed_basis(dend_basis_up, dend_up):
    rng = random.Random(41)
    reducer = Reducer(dend_basis_up.rules, dend_up)
    syms = dend_up.ranked
    for _ in range(25):
        p = random_polynomial(rng, syms, rng.randint(2, 5))
        expected = reducer.reduce(p)
        for k in range(3):
            assert reducer.reduce(p, rng=random.Random(1000 + k)) == expected
