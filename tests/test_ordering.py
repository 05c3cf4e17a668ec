"""Path-lexicographic order: symbol ranks, monomial keys, comparison, maxima."""

import random

import pytest
from hypothesis import given, strategies as st

import operad_gsb as og
from operad_gsb.ordering import EQ, GT, LT

from conftest import random_tree

A, B, C, D = (og.OperationSymbol(n) for n in "abcd")
SIG4 = og.Signature((A, B, C, D))
SYM4 = SIG4.symbols
LEAF = og.LEAF


def L(x, y):
    return og.node(x, og.node(y, LEAF, LEAF), LEAF)


def R(x, y):
    return og.node(x, LEAF, og.node(y, LEAF, LEAF))


@pytest.fixture(scope="module")
def dorder(dend):
    return og.OperationOrder.from_string("prec<succ", dend.signature)


def test_key_right_comb():
    # the worked example: a over b on the right branch, under a<b
    o = og.OperationOrder((A, B))
    t = og.node(A, LEAF, og.node(B, LEAF, LEAF))
    assert o.monomial_key(t) == (3, ((1, (0,)), (2, (0, 1)), (2, (0, 1))))


def test_key_leaf_and_corolla():
    o = og.OperationOrder((A, B))
    assert o.monomial_key(LEAF) == (1, ((0, ()),))
    assert o.monomial_key(og.node(B, LEAF, LEAF)) == (2, ((1, (1,)), (1, (1,))))


@given(st.integers(0, 10**9))
def test_key_injective(seed):
    rng = random.Random(seed)
    o = og.OperationOrder(SYM4)
    n = rng.randint(2, 6)
    s = random_tree(rng, SYM4, n)
    t = random_tree(rng, SYM4, n)
    if s != t:
        assert o.monomial_key(s) != o.monomial_key(t)


@given(st.integers(0, 10**9))
def test_key_matches_words_spelled_in_names(seed):
    # the key as it was computed from name words, rebuilt here, so that
    # ranking symbols instead of names changes no key
    rng = random.Random(seed)
    o = og.OperationOrder(tuple(rng.sample(SYM4, 4)))
    t = random_tree(rng, SYM4, rng.randint(1, 8))

    def name_words(t):
        if t.is_leaf:
            return ((),)
        return tuple((t.label.name,) + w for c in t.children for w in name_words(c))

    rank = {s.name: i for i, s in enumerate(o.ranked)}
    words = [tuple(rank[name] for name in w) for w in name_words(t)]
    assert o.monomial_key(t) == (t.arity, tuple((len(w), w) for w in words))


def test_compare_words(dend, dorder):
    prec, succ = dend.signature.symbols
    key = dorder.monomial_key
    # degree first: the longer first word wins
    assert key(L(succ, succ)) > key(R(succ, succ))
    assert key(L(succ, succ))[1][0] == (2, (1, 1))
    assert key(R(succ, succ))[1][0] == (1, (1,))
    # equal length: left to right by symbol rank
    assert key(L(succ, prec))[1][0] == (2, (1, 0))
    assert key(L(succ, prec)) < key(L(succ, succ))
    with pytest.raises(og.TreeError, match="operation mul/2 is not ranked"):
        key(og.node(og.OperationSymbol("mul"), LEAF, LEAF))


def test_unranked_arity_is_refused():
    # an operation that shares a name but not an arity with a ranked one
    f2, f3 = og.OperationSymbol("f", 2), og.OperationSymbol("f", 3)
    o = og.OperationOrder((f2,))
    x = og.node(f3, og.node(f3, LEAF, LEAF, LEAF), LEAF, LEAF)
    y = og.node(f3, LEAF, og.node(f3, LEAF, LEAF, LEAF), LEAF)
    p = og.TreePolynomial({x: 1, y: -1})
    unranked = "operation f/3 is not ranked"
    with pytest.raises(og.TreeError, match=unranked):
        o.rank(f3)
    with pytest.raises(og.TreeError, match=unranked):
        o.monomial_key(x)
    with pytest.raises(og.TreeError, match=unranked):
        og.compare_monomials(x, y, o)
    with pytest.raises(og.TreeError, match=unranked):
        og.RewriteRule.from_polynomial(p, o)
    with pytest.raises(og.TreeError, match=unranked):
        og.format_polynomial(p, o)
    # two symbols of one name cannot both be ranked
    with pytest.raises(og.TreeError):
        og.OperationOrder((f2, f3))


def test_compare_monomials_known_leads(dend, dorder):
    prec, succ = dend.signature.symbols
    # the first dendriform relation orients left comb over right comb
    assert og.compare_monomials(L(prec, succ), R(succ, prec), dorder) == GT
    # arity dominates everything
    assert og.compare_monomials(og.node(succ, LEAF, LEAF), L(prec, prec), dorder) == LT
    # within-left-comb tie broken by the second path letter
    o = og.OperationOrder.from_string("c<b<d<a", SIG4)
    assert og.compare_monomials(L(D, D), L(D, C), o) == GT
    assert og.compare_monomials(L(D, D), L(D, D), o) == EQ


def test_leading_monomial_of_set():
    o = og.OperationOrder.from_string("c<b<d<a", SIG4)

    def lead(monos):
        return og.TreePolynomial(dict.fromkeys(monos, 1)).leading_term(o)[0]

    # the quadri leads under c<b<d<a
    assert lead([L(B, B), L(B, C), R(B, B), R(B, A)]) == L(B, B)
    assert lead([L(A, A), L(A, B), L(A, C), L(A, D), R(A, A)]) == L(A, A)
    t = L(C, C)
    assert lead([t]) == t
    with pytest.raises(og.TreeError):
        og.TreePolynomial.zero(3).leading_term(o)[0]
    with pytest.raises(og.TreeError):
        og.TreePolynomial({t: 1, LEAF: 1})


def test_order_string_validation():
    with pytest.raises(og.TreeError):
        og.OperationOrder.from_string("a<b<c", SIG4)  # unranked d
    with pytest.raises(og.TreeError):
        og.OperationOrder.from_string("a<b<c<d<a", SIG4)
    with pytest.raises(og.TreeError):
        og.OperationOrder.from_string("a<b<c<e", SIG4)
    o = og.OperationOrder.from_string(" d < c < b < a ", SIG4)
    assert o.as_string() == "d<c<b<a"


def test_left_comb_dominance_exhaustive():
    # a left comb beats every right comb no matter the symbol order
    for order_text in ("a<b<c<d", "d<c<b<a", "b<d<a<c"):
        o = og.OperationOrder.from_string(order_text, SIG4)
        for x in SYM4:
            for y in SYM4:
                for u in SYM4:
                    for v in SYM4:
                        assert og.compare_monomials(L(x, y), R(u, v), o) == GT


@given(st.integers(0, 10**9))
def test_total_order_axioms(seed):
    rng = random.Random(seed)
    o = og.OperationOrder(tuple(rng.sample(SYM4, 4)))
    n = rng.randint(1, 6)
    s, t, u = (random_tree(rng, SYM4, n) for _ in range(3))
    # totality and antisymmetry
    assert (og.compare_monomials(s, t, o) == EQ) == (s == t)
    assert og.compare_monomials(s, t, o) == -og.compare_monomials(t, s, o)
    # transitivity via key consistency
    if og.compare_monomials(s, t, o) <= 0 and og.compare_monomials(t, u, o) <= 0:
        assert og.compare_monomials(s, u, o) <= 0


@given(st.integers(0, 10**9))
def test_grafting_compatibility(seed):
    rng = random.Random(seed)
    o = og.OperationOrder(tuple(rng.sample(SYM4, 4)))
    n = rng.randint(1, 5)
    s = random_tree(rng, SYM4, n)
    t = random_tree(rng, SYM4, n)
    if s == t:
        return
    if og.compare_monomials(s, t, o) == GT:
        s, t = t, s
    # inner substitution: plug both into the same slot of a random context
    outer = random_tree(rng, SYM4, rng.randint(2, 4))
    slot = rng.randint(0, outer.arity - 1)
    plugs_s = [random_tree(rng, SYM4, rng.randint(1, 3)) for _ in range(outer.arity)]
    plugs_t = list(plugs_s)
    plugs_s[slot] = s
    plugs_t[slot] = t
    assert og.compare_monomials(og.graft(outer, plugs_s), og.graft(outer, plugs_t), o) == LT
    # outer wrapping: graft the same tuple of arguments into s and t
    args = [random_tree(rng, SYM4, rng.randint(1, 3)) for _ in range(n)]
    assert og.compare_monomials(og.graft(s, args), og.graft(t, args), o) == LT
