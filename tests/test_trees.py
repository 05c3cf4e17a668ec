"""Tree monomials: paths, grafting, addressing, parsing."""

import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import operad_gsb as og
from operad_gsb import trees
from operad_gsb.trees import (
    MAX_TREE_DEPTH,
    TreeParseError,
    path_words,
    replace_at,
    subtrees,
)

from conftest import random_tree

A = og.OperationSymbol("a")
B = og.OperationSymbol("b")
C = og.OperationSymbol("c")
D = og.OperationSymbol("d")
SIG4 = og.Signature((A, B, C, D))
SYM4 = SIG4.symbols
LEAF = og.LEAF


def test_path_sequence_right_comb():
    # the worked example: a over b on the right branch
    t = og.node(A, LEAF, og.node(B, LEAF, LEAF))
    assert path_words(t) == (("a",), ("a", "b"), ("a", "b"))


def test_path_sequence_leaf_and_corolla():
    assert path_words(LEAF) == ((),)
    assert path_words(og.node(A, LEAF, LEAF)) == (("a",), ("a",))


def test_symbol_validation():
    with pytest.raises(og.TreeError):
        og.OperationSymbol("")
    with pytest.raises(og.TreeError):
        og.OperationSymbol("bad name")
    with pytest.raises(og.TreeError):
        og.OperationSymbol("f", 1)
    with pytest.raises(og.TreeError):
        og.Signature((A, og.OperationSymbol("a")))


def test_arity_and_depth():
    t = og.node(A, og.node(B, LEAF, LEAF), LEAF)
    assert t.arity == 3
    assert t.depth == 2
    assert LEAF.arity == 1 and LEAF.depth == 0


def test_depth_limit_holds_for_built_trees():
    # grafting and reduction build trees without the parser, so the
    # constructor enforces the bound the recursive helpers rely on
    t = LEAF
    for _ in range(MAX_TREE_DEPTH):
        t = og.node(A, LEAF, t)
    assert t.depth == MAX_TREE_DEPTH
    with pytest.raises(og.TreeError, match="deeper than"):
        og.node(B, t, LEAF)
    with pytest.raises(og.TreeError, match="deeper than"):
        og.graft(og.node(A, LEAF, LEAF), [LEAF, t])
    # a refused tree never enters the intern table
    assert (t, LEAF) not in trees._INTERNED[B]
    assert (LEAF, t) not in trees._INTERNED[A]


def test_pickle_and_copy_return_the_live_tree():
    deepest = LEAF
    for _ in range(MAX_TREE_DEPTH):
        deepest = og.node(A, LEAF, deepest)
    # symbols are interned like trees, so they come back as the live one too
    symbols = (A, og.OperationSymbol("f", 3))
    for t in (LEAF, og.node(B, og.node(C, LEAF, LEAF), LEAF), deepest, *symbols):
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t


@given(st.integers(0, 10**9))
def test_equal_trees_are_one_object(seed):
    rng = random.Random(seed)
    t = random_tree(rng, SYM4, rng.randint(1, 7))
    assert og.parse_tree(og.format_tree(t), SIG4) is t
    # symbols are interned too: an equal symbol is the same one
    assert all(og.OperationSymbol(s.name, s.arity) is s for s in SYM4)
    inners = [random_tree(rng, SYM4, rng.randint(1, 3)) for _ in range(t.arity)]
    built = [og.graft(t, inners)]
    built += [replace_at(t, v, inners[0]) for v, _ in subtrees(t)]
    for u in built:
        assert og.parse_tree(og.format_tree(u), SIG4) is u


def test_dropped_tree_is_released():
    sym = og.OperationSymbol("dropped")  # a label no other tree carries
    t = og.node(sym, og.node(sym, LEAF, LEAF), LEAF)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert len(trees._INTERNED[sym]) == 0


def test_graft_builds_left_comb():
    prec, succ = og.dendriform().signature.symbols
    outer = og.node(prec, LEAF, LEAF)
    got = og.graft(outer, [og.node(succ, LEAF, LEAF), LEAF])
    assert got == og.node(prec, og.node(succ, LEAF, LEAF), LEAF)


def test_graft_identities():
    rng = random.Random(7)
    t = random_tree(rng, SYM4, 5)
    assert og.graft(LEAF, [t]) == t
    assert og.graft(t, [LEAF] * t.arity) == t
    with pytest.raises(og.TreeError):
        og.graft(t, [LEAF] * (t.arity + 1))


def test_subtree_at():
    inner = og.node(B, LEAF, LEAF)
    t = og.node(A, inner, LEAF)
    assert og.subtree_at(t, ()) == t
    assert og.subtree_at(t, (0,)) == inner
    with pytest.raises(og.TreeError):
        og.subtree_at(LEAF, ())
    with pytest.raises(og.TreeError):
        og.subtree_at(t, (1,))  # a leaf, not an internal vertex
    with pytest.raises(og.TreeError):
        og.subtree_at(t, (0, 0, 0))


def test_replace_at_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        t = random_tree(rng, SYM4, rng.randint(2, 6))
        for v, _ in subtrees(t):
            assert replace_at(t, v, og.subtree_at(t, v)) == t


def test_subtrees_preorder():
    c = og.node(C, LEAF, LEAF)
    b = og.node(B, LEAF, c)
    d = og.node(D, LEAF, LEAF)
    t = og.node(A, b, d)
    assert list(subtrees(t)) == [((), t), ((0,), b), ((0, 1), c), ((1,), d)]
    assert list(subtrees(LEAF)) == []


def test_parse_examples():
    sig = og.dendriform().signature
    got = og.parse_tree("(prec (succ * *) *)", sig)
    prec, succ = sig.symbols
    assert got == og.node(prec, og.node(succ, LEAF, LEAF), LEAF)
    assert og.parse_tree("*", sig) == LEAF
    assert og.parse_tree("  ( prec *\n  * )  ", sig) == og.node(prec, LEAF, LEAF)


def test_parse_errors_carry_position():
    sig = og.dendriform().signature
    with pytest.raises(og.TreeError, match="arity-2"):
        og.parse_tree("(prec * * *)", sig)
    with pytest.raises(og.TreeError, match="unknown operation"):
        og.parse_tree("(mul * *)", sig)
    with pytest.raises(og.TreeError, match="offset"):
        og.parse_tree("(prec * ?)", sig)
    with pytest.raises(og.TreeError):
        og.parse_tree("(prec * *) *", sig)
    with pytest.raises(og.TreeError):
        og.parse_tree("", sig)


def test_truncated_input_reports_its_end():
    sig = og.dendriform().signature
    for parse, text, end in (
        (og.parse_polynomial, "(prec * *) +", 12),
        (og.parse_tree, "(prec *", 7),
        (og.parse_tree, "(prec * (succ *", 15),
        (og.parse_tree, "", 0),
    ):
        with pytest.raises(TreeParseError, match="unexpected end of input") as info:
            parse(text, sig)
        assert info.value.position == end


def test_parse_depth_limit():
    def comb(depth):
        return "(a " * depth + "*" + " *)" * depth

    deepest = og.parse_tree(comb(MAX_TREE_DEPTH), SIG4)
    # the recursive helpers cope with the deepest tree the parser accepts
    assert og.format_tree(deepest) == comb(MAX_TREE_DEPTH)
    assert len(path_words(deepest)) == deepest.arity
    assert og.graft(deepest, [LEAF] * deepest.arity) == deepest
    bottom = (0,) * (MAX_TREE_DEPTH - 1)
    assert replace_at(deepest, bottom, og.subtree_at(deepest, bottom)) == deepest
    assert [v for v, _, _ in og.occurrences(deepest, [deepest])] == [()]
    too_deep = comb(MAX_TREE_DEPTH + 1)
    with pytest.raises(TreeParseError, match="deeper than") as info:
        og.parse_tree(too_deep, SIG4)
    assert info.value.position == 3 * MAX_TREE_DEPTH


@given(st.integers(0, 10**9))
def test_parse_format_roundtrip(seed):
    rng = random.Random(seed)
    t = random_tree(rng, SYM4, rng.randint(1, 7))
    assert og.parse_tree(og.format_tree(t), SIG4) == t


def _deep_tree(rng, sides):
    """A spine of ``len(sides) + 1`` random vertices, one per level; the
    vertex at level ``k`` takes, on a random side, a random tree of
    arity ``sides[k]`` (at most 2, so the depth is the spine's)."""
    t = og.node(rng.choice(SYM4), LEAF, LEAF)
    for arity in sides:
        side = random_tree(rng, SYM4, arity)
        pair = (t, side) if rng.random() < 0.5 else (side, t)
        t = og.node(rng.choice(SYM4), *pair)
    return t


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, MAX_TREE_DEPTH), st.integers(2, 6))
def test_parse_format_roundtrip_deep(seed, depth, n_terms):
    rng = random.Random(seed)
    sides = [rng.randint(1, 2) for _ in range(depth - 1)]
    t = _deep_tree(rng, sides)
    assert t.depth == depth
    assert og.parse_tree(og.format_tree(t), SIG4) == t
    # the same side arities give every term the same arity
    p = og.TreePolynomial(
        {_deep_tree(rng, sides): Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
         for _ in range(n_terms)}
    )
    order = og.OperationOrder.from_string("c<b<d<a", SIG4)
    for text in (og.format_polynomial(p), og.format_polynomial(p, order)):
        assert og.parse_polynomial(text, SIG4) == p


def _circ(t, i, s):
    """Partial composition: plug s into leaf slot i (1-based) of t."""
    plugs = [LEAF] * t.arity
    plugs[i - 1] = s
    return og.graft(t, plugs)


@given(st.integers(0, 10**9))
def test_composition_axioms(seed):
    # sequential and parallel associativity of partial compositions
    rng = random.Random(seed)
    lam = random_tree(rng, SYM4, rng.randint(2, 4))
    mu = random_tree(rng, SYM4, rng.randint(1, 4))
    nu = random_tree(rng, SYM4, rng.randint(1, 4))
    l, m = lam.arity, mu.arity
    i = rng.randint(1, l)
    j = rng.randint(1, m)
    assert _circ(_circ(lam, i, mu), i - 1 + j, nu) == _circ(lam, i, _circ(mu, j, nu))
    if l >= 2:
        i2 = rng.randint(1, l - 1)
        j2 = rng.randint(i2 + 1, l)
        assert _circ(_circ(lam, i2, mu), j2 + m - 1, nu) == _circ(
            _circ(lam, j2, nu), i2, mu
        )


@given(st.integers(0, 10**9))
def test_arity_additivity(seed):
    rng = random.Random(seed)
    outer = random_tree(rng, SYM4, rng.randint(1, 4))
    inners = [random_tree(rng, SYM4, rng.randint(1, 4)) for _ in range(outer.arity)]
    assert og.graft(outer, inners).arity == sum(t.arity for t in inners)


@given(st.integers(0, 10**9))
def test_path_sequence_injective(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    s = random_tree(rng, SYM4, n)
    t = random_tree(rng, SYM4, n)
    if s != t:
        assert path_words(s) != path_words(t)
