"""Normal-monomial counting, reference formulas, dimension oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import operad_gsb as og
from operad_gsb import enumeration
from operad_gsb.enumeration import all_tree_monomials, count_tree_monomials

from conftest import random_rules

LEAF = og.LEAF


def L(x, y):
    return og.node(x, og.node(y, LEAF, LEAF), LEAF)


def test_catalan():
    assert [og.catalan(n) for n in range(1, 9)] == [1, 2, 5, 14, 42, 132, 429, 1430]
    with pytest.raises(og.TreeError):
        og.catalan(0)


def test_quadri_dim():
    assert [og.quadri_dim(n) for n in range(1, 7)] == [1, 4, 23, 156, 1162, 9192]
    with pytest.raises(og.TreeError):
        og.quadri_dim(0)


def test_all_tree_monomials_counts(dend, quad):
    for sig, k in ((dend.signature, 2), (quad.signature, 4)):
        for n in range(1, 6):
            expected = og.catalan(n - 1) * k ** (n - 1) if n > 1 else 1
            assert len(all_tree_monomials(sig, n)) == expected
            assert count_tree_monomials(sig, n) == expected


def test_enumerate_normal_examples(dend, dend_up, dend_basis_up, quad_basis_cbda):
    prec, succ = dend.signature.symbols
    got = og.enumerate_normal(dend_basis_up, 3)
    assert len(got) == 5
    # all four right combs plus the one allowed left growth
    right_combs = {
        og.node(x, LEAF, og.node(y, LEAF, LEAF))
        for x in (prec, succ)
        for y in (prec, succ)
    }
    assert set(got) == right_combs | {L(succ, prec)}
    assert og.enumerate_normal(dend_basis_up, 1) == [LEAF]
    corollas = og.enumerate_normal(quad_basis_cbda, 2)
    assert len(corollas) == 4 and all(t.depth == 1 for t in corollas)


def test_count_normal_dendriform(dend_basis_up, dend_basis_down):
    for basis in (dend_basis_up, dend_basis_down):
        assert [og.count_normal(basis, n) for n in range(1, 7)] == [
            og.catalan(n) for n in range(1, 7)
        ]


def test_count_normal_quadri(quad_basis_cbda, quad_basis_cdba):
    for basis in (quad_basis_cbda, quad_basis_cdba):
        assert [og.count_normal(basis, n) for n in range(1, 6)] == [
            og.quadri_dim(n) for n in range(1, 6)
        ]


def test_enumeration_guard(dend_basis_down, monkeypatch):
    # listing the normal monomials of arity 5 filters all
    # 2**4 * catalan(4) = 224 dendriform trees, over the lowered guard;
    # counting them lists no tree at all
    monkeypatch.setattr(enumeration, "ORACLE_GUARD", 100)
    with pytest.raises(og.TreeError, match="enumeration guard exceeded: 224 monomials at arity 5"):
        og.enumerate_normal(dend_basis_down, 5)
    assert og.count_normal(dend_basis_down, 5) == og.catalan(5)


@pytest.fixture(scope="module")
def quad_basis_abdc(quad):
    order = og.OperationOrder.from_string("a<b<d<c", quad.signature)
    basis, report = og.complete(quad.relations, order)
    assert report.status == "iteration_cap"
    return basis


def test_count_matches_enumeration(dend_basis_down, quad_basis_cbda, quad_basis_abdc):
    # one cubic lead; quadratic leads only; an iteration-capped basis with
    # leads of arity 3 to 6
    for basis, n_max in ((dend_basis_down, 6), (quad_basis_cbda, 6), (quad_basis_abdc, 5)):
        for n in range(1, n_max + 1):
            assert og.count_normal(basis, n) == len(og.enumerate_normal(basis, n))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_count_matches_enumeration_on_random_leads(seed, quad):
    rules, order = random_rules(seed, quad)
    basis = og.GSBasis(tuple(rules), order)
    for n in range(1, 6):
        assert og.count_normal(basis, n) == len(og.enumerate_normal(basis, n))


def test_dimension_oracle(dend, quad):
    assert og.dimension_by_linear_algebra(dend, 3) == 5
    assert og.dimension_by_linear_algebra(quad, 3) == 23
    assert og.dimension_by_linear_algebra(dend, 2) == 2
    assert og.dimension_by_linear_algebra(quad, 2) == 4
    assert og.dimension_by_linear_algebra(dend, 1) == 1


def test_dimension_oracle_guard(quad):
    with pytest.raises(og.TreeError, match="guard"):
        og.dimension_by_linear_algebra(quad, 12)


def test_dimension_oracle_rejects_arity_zero(dend):
    with pytest.raises(og.TreeError):
        og.dimension_by_linear_algebra(dend, 0)


def _normalize_row(row):
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def _fraction_free_rank(rows):
    """Rank over Q of sparse integer rows, never leaving the integers."""
    pivots = {}
    for row in rows:
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = _normalize_row(row)
                break
            a, b = row[col], piv[col]
            new = {k: v * b for k, v in row.items()}
            for k, v in piv.items():
                w = new.get(k, 0) - v * a
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            row = _normalize_row(new)
    return len(pivots)


def reference_dimension(pres, n):
    """The flat construction: the number of arity-``n`` trees minus the rank
    of every relation grafted into every context, slot and binding."""
    sig = pres.signature
    trees = all_tree_monomials(sig, n)
    index = {t: i for i, t in enumerate(trees)}
    rows = []
    for rel in pres.relations:
        m = rel.arity
        if m > n:
            continue
        scale = math.lcm(*(Fraction(c).denominator for c in rel.terms.values()))
        terms = [(mono, int(c * scale)) for mono, c in rel.terms.items()]
        for h in range(1, n - m + 2):
            s = n - h + 1
            for cuts in itertools.combinations(range(1, s), m - 1):
                parts = [b - a for a, b in zip((0,) + cuts, cuts + (s,))]
                for bindings in itertools.product(
                    *(all_tree_monomials(sig, p) for p in parts)
                ):
                    for context in all_tree_monomials(sig, h):
                        for slot in range(h):
                            row = {}
                            for mono, coeff in terms:
                                plugs = [LEAF] * h
                                plugs[slot] = og.graft(mono, bindings)
                                col = index[og.graft(context, plugs)]
                                row[col] = row.get(col, 0) + coeff
                            row = {k: v for k, v in row.items() if v}
                            if row:
                                rows.append(row)
    return len(trees) - _fraction_free_rank(rows)


def _random_tree(rng, symbols, arity):
    if arity == 1:
        return LEAF
    sym = rng.choice([s for s in symbols if s.arity <= arity])
    cuts = sorted(rng.sample(range(1, arity), sym.arity - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [arity])]
    return og.TreeMonomial(sym, [_random_tree(rng, symbols, p) for p in parts])


def random_presentation(seed):
    """1-3 operations, the last of two or three possibly ternary, with 1-3
    relations of arity 3-5 whose coefficients include non-units and 1/2."""
    rng = random.Random(seed)
    arities = [2] * rng.randint(1, 3)
    # a binary operation stays, so that a tree of every arity exists
    if len(arities) > 1 and rng.random() < 0.5:
        arities[-1] = 3
    symbols = tuple(og.OperationSymbol(f"o{i}", k) for i, k in enumerate(arities))
    count = rng.randint(1, 3)
    relations = []
    while len(relations) < count:
        arity = rng.randint(3, 5)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[_random_tree(rng, symbols, arity)] = rng.choice(
                [1, -1, 2, -2, 3, -3, Fraction(1, 2)]
            )
        rel = og.TreePolynomial(terms, arity)
        if rel:
            relations.append(rel)
    return og.Presentation(og.Signature(symbols), tuple(relations), "random")


def test_reference_dimension_on_presets(dend, quad):
    assert [reference_dimension(dend, n) for n in range(1, 6)] == [
        og.catalan(n) for n in range(1, 6)
    ]
    assert [reference_dimension(quad, n) for n in range(1, 5)] == [
        og.quadri_dim(n) for n in range(1, 5)
    ]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_oracle_matches_flat_construction(seed):
    pres = random_presentation(seed)
    for n in range(1, 6):
        assert og.dimension_by_linear_algebra(pres, n) == reference_dimension(pres, n)


def test_oracle_agrees_with_counts(dend, quad, dend_basis_up, quad_basis_cbda):
    for n in range(1, 5):
        assert og.dimension_by_linear_algebra(dend, n) == og.count_normal(
            dend_basis_up, n
        )
        assert og.dimension_by_linear_algebra(quad, n) == og.count_normal(
            quad_basis_cbda, n
        )


def _left_growth_pairs(t):
    """(parent label, left-child label) pairs over all internal vertices."""
    out = []
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur.is_leaf:
            continue
        left = cur.children[0]
        if not left.is_leaf:
            out.append((cur.label.name, left.label.name))
        stack.extend(cur.children)
    return out


def _has_triple_left_chain(t, name):
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur.is_leaf:
            continue
        a = cur
        b = a.children[0]
        c = b.children[0] if not b.is_leaf else og.LEAF
        if (
            not b.is_leaf
            and not c.is_leaf
            and a.label.name == b.label.name == c.label.name == name
        ):
            return True
        stack.extend(cur.children)
    return False


def test_normal_form_characterizations(
    dend_basis_up, dend_basis_down, quad_basis_cbda
):
    # two-operation basis, ascending order: the only permitted growth to
    # the left is a succ vertex over a prec vertex
    for n in range(2, 6):
        for t in og.enumerate_normal(dend_basis_up, n):
            assert set(_left_growth_pairs(t)) <= {("succ", "prec")}
    # descending order: only succ over succ, and never three in a row
    for n in range(2, 7):
        for t in og.enumerate_normal(dend_basis_down, n):
            assert set(_left_growth_pairs(t)) <= {("succ", "succ")}
            assert not _has_triple_left_chain(t, "succ")
    # quadri: nine of the sixteen left growths are forbidden
    forbidden = {
        ("c", "c"), ("c", "b"), ("c", "d"), ("c", "a"),
        ("b", "b"), ("b", "a"), ("d", "d"), ("d", "a"), ("a", "a"),
    }
    for n in range(2, 5):
        for t in og.enumerate_normal(quad_basis_cbda, n):
            assert not (set(_left_growth_pairs(t)) & forbidden)
    # and the characterizations are exact: every tree passing the filter
    # is normal
    for n in range(2, 5):
        for t in all_tree_monomials(quad_basis_cbda.order.signature, n):
            passes = not (set(_left_growth_pairs(t)) & forbidden)
            assert passes == og.is_normal_monomial(t, quad_basis_cbda.leads)


def test_nonbinary_enumeration_rejected(dend_basis_up):
    tern = og.OperationSymbol("tern", 3)
    order = og.OperationOrder((tern,))
    basis = og.GSBasis((), order)
    with pytest.raises(og.TreeError, match="binary"):
        og.enumerate_normal(basis, 3)
    with pytest.raises(og.TreeError, match="binary"):
        og.count_normal(basis, 3)
