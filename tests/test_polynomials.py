"""Tree polynomials: exact arithmetic, leading terms, text form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import operad_gsb as og
from operad_gsb.polynomials import add, scale

from conftest import random_polynomial, random_tree

LEAF = og.LEAF


def L(x, y):
    return og.node(x, og.node(y, LEAF, LEAF), LEAF)


def R(x, y):
    return og.node(x, LEAF, og.node(y, LEAF, LEAF))


def test_add_and_scale(dend, dend_up):
    d1, d2, d3 = dend.relations
    assert add(d2, scale(d2, -1)).is_zero
    assert add(og.TreePolynomial.zero(3), d1) == d1
    prec, succ = dend.signature.symbols
    # cancel one tail term of the second relation
    got = add(d2, og.TreePolynomial.monomial(R(prec, succ)))
    assert got == og.TreePolynomial({L(prec, prec): 1, R(prec, prec): -1})
    with pytest.raises(og.TreeError):
        add(d1, og.TreePolynomial.zero(4))


def test_leading_term(dend, dend_up, quad, quad_cbda):
    prec, succ = dend.signature.symbols
    d3 = dend.relations[2]
    assert d3.leading_term(dend_up) == (L(succ, succ), Fraction(-1))
    t = random_tree(random.Random(3), dend.signature.symbols, 4)
    assert og.TreePolynomial.monomial(t).leading_term(dend_up) == (t, Fraction(1))
    a, b, c, d = quad.signature.symbols
    q6 = quad.relations[5]
    assert q6.leading_term(quad_cbda) == (L(d, a), Fraction(1))
    with pytest.raises(og.TreeError):
        og.TreePolynomial.zero(3).leading_term(dend_up)


def test_make_monic(dend, dend_up):
    prec, succ = dend.signature.symbols
    d3 = dend.relations[2]
    monic = d3.make_monic(dend_up)
    assert monic == og.TreePolynomial(
        {L(succ, succ): 1, L(succ, prec): 1, R(succ, succ): -1}
    )
    assert monic.make_monic(dend_up) == monic
    assert scale(d3, Fraction(7, 3)).make_monic(dend_up) == monic
    assert monic.leading_term(dend_up)[1] == 1


@given(seed=st.integers(0, 10**9))
def test_leading_of_sum_bounded(seed, dend, dend_up):
    rng = random.Random(seed)
    syms = dend.signature.symbols
    n = rng.randint(2, 5)
    p = random_polynomial(rng, syms, n)
    q = random_polynomial(rng, syms, n)
    s = add(p, q)
    if s.is_zero:
        return
    key = dend_up.monomial_key
    bound = max(key(p.leading_monomial(dend_up)), key(q.leading_monomial(dend_up)))
    assert key(s.leading_monomial(dend_up)) <= bound


def test_parse_polynomial(dend):
    sig = dend.signature
    p = og.parse_polynomial(
        "(prec (prec * *) *) - (prec * (prec * *)) - (prec * (succ * *))", sig
    )
    assert p == dend.relations[1]
    q = og.parse_polynomial("2/3 (prec * *) + (succ * *) - 2 (prec * *)", sig)
    prec, succ = sig.symbols
    assert q == og.TreePolynomial(
        {og.node(prec, LEAF, LEAF): Fraction(-4, 3), og.node(succ, LEAF, LEAF): 1}
    )
    z = og.parse_polynomial("(prec * *) - (prec * *)", sig)
    assert z.is_zero and z.arity == 2
    with pytest.raises(og.TreeError):
        og.parse_polynomial("(prec * *) (succ * *)", sig)
    with pytest.raises(og.TreeError):
        og.parse_polynomial("(prec * *) + (prec (prec * *) *)", sig)
    with pytest.raises(og.TreeError):
        og.parse_polynomial("", sig)


def test_format_leading_first(dend, dend_up):
    d3 = dend.relations[2].make_monic(dend_up)
    text = og.format_polynomial(d3, dend_up)
    assert text.startswith("(succ (succ * *) *)")
    assert og.parse_polynomial(text, dend.signature) == d3
    assert og.format_polynomial(og.TreePolynomial.zero(3)) == "0"


@given(seed=st.integers(0, 10**9))
def test_text_roundtrip(seed, quad, quad_cbda):
    rng = random.Random(seed)
    p = random_polynomial(rng, quad.signature.symbols, rng.randint(1, 4))
    for text in (og.format_polynomial(p), og.format_polynomial(p, quad_cbda)):
        assert og.parse_polynomial(text, quad.signature) == p


def test_text_roundtrip_long(quad, quad_cbda):
    # a few hundred arity-10 terms with integer and fractional coefficients
    rng = random.Random(7)
    terms = {}
    while len(terms) < 300:
        coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 7]))
        terms[random_tree(rng, quad.signature.symbols, 10)] = coeff
    p = og.TreePolynomial(terms, 10)
    for text in (og.format_polynomial(p), og.format_polynomial(p, quad_cbda)):
        assert og.parse_polynomial(text, quad.signature) == p


def test_no_zero_coefficients_stored(quad):
    a = quad.signature.symbols[0]
    p = og.TreePolynomial({og.node(a, LEAF, LEAF): Fraction(0)}, 2)
    assert p.is_zero and not p.terms
    with pytest.raises(og.TreeError):
        og.TreePolynomial({})  # zero needs explicit arity
