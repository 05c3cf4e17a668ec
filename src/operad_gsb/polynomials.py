"""Exact linear combinations of tree monomials of a common arity.

Coefficients are rationals: a plain ``int`` while the value is integral,
a ``fractions.Fraction`` only where a division leaves a proper fraction
(so the reduction loop runs on machine integers).  Zero coefficients are
never stored, and the zero polynomial is the empty combination with its
arity still tracked.  All arithmetic is exact; there is no floating
point anywhere in this package.

Text form: a signed sum of optional rational coefficients times
S-expression monomials, e.g.::

    (prec (prec * *) *) - (prec * (prec * *)) - (prec * (succ * *))
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .ordering import OperationOrder
from .trees import (
    Signature,
    TreeError,
    TreeMonomial,
    TreeParseError,
    _parse_tree_tokens,
    _tokenize,
    format_tree,
)

__all__ = [
    "TreePolynomial",
    "parse_polynomial",
    "format_polynomial",
]


class TreePolynomial:
    """A finite map from equal-arity tree monomials to nonzero rationals,
    each an ``int`` when integral and a ``Fraction`` otherwise."""

    __slots__ = ("terms", "arity")

    terms: dict[TreeMonomial, Fraction | int]
    arity: int

    def __init__(self, terms: Mapping[TreeMonomial, Fraction | int], arity: int | None = None):
        cleaned: dict[TreeMonomial, Fraction | int] = {}
        for mono, coeff in terms.items():
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if coeff:
                cleaned[mono] = coeff
        if arity is None:
            if not cleaned:
                raise TreeError("zero polynomial needs an explicit arity")
            arity = next(iter(cleaned)).arity
        for mono in cleaned:
            if mono.arity != arity:
                raise TreeError(
                    f"mixed arities in polynomial: {mono.arity} vs {arity}"
                )
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TreePolynomial is immutable")

    def __reduce__(self):
        return TreePolynomial, (self.terms, self.arity)

    @classmethod
    def zero(cls, arity: int) -> "TreePolynomial":
        return cls({}, arity)

    @classmethod
    def monomial(cls, t: TreeMonomial, coeff: Fraction | int = 1) -> "TreePolynomial":
        return cls({t: coeff}, t.arity)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreePolynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    def __add__(self, other: "TreePolynomial") -> "TreePolynomial":
        return add(self, other)

    def __sub__(self, other: "TreePolynomial") -> "TreePolynomial":
        return add(self, scale(other, -1))

    def __neg__(self) -> "TreePolynomial":
        return scale(self, -1)

    def support(self) -> list[TreeMonomial]:
        """Monomials in a canonical (order-independent) iteration order."""
        return sorted(self.terms, key=format_tree)

    def leading_term(self, ord: OperationOrder) -> tuple[TreeMonomial, Fraction | int]:
        """Maximal monomial under path-lex with its coefficient."""
        if not self.terms:
            raise TreeError("zero polynomial has no leading term")
        lead = max(self.terms, key=ord.monomial_key)
        return lead, self.terms[lead]

    def make_monic(self, ord: OperationOrder) -> "TreePolynomial":
        """Scale so the leading coefficient becomes exactly 1."""
        _, coeff = self.leading_term(ord)
        if coeff == 1:
            return self
        # ``1 / coeff`` would be a float for an ``int`` coefficient
        return scale(self, Fraction(1) / coeff)

    def __repr__(self) -> str:
        return f"TreePolynomial<{format_polynomial(self)}>"


def add(p: TreePolynomial, q: TreePolynomial) -> TreePolynomial:
    if p.arity != q.arity:
        raise TreeError(f"arity mismatch in add: {p.arity} vs {q.arity}")
    if not p.terms:
        return q
    if not q.terms:
        return p
    terms = dict(p.terms)
    for mono, coeff in q.terms.items():
        new = terms.get(mono, 0) + coeff
        if new:
            terms[mono] = new
        else:
            terms.pop(mono, None)
    return TreePolynomial(terms, p.arity)


def scale(p: TreePolynomial, c: Fraction | int) -> TreePolynomial:
    if not c:
        return TreePolynomial.zero(p.arity)
    if c == 1:
        return p
    return TreePolynomial({m: k * c for m, k in p.terms.items()}, p.arity)


_INT_RE = re.compile(r"\d+$")


def parse_polynomial(text: str, sig: Signature) -> TreePolynomial:
    """Parse the signed-sum polynomial text form over a signature."""
    tokens = _tokenize(text)
    if not tokens:
        raise TreeParseError("empty polynomial", 0)
    terms: dict[TreeMonomial, Fraction | int] = {}
    arity: int | None = None
    i = 0
    while i < len(tokens):
        sign = 1
        tok, pos = tokens[i]
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            i += 1
        elif i > 0:
            raise TreeParseError(f"expected '+' or '-' between terms, got {tok!r}", pos)
        coeff, i = _parse_coefficient(tokens, i)
        tree, i = _parse_tree_tokens(tokens, i, sig)
        if arity is None:
            arity = tree.arity
        elif tree.arity != arity:
            raise TreeParseError(
                f"term of arity {tree.arity} in arity-{arity} polynomial", pos
            )
        value = terms.get(tree, 0) + sign * coeff
        if value:
            terms[tree] = value
        else:
            terms.pop(tree, None)
    assert arity is not None
    return TreePolynomial(terms, arity)


def _parse_coefficient(tokens, i: int) -> tuple[Fraction | int, int]:
    """The optional ``n`` or ``n/d`` at ``tokens[i]`` and the index past it;
    a ``Fraction`` only for ``n/d``."""
    if i < len(tokens) and _INT_RE.match(tokens[i][0]):
        num = int(tokens[i][0])
        i += 1
        if i + 1 < len(tokens) and tokens[i][0] == "/" and _INT_RE.match(tokens[i + 1][0]):
            den = int(tokens[i + 1][0])
            if den == 0:
                raise TreeParseError("zero denominator", tokens[i + 1][1])
            return Fraction(num, den), i + 2
        return num, i
    return 1, i


def format_polynomial(p: TreePolynomial, ord: OperationOrder | None = None) -> str:
    """Render a polynomial, leading term first when an order is given."""
    if not p.terms:
        return "0"
    if ord is not None:
        monos = sorted(p.terms, key=ord.monomial_key, reverse=True)
    else:
        monos = p.support()
    parts: list[str] = []
    for i, mono in enumerate(monos):
        coeff = p.terms[mono]
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = format_tree(mono) if mag == 1 else f"{mag} {format_tree(mono)}"
        if i == 0:
            parts.append(body if sign == "+" else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
