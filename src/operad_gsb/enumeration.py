"""Normal-monomial enumeration, reference dimension formulas, and an
independent linear-algebra dimension oracle.

For a confirmed basis the monomials free of leading terms form a linear
basis of the quotient, so three independent counts must agree: direct
filtering of every tree of the arity, a recurrence over the root states
of a tree automaton built from the lead subtrees, and the codimension of
the span of all relation embeddings computed by exact Gaussian
elimination.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd
from typing import Iterable

from .completion import GSBasis
from .polynomials import TreePolynomial
from .presets import Presentation
from .rewriting import is_normal_monomial
from .trees import LEAF, Signature, TreeError, TreeMonomial, graft, subtrees

__all__ = [
    "catalan",
    "quadri_dim",
    "all_tree_monomials",
    "count_tree_monomials",
    "enumerate_normal",
    "count_normal",
    "dimension_by_linear_algebra",
]

ORACLE_GUARD = 10**6


def catalan(n: int) -> int:
    """(2n)! / (n! (n+1)!) for n >= 1."""
    if n < 1:
        raise TreeError(f"catalan is defined for n >= 1, got {n}")
    return comb(2 * n, n) // (n + 1)


def quadri_dim(n: int) -> int:
    """Multilinear dimension of the free quadri-algebra in degree n.

    Evaluates (1/n) * sum_{j=n}^{2n-1} C(3n, n+1+j) * C(j-1, j-n); also
    the number of non-crossing connected graphs on n+1 vertices.
    """
    if n < 1:
        raise TreeError(f"quadri_dim is defined for n >= 1, got {n}")
    total = sum(comb(3 * n, n + 1 + j) * comb(j - 1, j - n) for j in range(n, 2 * n))
    assert total % n == 0
    return total // n


@lru_cache(maxsize=None)
def all_tree_monomials(sig: Signature, n: int) -> tuple[TreeMonomial, ...]:
    """Every tree monomial of arity ``n`` over ``sig``, canonically ordered
    (by symbol order, then child arities, then children recursively)."""
    if n < 1:
        raise TreeError(f"arity must be >= 1, got {n}")
    if n == 1:
        return (LEAF,)
    out: list[TreeMonomial] = []
    for sym in sig.symbols:
        for parts in _compositions(n, sym.arity):
            for children in _products(sig, parts):
                out.append(TreeMonomial(sym, children))
    return tuple(out)


def _compositions(total: int, k: int) -> Iterable[tuple[int, ...]]:
    if k == 1:
        yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _products(sig: Signature, parts: tuple[int, ...]) -> Iterable[tuple[TreeMonomial, ...]]:
    if not parts:
        yield ()
        return
    for head in all_tree_monomials(sig, parts[0]):
        for tail in _products(sig, parts[1:]):
            yield (head,) + tail


@lru_cache(maxsize=None)
def count_tree_monomials(sig: Signature, n: int) -> int:
    if n == 1:
        return 1
    total = 0
    for sym in sig.symbols:
        for parts in _compositions(n, sym.arity):
            prod = 1
            for p in parts:
                prod *= count_tree_monomials(sig, p)
            total += prod
    return total


def _require_binary(sig: Signature) -> None:
    if not sig.is_binary:
        raise TreeError("normal-form enumeration supports binary signatures only")


def _guard(sig: Signature, n: int, what: str) -> int:
    """The number of arity-``n`` monomials, refused above ``ORACLE_GUARD``."""
    total = count_tree_monomials(sig, n)
    if total > ORACLE_GUARD:
        raise TreeError(f"{what} guard exceeded: {total} monomials at arity {n}")
    return total


def enumerate_normal(basis: GSBasis, n: int) -> list[TreeMonomial]:
    """All arity-``n`` monomials containing no basis lead, sorted ascending
    under the basis order.  Like the rank oracle, it refuses to list more
    than ``ORACLE_GUARD`` monomials."""
    sig = basis.order.signature
    _require_binary(sig)
    _guard(sig, n, "enumeration")
    leads = basis.leads
    normal = [
        t for t in all_tree_monomials(sig, n) if is_normal_monomial(t, leads)
    ]
    normal.sort(key=basis.order.monomial_key)
    return normal


def count_normal(basis: GSBasis, n: int) -> int:
    """Number of normal monomials of arity ``n``, by a bottom-up tree
    automaton whose patterns are the internal subtrees of the leads.

    A tree's state is the set of patterns that match at its root: ``p``
    matches ``(f l r)`` when ``p.label is f`` and each child of ``p`` is
    a leaf or lies in the state of the matching child of the tree.  A
    tree is normal when its children are normal and its state holds no
    lead, so the normal trees of each arity are counted by root state,
    from the single leaf (empty state) up.
    """
    sig = basis.order.signature
    _require_binary(sig)
    if n < 1:
        raise TreeError(f"arity must be >= 1, got {n}")
    leads = frozenset(basis.leads)
    # root label -> the internal subtrees of the leads with that label
    patterns = {s: set() for s in sig.symbols}
    for lead in leads:
        for _, p in subtrees(lead):
            patterns[p.label].add(p)
    # count[m][state]: normal trees of arity m whose root state is state
    count: list[dict[frozenset, int]] = [{}, {frozenset(): 1}]
    for m in range(2, n + 1):
        row: dict[frozenset, int] = {}
        for pats in patterns.values():
            for i in range(1, m):
                for left, a in count[i].items():
                    for right, b in count[m - i].items():
                        state = frozenset(
                            p for p in pats
                            if (p.children[0].is_leaf or p.children[0] in left)
                            and (p.children[1].is_leaf or p.children[1] in right)
                        )
                        if state.isdisjoint(leads):
                            row[state] = row.get(state, 0) + a * b
        count.append(row)
    return sum(count[n].values())


def dimension_by_linear_algebra(pres: Presentation, n: int) -> int:
    """Arity-``n`` dimension of the quotient: monomial count minus the
    rank of the span of all relation embeddings, over the rationals.

    Independent of the rewriting machinery: plain exact Gaussian
    elimination on the embedded relation vectors.
    """
    sig = pres.signature
    total_monomials = _guard(sig, n, "oracle")
    index = {t: i for i, t in enumerate(all_tree_monomials(sig, n))}
    rows: list[dict[int, int]] = []
    for rel in pres.relations:
        m = rel.arity
        if m > n:
            continue
        scaled = _integer_terms(rel)
        for h in range(1, n - m + 2):
            s = n - h + 1
            for context in all_tree_monomials(sig, h):
                for slot in range(h):
                    for parts in _compositions(s, m):
                        for bindings in _products(sig, parts):
                            row: dict[int, int] = {}
                            for mono, coeff in scaled:
                                inner = graft(mono, bindings)
                                plugs = [LEAF] * h
                                plugs[slot] = inner
                                image = graft(context, plugs)
                                col = index[image]
                                val = row.get(col, 0) + coeff
                                if val:
                                    row[col] = val
                                else:
                                    row.pop(col, None)
                            if row:
                                rows.append(row)
    return total_monomials - _integer_rank(rows)


def _integer_terms(p: TreePolynomial) -> list[tuple[TreeMonomial, int]]:
    denom = 1
    for coeff in p.terms.values():
        denom = denom * coeff.denominator // gcd(denom, coeff.denominator)
    return [(mono, int(coeff * denom)) for mono, coeff in sorted(
        p.terms.items(), key=lambda kv: str(kv[0])
    )]


def _normalize_row(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def _integer_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows (fraction-free elimination)."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = _normalize_row(row)
                rank += 1
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
    return rank
