"""Normal-monomial enumeration, reference dimension formulas, and an
independent linear-algebra dimension oracle.

For a confirmed basis the monomials free of leading terms form a linear
basis of the quotient, so three independent counts must agree: direct
enumeration, the transfer recurrence, and the codimension of the span of
all relation embeddings computed by exact Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from typing import Iterable

from .completion import GSBasis
from .polynomials import TreePolynomial
from .presets import Presentation
from .rewriting import PatternIndex, is_normal_monomial
from .trees import LEAF, Signature, TreeError, TreeMonomial, graft

__all__ = [
    "DimensionReport",
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


def enumerate_normal(basis: GSBasis, n: int) -> list[TreeMonomial]:
    """All arity-``n`` monomials containing no basis lead, sorted ascending
    under the basis order."""
    sig = basis.order.signature
    _require_binary(sig)
    leads = PatternIndex(basis.leads)
    normal = [
        t for t in all_tree_monomials(sig, n) if is_normal_monomial(t, leads)
    ]
    normal.sort(key=basis.order.monomial_key)
    return normal


def _quadratic_forbidden_pairs(basis: GSBasis) -> set[tuple[str, str]] | None:
    """The (root, left-child) label pairs when every lead is an arity-3
    left comb; None when some lead has another shape."""
    pairs = set()
    for lead in basis.leads:
        if lead.arity != 3 or lead.is_leaf:
            return None
        left, right = lead.children
        if left.is_leaf or not right.is_leaf or not all(c.is_leaf for c in left.children):
            return None
        pairs.add((lead.label.name, left.label.name))
    return pairs


def count_normal(basis: GSBasis, n: int) -> int:
    """Number of normal monomials of arity ``n``.

    Quadratic left-comb bases use a transfer recurrence over the root
    label (growth to the right is free, growth to the left is filtered by
    the allowed label pairs); anything else falls back to enumeration.
    """
    sig = basis.order.signature
    _require_binary(sig)
    if n < 1:
        raise TreeError(f"arity must be >= 1, got {n}")
    if n == 1:
        return 1
    forbidden = _quadratic_forbidden_pairs(basis)
    if forbidden is None:
        return len(enumerate_normal(basis, n))
    names = [s.name for s in sig.symbols]
    # by_root[m][r]: normal trees of arity m with root label r
    by_root: list[dict[str, int] | None] = [None, {}]
    totals = [0, 1]
    for m in range(2, n + 1):
        row: dict[str, int] = {}
        for r in names:
            acc = 0
            for i in range(1, m):
                if i == 1:
                    left = 1
                else:
                    left = sum(
                        cnt
                        for s, cnt in by_root[i].items()
                        if (r, s) not in forbidden
                    )
                acc += left * totals[m - i]
            row[r] = acc
        by_root.append(row)
        totals.append(sum(row.values()))
    return totals[n]


def dimension_by_linear_algebra(pres: Presentation, n: int) -> int:
    """Arity-``n`` dimension of the quotient: monomial count minus the
    rank of the span of all relation embeddings, over the rationals.

    Independent of the rewriting machinery: plain exact Gaussian
    elimination on the embedded relation vectors.
    """
    sig = pres.signature
    total_monomials = count_tree_monomials(sig, n)
    if total_monomials > ORACLE_GUARD:
        raise TreeError(
            f"oracle guard exceeded: {total_monomials} monomials at arity {n}"
        )
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


@dataclass(frozen=True)
class DimensionReport:
    """One arity's worth of agreeing (or disagreeing) dimension counts."""

    arity: int
    normal_count: int
    formula_value: int | None = None
    oracle_value: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "arity": self.arity,
            "normal_count": self.normal_count,
            "formula_value": self.formula_value,
            "oracle_value": self.oracle_value,
        }

    def text_row(self) -> str:
        formula = "-" if self.formula_value is None else str(self.formula_value)
        oracle = "-" if self.oracle_value is None else str(self.oracle_value)
        return (
            f"{self.arity:>5}  {self.normal_count:>12}  "
            f"{formula:>12}  {oracle:>12}"
        )


DIMENSION_TABLE_HEADER = (
    f"{'arity':>5}  {'normal':>12}  {'formula':>12}  {'oracle':>12}"
)
