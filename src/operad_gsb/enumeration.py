"""Normal-monomial enumeration, reference dimension formulas, and an
independent linear-algebra dimension oracle.

For a confirmed basis the monomials free of leading terms form a linear
basis of the quotient, so three independent counts must agree: direct
filtering of every tree of the arity, a recurrence over the root states
of a tree automaton built from the lead subtrees, and the dimension of
the quotient operad built arity by arity from the presentation alone,
each arity a sum of tensor products of the lower ones divided by the
relations at the root, by exact Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb
from typing import Iterable, Iterator

from .completion import GSBasis
from .presets import Presentation
from .rewriting import is_normal_monomial
from .trees import (
    LEAF,
    Signature,
    TreeError,
    TreeMonomial,
    graft,  # noqa: F401 - bench/tracing.py wraps enumeration.graft
    subtrees,
)

__all__ = [
    "catalan",
    "quadri_dim",
    "all_tree_monomials",
    "count_tree_monomials",
    "enumerate_normal",
    "count_normal",
    "dimension_by_linear_algebra",
    "oracle_dimensions",
    "GuardError",
]

ORACLE_GUARD = 10**6


class GuardError(TreeError):
    """Work past ``ORACLE_GUARD``: more trees of an arity than a listing
    may hold, or more columns at an arity than the rank oracle takes."""


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
    under the basis order.  It refuses to list more than ``ORACLE_GUARD``
    monomials."""
    sig = basis.order.signature
    _require_binary(sig)
    total = count_tree_monomials(sig, n)
    if total > ORACLE_GUARD:
        raise GuardError(f"enumeration guard exceeded: {total} monomials at arity {n}")
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
    """Arity-``n`` dimension of the quotient operad P, built arity by arity
    over the rationals (see ``oracle_dimensions``)."""
    if n < 1:
        raise TreeError(f"arity must be >= 1, got {n}")
    return next(islice(oracle_dimensions(pres), n - 1, None))


def oracle_dimensions(pres: Presentation) -> Iterator[int]:
    """dim P(1), dim P(2), ... of the quotient operad P, each arity built
    on the ones before it, so a table of arities 1..n builds each once.

    P(1) is the identity.  For m >= 2 the columns of arity m are the
    blocks P(a_1) (x) ... (x) P(a_k), one for each operation f of arity k
    and each split of m into its inputs; P(m) is their sum divided by the
    span of every relation applied at the root to basis elements of the
    lower P(a_j).  Dividing each block by the relations below its root
    leaves exactly that tensor product, and a relation at the root with
    an argument in the ideal already lies below the root, so the result
    equals the codimension of the span of all relation embeddings into
    all trees of the arity; no tree is listed.

    Independent of the rewriting machinery: it uses the presentation
    alone, with no order, reducer or basis.  The guard bounds the work by
    the columns, not the trees: an arity with more than ``ORACLE_GUARD``
    columns is refused with a ``GuardError`` before its elimination, and
    the iteration ends there.
    """
    quotient = _Quotient(pres)
    yield 1
    while True:
        quotient.add_arity()
        yield quotient.dims[-1]


class _Quotient:
    """The quotient operad of a presentation, one arity at a time.

    ``dims[m]`` is dim P(m).  ``blocks[m]`` maps (f, (a_1..a_k)) to the
    first column and the per-factor strides of that block at arity m,
    whose columns run in mixed radix over the bases of the P(a_j).
    ``echelons[m]`` is the number of columns of arity m and the echelon
    form of the relations there; ``columns[m]``, built from it when a
    higher arity first needs it, lists each column as a vector over the
    basis of P(m).
    """

    def __init__(self, pres: Presentation):
        self.symbols = pres.signature.symbols
        self.relations = [(rel.arity, rel.terms.items()) for rel in pres.relations]
        self.dims = [0, 1]
        self.blocks: list[dict] = [{}, {}]
        self.echelons: list[tuple[int, dict[int, dict]]] = [(0, {}), (0, {})]
        self.columns: dict[int, list[dict]] = {}
        # (subtree, parts) -> its images, each reduced to the basis of P
        # of its arity; a leaf's are the unit vectors
        self.factors: dict = {}

    def add_arity(self) -> None:
        """Build P(m) for the next arity m."""
        m = len(self.dims)
        dims = self.dims
        table = {}
        ncols = 0
        for sym in self.symbols:
            for parts in _compositions(m, sym.arity):
                strides = []
                size = 1
                for a in reversed(parts):
                    strides.append(size)
                    size *= dims[a]
                table[sym, parts] = (ncols, strides[::-1])
                ncols += size
        if ncols > ORACLE_GUARD:
            raise GuardError(
                f"{ncols} columns at arity {m} exceed the oracle guard of {ORACLE_GUARD}"
            )
        self.blocks.append(table)
        rows = []
        for arity, terms in self.relations:
            if arity > m:
                continue
            for parts in _compositions(m, arity):
                images = [self._images(mono, parts, coeff) for mono, coeff in terms]
                for row, *rest in zip(*images):
                    for image in rest:
                        for col, v in image.items():
                            w = row.get(col, 0) + v
                            if w:
                                row[col] = w
                            else:
                                del row[col]
                    if row:
                        rows.append(row)
        pivots = _integer_rank(rows)
        self.echelons.append((ncols, pivots))
        dims.append(ncols - len(pivots))

    def _images(
        self, t: TreeMonomial, parts: tuple[int, ...], coeff: int | Fraction = 1
    ) -> list[dict]:
        """``coeff`` times ``t`` with its i-th leaf bound to a basis element
        of P(``parts[i]``), for every binding in lexicographic order, as
        fresh vectors over the columns of arity ``sum(parts)``.

        The bindings and the block's columns both run in mixed radix, so
        the images are the Kronecker product of the children's, each
        reduced to the basis of P of its arity."""
        split = []
        kron = []
        i = 0
        for child in t.children:
            j = i + child.arity
            sub = parts[i:j]
            a = sum(sub)
            split.append(a)
            factor = self.factors.get((child, sub))
            if factor is None:
                if child.is_leaf:
                    factor = [{b: 1} for b in range(self.dims[a])]
                else:
                    columns = self._columns(a)
                    factor = [_reduce(vec, columns) for vec in self._images(child, sub)]
                self.factors[child, sub] = factor
            kron.append(factor)
            i = j
        offset, strides = self.blocks[sum(parts)][t.label, tuple(split)]
        # plain loops: most vectors hold one or two entries, and before
        # Python 3.12 each comprehension would cost a call
        out = [{offset: coeff}]
        for factor, stride in zip(kron, strides):
            folded = []
            for x in out:
                for y in factor:
                    vec = {}
                    for c, v in x.items():
                        for b, w in y.items():
                            vec[c + b * stride] = v * w
                    folded.append(vec)
            out = folded
        return out

    def _columns(self, m: int) -> list[dict]:
        """Each column of arity m as a vector over the basis of P(m)."""
        columns = self.columns.get(m)
        if columns is None:
            columns = self.columns[m] = _column_vectors(*self.echelons[m])
        return columns


def _reduce(vec: dict[int, int | Fraction], columns: list[dict]) -> dict[int, int | Fraction]:
    """A vector over the columns of one arity, over the basis of P instead."""
    if len(vec) == 1:
        ((col, v),) = vec.items()
        if v == 1:
            return columns[col]
    out: dict[int, int | Fraction] = {}
    for col, v in vec.items():
        for b, w in columns[col].items():
            x = out.get(b, 0) + v * w
            if x:
                out[b] = x
            else:
                del out[b]
    return out


def _column_vectors(ncols: int, pivots: dict[int, dict]) -> list[dict[int, int | Fraction]]:
    """Each column of one arity as a vector over the basis of P.  The
    non-pivot columns, numbered in order, are the basis; a pivot column is
    minus the rest of its echelon row, whose columns all lie to its left
    and so are already expressed."""
    out: list[dict[int, int | Fraction]] = []
    basis = 0
    for col in range(ncols):
        piv = pivots.get(col)
        if piv is None:
            out.append({basis: 1})
            basis += 1
        else:
            out.append(_reduce({k: -v for k, v in piv.items() if k != col}, out))
    return out


def _integer_rank(rows: list[dict[int, int | Fraction]]) -> dict[int, dict[int, int | Fraction]]:
    """Row echelon form over Q of sparse rows, consumed in place: pivot
    column -> its row, whose entry there is 1 and whose other entries lie
    to the left.  The rank is the number of pivots.

    Each row is scaled to a leading 1 when it becomes a pivot, so rows
    with pivots of +-1 stay in machine integers."""
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for row in rows:
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                lead = row[col]
                if lead == -1:
                    row = {k: -v for k, v in row.items()}
                elif lead != 1:
                    row = {k: Fraction(v, lead) for k, v in row.items()}
                pivots[col] = row
                break
            a = row[col]
            for k, v in piv.items():
                w = row.get(k, 0) - a * v
                if w:
                    row[k] = w
                else:
                    del row[k]
    return pivots
