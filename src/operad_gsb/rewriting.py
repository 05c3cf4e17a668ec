"""Divisor occurrences and normal-form reduction of tree polynomials.

A rewrite rule is a monic polynomial oriented by its leading monomial:
``lead + tail`` with every tail monomial strictly smaller, read as the
replacement ``lead -> -tail``.  A reduction step replaces an embedded
copy of a lead with the embedded tail; because the order is compatible
with grafting this strictly descends, so reduction terminates (a
configurable step limit guards against bugs only).  The step and the
S-polynomials of ``completion`` share one operation, ``add_embedding``:
add a multiple of a polynomial, embedded at an occurrence, to a term map.

Reduction is one loop of that step; its three schedules differ only in
how they pick the next monomial.  The default pops a worklist, tracing
takes the greatest reducible monomial, and a randomized run draws one.
The redex used on a monomial is pinned (first occurrence vertex in
preorder, then first rule in list order), so the normal form of a
polynomial is the coefficient-weighted sum of its monomials' normal
forms and does not depend on the pick; completion counts and traces
reproduce bit-for-bit across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .ordering import OperationOrder
from .polynomials import TreePolynomial, add
from .polynomials import scale  # noqa: F401 - bench/tracing.py wraps rewriting.scale
from .trees import OperationSymbol, TreeError, TreeMonomial, format_tree, graft
from .trees import replace_at, subtree_at, subtrees

__all__ = [
    "Occurrence",
    "RewriteRule",
    "ReductionError",
    "PatternIndex",
    "occurrences",
    "match_at",
    "add_embedding",
    "normal_form",
    "is_normal_monomial",
    "Reducer",
]

DEFAULT_STEP_LIMIT = 10**6


class ReductionError(TreeError):
    """Reduction exceeded its step limit (a mis-oriented rule set)."""


@dataclass(frozen=True)
class Occurrence:
    """An embedding of a pattern into an ambient monomial.

    ``vertex`` addresses the pattern's root in the ambient tree and
    ``bindings`` lists, per pattern leaf, the ambient subtree it captures.
    Reassembly invariant: grafting the bindings into the pattern and
    substituting at ``vertex`` reproduces the ambient monomial.
    """

    vertex: tuple[int, ...]
    bindings: tuple[TreeMonomial, ...]


def match_at(
    ambient: TreeMonomial, vertex: Sequence[int], pattern: TreeMonomial
) -> Occurrence | None:
    """Try to match ``pattern`` with its root at ``vertex``."""
    try:
        sub = subtree_at(ambient, vertex)
    except TreeError:
        return None
    bindings = _match(sub, pattern)
    if bindings is None:
        return None
    return Occurrence(tuple(vertex), tuple(bindings))


def _match(ambient: TreeMonomial, pattern: TreeMonomial) -> list[TreeMonomial] | None:
    if pattern.label is None:
        return [ambient]
    if ambient.label is not pattern.label:
        return None
    bindings: list[TreeMonomial] = []
    for a_child, p_child in zip(ambient.children, pattern.children):
        sub = _match(a_child, p_child)
        if sub is None:
            return None
        bindings.extend(sub)
    return bindings


class PatternIndex:
    """The leads of a set of reducers, grouped by root label, plus a memo of
    which leads match at the root of each subtree read.

    Trees are hash-consed, so the leads matching at a vertex depend on the
    vertex's subtree alone: one memo, keyed by subtree, serves every tree
    that contains it and every reducer that reads the index (the bottom-up
    view of Hoffmann and O'Donnell, "Pattern matching in trees", JACM
    29(1), 1982).  The leads are trees too, so they key themselves.  A
    subtree is matched only against the leads with its root label.  A
    lead added after a subtree was read is tried the next time that
    subtree is read.  The memo keeps every subtree it has read alive for
    as long as the index lives.
    """

    __slots__ = ("by_root", "_leads", "_memo", "_unmatched")

    def __init__(self) -> None:
        # root label -> (leads added before it, lead), in order added
        self.by_root: dict[OperationSymbol, list[tuple[int, TreeMonomial]]] = {}
        self._leads: set[TreeMonomial] = set()
        # subtree -> (leads tried, the leads that match at its root)
        self._memo: dict[TreeMonomial, tuple[int, tuple[TreeMonomial, ...]]] = {}
        # the memo entry of every subtree that no lead matches, shared
        # because most subtrees are such
        self._unmatched: tuple[int, tuple[TreeMonomial, ...]] = (0, ())

    def add(self, lead: TreeMonomial) -> None:
        """Add a rule lead, which has an internal vertex; a lead already
        present is ignored."""
        if lead in self._leads:
            return
        n = len(self._leads)
        self._leads.add(lead)
        self.by_root.setdefault(lead.label, []).append((n, lead))
        self._unmatched = (n + 1, ())

    def root_matches(self, sub: TreeMonomial) -> tuple[TreeMonomial, ...]:
        """The leads that match at the root of the internal vertex ``sub``;
        memoized per subtree."""
        n = len(self._leads)
        entry = self._memo.get(sub)
        if entry is None or entry[0] < n:
            tried, found = entry or (0, ())
            found += tuple(
                lead
                for k, lead in self.by_root.get(sub.label, ())
                if k >= tried and _match(sub, lead) is not None
            )
            entry = self._memo[sub] = (n, found) if found else self._unmatched
        return entry[1]


def occurrences(
    ambient: TreeMonomial, patterns: Sequence[TreeMonomial]
) -> Iterator[tuple[tuple[int, ...], int, Occurrence]]:
    """Yield ``(vertex, pattern index, occurrence)`` for every embedding.

    One preorder walk that matches each vertex against the patterns with
    its root label: vertices come in preorder and, at each vertex,
    patterns in list order, so the first item is the pinned redex.  Every
    pattern needs an internal vertex; a bare leaf would match everywhere
    and is rejected.
    """
    by_root: dict[OperationSymbol, list[tuple[int, TreeMonomial]]] = {}
    for idx, pattern in enumerate(patterns):
        if pattern.label is None:
            raise TreeError("leaf pattern would occur at every vertex")
        by_root.setdefault(pattern.label, []).append((idx, pattern))
    for vertex, sub in subtrees(ambient):
        for idx, pattern in by_root.get(sub.label, ()):
            bindings = _match(sub, pattern)
            if bindings is not None:
                yield vertex, idx, Occurrence(vertex, tuple(bindings))


def is_normal_monomial(t: TreeMonomial, leads: Sequence[TreeMonomial]) -> bool:
    """True iff no lead occurs anywhere in ``t``."""
    return next(occurrences(t, leads), None) is None


@dataclass(frozen=True)
class RewriteRule:
    """A monic oriented polynomial ``lead + tail`` read as ``lead -> -tail``."""

    lead: TreeMonomial
    tail: TreePolynomial

    def __post_init__(self) -> None:
        if self.lead.is_leaf:
            raise TreeError("a rule lead must have an internal vertex")
        if self.tail.arity != self.lead.arity:
            raise TreeError("lead and tail arities differ")
        if self.lead in self.tail.terms:
            raise TreeError("lead appears in the rule tail")

    @classmethod
    def from_polynomial(cls, p: TreePolynomial, ord: OperationOrder) -> "RewriteRule":
        """Orient a nonzero polynomial: make it monic and split off the lead."""
        monic = p.make_monic(ord)
        lead, _ = monic.leading_term(ord)
        tail = monic - TreePolynomial.monomial(lead)
        return cls(lead, tail)

    @property
    def polynomial(self) -> TreePolynomial:
        return add(TreePolynomial.monomial(self.lead), self.tail)

    @property
    def arity(self) -> int:
        return self.lead.arity


def add_embedding(
    terms: dict[TreeMonomial, Fraction | int],
    factor: Fraction | int,
    p: TreePolynomial,
    ambient: TreeMonomial,
    occ: Occurrence,
) -> list[TreeMonomial]:
    """Add ``factor`` times ``p``, embedded into ``ambient`` at ``occ``, to ``terms``.

    Each monomial of ``p`` is grafted onto the occurrence's bindings and
    substituted at its vertex.  A coefficient that cancels is deleted;
    the images whose coefficient stays nonzero are returned, in the term
    order of ``p``.  This is the one embedding behind both a reduction
    step and an S-polynomial.
    """
    nonzero: list[TreeMonomial] = []
    for mono, coeff in p.terms.items():
        image = replace_at(ambient, occ.vertex, graft(mono, occ.bindings))
        new = terms.get(image, 0) + factor * coeff
        if new:
            terms[image] = new
            nonzero.append(image)
        else:
            terms.pop(image, None)
    return nonzero


class Reducer:
    """Normal-form computation against a fixed rule list.

    Caches, per subtree, the first redex under the deterministic
    strategy (first occurrence vertex in preorder, then first rule).  A
    tree's first redex is its root's first-ranked match if there is one,
    else the first redex of its first child that has one, with that
    child's index put in front of the vertex.  Trees are hash-consed, so
    the image of a rewrite step shares every subtree off the rewritten
    path with the tree it came from: looking it up costs one miss per
    new vertex (the rewritten vertex's ancestors and the grafted tail),
    not a walk over the whole tree.  Completion reuses one reducer per
    iteration snapshot, so the cache is shared across all the
    S-polynomials of an iteration.  Root matches are read from a
    ``PatternIndex``: the reducer's own, or an ``index`` passed in and
    shared with reducers over other rule lists.  The reducer adds its
    leads to it and ignores the leads of other lists.
    """

    def __init__(
        self,
        rules: Sequence[RewriteRule],
        ord: OperationOrder,
        step_limit: int = DEFAULT_STEP_LIMIT,
        index: PatternIndex | None = None,
    ):
        self.rules = tuple(rules)
        self.ord = ord
        self.step_limit = step_limit
        self._index = PatternIndex() if index is None else index
        self._first_redex: dict[TreeMonomial, tuple | None] = {}
        # lead -> first rule with that lead
        self._rank: dict[TreeMonomial, int] = {}
        for idx, rule in enumerate(self.rules):
            self._rank.setdefault(rule.lead, idx)
            self._index.add(rule.lead)

    def first_redex(self, m: TreeMonomial) -> tuple | None:
        """Smallest (vertex, rule index, occurrence) triple in ``m``, if any."""
        if m.label is None:
            return None
        return self._redex(m)

    def _redex(self, m: TreeMonomial) -> tuple | None:
        # the preorder search, one frame per level: the root's ranked
        # match, else the first child's first redex, one level down
        memo = self._first_redex
        if m in memo:
            return memo[m]
        redex = None
        rank = self._rank
        ranked = [rank[lead] for lead in self._index.root_matches(m) if lead in rank]
        if ranked:
            idx = min(ranked)
            redex = ((), idx, Occurrence((), tuple(_match(m, self.rules[idx].lead))))
        else:
            for i, child in enumerate(m.children):
                if child.label is not None:
                    below = self._redex(child)
                    if below is not None:
                        vertex = (i,) + below[0]
                        redex = (vertex, below[1], Occurrence(vertex, below[2].bindings))
                        break
        memo[m] = redex
        return redex

    def reduce(
        self,
        p: TreePolynomial,
        rng: random.Random | None = None,
        trace: list | None = None,
    ) -> TreePolynomial:
        """Fully reduce ``p``: one loop of one step, three ways to pick.

        A step takes a reducible monomial ``m`` with coefficient ``c`` and
        a redex of it, deletes ``m`` and adds ``-c`` times the rule's tail
        embedded at the redex.  By default the next monomial is popped
        from a worklist of the monomials a step created, with its pinned
        redex; since that redex depends only on the monomial, the normal
        form does not depend on the pop order.  Tracing picks the greatest
        reducible monomial, the documented strategy that the emitted
        ``(rule index, vertex)`` steps follow.  With ``rng``, the monomial
        (among the reducible ones sorted by text) and then its redex
        (among all of them, in preorder) are drawn at random.
        """
        terms = dict(p.terms)
        worklist = list(terms) if rng is None and trace is None else None
        key = self.ord.monomial_key
        steps = 0
        while True:
            m = redex = None
            if worklist is not None:
                while worklist and redex is None:
                    m = worklist.pop()
                    if m in terms:
                        redex = self.first_redex(m)
            elif rng is None:
                for m in sorted(terms, key=key, reverse=True):
                    redex = self.first_redex(m)
                    if redex is not None:
                        break
            else:
                reducible = [
                    m for m in sorted(terms, key=format_tree) if self.first_redex(m)
                ]
                if reducible:
                    m = rng.choice(reducible)
                    leads = [r.lead for r in self.rules]
                    redex = rng.choice(list(occurrences(m, leads)))
            if redex is None:
                return TreePolynomial(terms, p.arity)
            vertex, idx, occ = redex
            steps += 1
            if steps > self.step_limit:
                raise ReductionError(
                    f"reduction exceeded step limit of {self.step_limit}"
                )
            if trace is not None:
                trace.append((idx, vertex))
            created = add_embedding(terms, -terms.pop(m), self.rules[idx].tail, m, occ)
            if worklist is not None:
                worklist.extend(created)


def normal_form(
    p: TreePolynomial,
    rules: Sequence[RewriteRule],
    ord: OperationOrder,
    step_limit: int = DEFAULT_STEP_LIMIT,
    rng: random.Random | None = None,
    trace: list | None = None,
) -> TreePolynomial:
    """Reduce ``p`` until no monomial is divisible by any rule's lead."""
    return Reducer(rules, ord, step_limit).reduce(p, rng=rng, trace=trace)
