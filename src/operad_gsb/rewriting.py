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
from typing import Iterable, Iterator, Sequence

from .ordering import OperationOrder
from .polynomials import TreePolynomial, add
from .polynomials import scale  # noqa: F401 - bench/tracing.py wraps rewriting.scale
from .trees import TreeError, TreeMonomial, format_tree, graft, replace_at, subtree_at

__all__ = [
    "Occurrence",
    "RewriteRule",
    "ReductionError",
    "PatternIndex",
    "OccurrenceTable",
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
    label = ambient.label
    # symbols are shared objects almost always; the dataclass ``__eq__``
    # builds two tuples, so test identity first
    if label is None or (label is not pattern.label and label != pattern.label):
        return None
    bindings: list[TreeMonomial] = []
    for a_child, p_child in zip(ambient.children, pattern.children):
        sub = _match(a_child, p_child)
        if sub is None:
            return None
        bindings.extend(sub)
    return bindings


class PatternIndex:
    """Patterns grouped by root label, each group in list order.

    ``occurrences`` tries at a vertex only the patterns whose root label
    matches the vertex's.  Groups are keyed on the label's name: a ``str``
    caches its hash, where the dataclass ``OperationSymbol`` builds a
    tuple on every hash.  Patterns can be appended; indices never move.
    """

    __slots__ = ("patterns", "by_root")

    def __init__(self, patterns: Iterable[TreeMonomial] = ()):
        self.patterns: list[TreeMonomial] = []
        self.by_root: dict[str, list[tuple[int, TreeMonomial]]] = {}
        for pattern in patterns:
            self.append(pattern)

    def append(self, pattern: TreeMonomial) -> None:
        """Add a pattern at the next index; a bare leaf is rejected, as it
        would match everywhere."""
        if pattern.label is None:
            raise TreeError("leaf pattern would occur at every vertex")
        group = self.by_root.setdefault(pattern.label.name, [])
        group.append((len(self.patterns), pattern))
        self.patterns.append(pattern)


def occurrences(
    ambient: TreeMonomial,
    patterns: Sequence[TreeMonomial] | PatternIndex,
    start: int = 0,
) -> Iterator[tuple[tuple[int, ...], int, Occurrence]]:
    """Yield ``(vertex, pattern index, occurrence)`` for every embedding.

    One preorder walk carries each vertex's subtree, so no match starts
    from the root again, and a vertex tries only the patterns with its
    root label.  Vertices come in preorder and, at each vertex, patterns
    in list order: the first item is the pinned redex.  Patterns with an
    index below ``start`` are skipped.  Callers that search many trees
    for the same patterns pass a prebuilt ``PatternIndex``.  Every
    pattern needs an internal vertex; a bare leaf would match everywhere
    and is rejected.
    """
    index = patterns if isinstance(patterns, PatternIndex) else PatternIndex(patterns)
    if ambient.label is None:
        return
    by_root = index.by_root
    stack = [((), ambient)]
    while stack:
        vertex, sub = stack.pop()
        for idx, pattern in by_root.get(sub.label.name, ()):
            if idx >= start:
                bindings = _match(sub, pattern)
                if bindings is not None:
                    yield vertex, idx, Occurrence(vertex, tuple(bindings))
        children = sub.children
        for i in range(len(children) - 1, -1, -1):
            if children[i].label is not None:
                stack.append((vertex + (i,), children[i]))


def is_normal_monomial(
    t: TreeMonomial, leads: Sequence[TreeMonomial] | PatternIndex
) -> bool:
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
    terms: dict[TreeMonomial, Fraction],
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


class OccurrenceTable:
    """Per monomial, the first occurrence of every lead that occurs in it.

    A table outlives the rule lists it serves: its entries are keyed by
    lead value, not by rule index, so they never go stale when rules are
    replaced or deleted; a lead registered later is looked for the next
    time an entry is read.  Entries are filled lazily and are sparse:
    ``[leads checked, {lead: first occurrence in preorder} or None]``.
    """

    def __init__(self) -> None:
        self._leads = PatternIndex()
        self._known: set[TreeMonomial] = set()
        self._entries: dict[TreeMonomial, list] = {}

    def add_lead(self, lead: TreeMonomial) -> None:
        if lead not in self._known:
            self._known.add(lead)
            self._leads.append(lead)

    def _found(self, m: TreeMonomial) -> dict[TreeMonomial, Occurrence]:
        """Every registered lead occurring in ``m``, with its first occurrence."""
        entry = self._entries.get(m)
        if entry is None:
            entry = self._entries[m] = [0, None]
        checked, found = entry
        patterns = self._leads.patterns
        if checked < len(patterns):
            for _, idx, occ in occurrences(m, self._leads, checked):
                if found is None:
                    found = entry[1] = {}
                found.setdefault(patterns[idx], occ)
            entry[0] = len(patterns)
        return found or {}

    def first_redex(
        self, m: TreeMonomial, rank: dict[TreeMonomial, int]
    ) -> tuple | None:
        """The pinned redex of ``m`` for a rule list whose first rule with
        each lead is ``rank[lead]``; every such lead must be registered.

        Paths compare lexicographically in preorder, so the smallest
        ``(first vertex, rule index)`` is the first item ``occurrences``
        would yield for that rule list.
        """
        best = None
        for lead, occ in self._found(m).items():
            idx = rank.get(lead)
            if idx is not None and (best is None or (occ.vertex, idx) < best[:2]):
                best = (occ.vertex, idx, occ)
        return best


class Reducer:
    """Normal-form computation against a fixed rule list.

    Caches, per monomial, the first redex under the deterministic
    strategy (first occurrence vertex in preorder, then first rule);
    completion reuses one reducer per iteration snapshot, so redex
    lookups are shared across all the S-polynomials of an iteration.
    With a ``table``, cache misses are answered from that shared
    occurrence table instead of a fresh search, for callers that reduce
    against many short-lived rule lists over the same leads.
    """

    def __init__(
        self,
        rules: Sequence[RewriteRule],
        ord: OperationOrder,
        step_limit: int = DEFAULT_STEP_LIMIT,
        table: OccurrenceTable | None = None,
    ):
        self.rules = tuple(rules)
        self._leads = PatternIndex(r.lead for r in self.rules)
        self.ord = ord
        self.step_limit = step_limit
        self._first_redex: dict[TreeMonomial, tuple | None] = {}
        self._table = table
        self._rank: dict[TreeMonomial, int] = {}
        if table is not None:
            for idx, lead in enumerate(self._leads.patterns):
                table.add_lead(lead)
                self._rank.setdefault(lead, idx)

    def first_redex(self, m: TreeMonomial) -> tuple | None:
        """Smallest (vertex, rule index, occurrence) triple in ``m``, if any."""
        if m not in self._first_redex:
            if self._table is None:
                self._first_redex[m] = next(occurrences(m, self._leads), None)
            else:
                self._first_redex[m] = self._table.first_redex(m, self._rank)
        return self._first_redex[m]

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
                    redex = rng.choice(list(occurrences(m, self._leads)))
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
