"""Divisor occurrences and normal-form reduction of tree polynomials.

A rewrite rule is a monic polynomial oriented by its leading monomial:
``lead + tail`` with every tail monomial strictly smaller, read as the
replacement ``lead -> -tail``.  A reduction step replaces an embedded
copy of a lead with the embedded tail.  The order is compatible with
grafting, so the step strictly descends, and a fixed arity has finitely
many monomials, so reduction terminates.  That rests on every tail
being below its lead, so a ``Reducer`` refuses a rule list the order
does not orient and counts no steps.  The step and the S-polynomials of
``completion`` share one operation, ``add_embedding``: add a multiple of
a polynomial, embedded at an occurrence, to a term map.

Reduction is one deterministic loop of that step over a queue, a
worklist by default and ascending in the order when traced; a randomized
run draws instead.  A redex is a ``(rule index, Occurrence)`` pair and
is pinned (first occurrence vertex in preorder, then first rule in list
order), so the normal form of a polynomial is the coefficient-weighted
sum of its monomials' normal forms and does not depend on the pick;
completion counts and traces reproduce bit-for-bit across runs.  A
``Reducer`` owns every table it matches with: its rules grouped by the
shape of their leads' roots and its per-subtree first-redex cache.
``Reducer.lead_redex`` gives a rule's lead its first redex by the other
rules, and ``Reducer.update`` replaces or deletes one rule in place,
keeping every cached redex that is still first; that is all that
``completion.self_reduce`` needs beyond the reducer over the whole list.

``normal_form`` runs with the cyclic garbage collector paused, since a
reduction builds only hash-consed trees and values that point down to
them (see ``trees``).  The switch is process-wide, so other threads get
no cyclic collection while it runs; a caller who turned the collector
off keeps it off.  Reference counting frees the call's working set when
it returns, so nothing is collected on the way out.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .ordering import OperationOrder
from .polynomials import TreePolynomial, add
from .polynomials import scale  # noqa: F401 - bench/tracing.py wraps rewriting.scale
from .trees import OperationSymbol, TreeError, TreeMonomial, format_tree, graft
from .trees import _cyclic_gc_paused, replace_at, subtree_at, subtrees

__all__ = [
    "Occurrence",
    "RewriteRule",
    "ReductionError",
    "occurrences",
    "match_at",
    "add_embedding",
    "normal_form",
    "is_normal_monomial",
    "Reducer",
]

class ReductionError(TreeError):
    """A rule list the order does not orient, refused by ``Reducer``."""


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


def occurrences(
    ambient: TreeMonomial, patterns: Sequence[TreeMonomial]
) -> Iterator[tuple[int, Occurrence]]:
    """Yield ``(pattern index, occurrence)`` for every embedding.

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
                yield idx, Occurrence(vertex, tuple(bindings))


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
    tree's first redex is its root's first match in rule order if there
    is one, else the first redex of its first child that has one, with
    that child's index put in front of the vertex.  Trees are
    hash-consed, so the image of a rewrite step shares every subtree off
    the rewritten path with the tree it came from: looking it up costs
    one miss per new vertex (the rewritten vertex's ancestors and the
    grafted tail), not a walk over the whole tree.  Completion reuses one
    reducer per iteration snapshot, so the cache is shared across all the
    S-polynomials of an iteration, and the final inter-reduction edits one
    reducer in place with ``update``, so its cache lives for the call.

    A subtree is matched at its root only against the candidates of its
    shape: its root label and the label of each child, ``None`` for a
    leaf.  A rule is a candidate when its lead has that root label and
    each of the lead's children is a leaf or carries the child label at
    that place, since any other lead already fails one level down
    (McCune's discrimination by the symbols below the root, JAR 9, 1992).
    A shape's ``(rule index, lead)`` candidates keep the list order and
    are listed when a subtree of that shape is first read.

    Every tail monomial must be smaller than its lead, which is what
    makes reduction terminate; a rule list that breaks this is refused.
    Only a rule with a nonzero tail reads the order.
    """

    def __init__(self, rules: Sequence[RewriteRule], ord: OperationOrder):
        self.rules = tuple(rules)
        self.ord = ord
        for idx, rule in enumerate(self.rules):
            self._check_oriented(idx, rule)
        self._first_redex: dict[TreeMonomial, tuple[int, Occurrence] | None] = {}
        self._index()

    def _check_oriented(self, idx: int, rule: RewriteRule) -> None:
        if rule.tail.terms:
            lead_key = self.ord.monomial_key(rule.lead)
            if any(self.ord.monomial_key(m) >= lead_key for m in rule.tail.terms):
                raise ReductionError(f"rule {idx} is not oriented by the order")

    def _index(self) -> None:
        # root label -> (rule index, lead), in list order
        self._by_root: dict[OperationSymbol, list[tuple[int, TreeMonomial]]] = {}
        for idx, rule in enumerate(self.rules):
            self._by_root.setdefault(rule.lead.label, []).append((idx, rule.lead))
        # (root label, child labels...) -> its candidates, () when none fit
        self._by_shape: dict[tuple, tuple[tuple[int, TreeMonomial], ...]] = {}

    def update(self, i: int, rule: RewriteRule | None) -> None:
        """Make rule ``i`` into ``rule``, or delete it when ``rule`` is None.

        A new rule is refused, as in the constructor, unless the order
        orients it.  A deletion moves every later rule down one place.  The
        cache keeps each entry that is still the pinned redex.  Removing a
        rule creates no match, so only the entries that use rule ``i`` go
        (the others are renumbered).  A new lead can only occur in a
        subtree of at least its arity, so a replacement also drops those
        entries.
        """
        rules = list(self.rules)
        memo = self._first_redex
        if rule is None:
            del rules[i]
            self._first_redex = {
                m: redex if redex is None or redex[0] < i else (redex[0] - 1, redex[1])
                for m, redex in memo.items()
                if redex is None or redex[0] != i
            }
        else:
            self._check_oriented(i, rule)
            rules[i] = rule
            arity = rule.lead.arity
            self._first_redex = {
                m: redex
                for m, redex in memo.items()
                if m.arity < arity and (redex is None or redex[0] != i)
            }
        self.rules = tuple(rules)
        self._index()

    def first_redex(self, m: TreeMonomial) -> tuple[int, Occurrence] | None:
        """The pinned ``(rule index, occurrence)`` redex of ``m``, if any."""
        if m.label is None:
            return None
        return self._redex(m)

    def lead_redex(self, i: int) -> tuple[int, Occurrence] | None:
        """The first redex of rule ``i``'s own lead by the other rules: rule
        ``i`` is not tried at the root, and the children answer from the
        cache as usual.  Rule indices are those of the whole list."""
        return self._redex(self.rules[i].lead, i)

    def _redex(self, m: TreeMonomial, skip: int = -1) -> tuple[int, Occurrence] | None:
        # the preorder search, one frame per level: the root's first
        # matching candidate, else the first child's first redex, one
        # level down.  With a rule to ``skip`` the answer is not ``m``'s
        # own, so the cache is neither read nor written.
        memo = self._first_redex
        if skip < 0 and m in memo:
            return memo[m]
        redex = None
        shape = (m.label, *[child.label for child in m.children])
        candidates = self._by_shape.get(shape)
        if candidates is None:
            candidates = self._by_shape[shape] = tuple(
                (idx, lead)
                for idx, lead in self._by_root.get(m.label, ())
                if all(
                    p.label is None or p.label is label
                    for p, label in zip(lead.children, shape[1:])
                )
            )
        for idx, lead in candidates:
            if idx != skip:
                bindings = _match(m, lead)
                if bindings is not None:
                    redex = (idx, Occurrence((), tuple(bindings)))
                    break
        else:
            for i, child in enumerate(m.children):
                if child.label is not None:
                    below = self._redex(child)
                    if below is not None:
                        idx, occ = below
                        redex = (idx, Occurrence((i,) + occ.vertex, occ.bindings))
                        break
        if skip < 0:
            memo[m] = redex
        return redex

    def reduce(
        self,
        p: TreePolynomial,
        rng: random.Random | None = None,
        trace: list | None = None,
    ) -> TreePolynomial:
        """Fully reduce ``p``; with ``trace``, append each step's
        ``(rule index, vertex)``.

        A step deletes a reducible monomial ``m`` with coefficient ``c``
        and adds ``-c`` times the tail of its redex's rule, embedded at
        the redex.  The deterministic loop pops the last monomial of a
        queue and skips it if it has left the terms or has no redex.  By
        default the queue is a worklist of the terms and of each step's
        images; the redex is pinned, so the pop order cannot change the
        result.  Tracing keeps the queue ascending in the order, so each
        step rewrites the greatest reducible monomial: a step's images are
        below the monomial it rewrote, and a normal monomial stays normal.
        With ``rng``, each step draws the monomial (among the reducible
        ones sorted by text) and then its redex (among all, in preorder).
        """
        terms = dict(p.terms)
        if rng is not None:
            leads = [r.lead for r in self.rules]
            while reducible := [
                m for m in sorted(terms, key=format_tree) if self.first_redex(m)
            ]:
                m = rng.choice(reducible)
                idx, occ = rng.choice(list(occurrences(m, leads)))
                if trace is not None:
                    trace.append((idx, occ.vertex))
                add_embedding(terms, -terms.pop(m), self.rules[idx].tail, m, occ)
            return TreePolynomial(terms, p.arity)
        key = None if trace is None else self.ord.monomial_key
        queue = list(terms) if key is None else sorted(terms, key=key)
        while queue:
            m = queue.pop()
            redex = self.first_redex(m) if m in terms else None
            if redex is None:
                continue
            idx, occ = redex
            created = add_embedding(terms, -terms.pop(m), self.rules[idx].tail, m, occ)
            if trace is None:
                queue.extend(created)
            else:
                trace.append((idx, occ.vertex))
                for image in created:
                    bisect.insort(queue, image, key=key)
        return TreePolynomial(terms, p.arity)


@_cyclic_gc_paused(hand_back=False)
def normal_form(
    p: TreePolynomial,
    rules: Sequence[RewriteRule],
    ord: OperationOrder,
    *,
    trace: list | None = None,
) -> TreePolynomial:
    """Reduce ``p`` until no monomial is divisible by any rule's lead.

    Runs with the cyclic garbage collector paused (see the module
    docstring); ``Reducer.reduce`` itself does not pause it.
    """
    return Reducer(rules, ord).reduce(p, trace=trace)
