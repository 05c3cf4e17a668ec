"""Overlap enumeration, S-polynomials, and Buchberger-style completion.

A small common multiple of two leads is a minimal monomial carrying
intersecting occurrences of both; its S-polynomial is the difference of
the two rule embeddings, whose shared leading monomial cancels.  The
completion loop reduces every S-polynomial against the basis snapshot
frozen at the start of the iteration, appends the surviving normal
forms (monic, deduplicated) and repeats, pairing only against the fresh
elements from the second iteration on; the final basis is self-reduced
once after the loop terminates.

Self-reduction is the plain loop "normal-form each rule modulo the
others; on the first change, start again from the top", run on one
reducer over the whole list per call, edited in place after each
rewrite.  A lead occurs in a monomial of its own arity only as that
whole monomial, so a rule's monomials reduce modulo the others as modulo
all rules, save the first step on its lead, which skips the rule itself
at the root.

Enumeration is over ordered pairs: ``small_common_multiples(f, g)`` lists
the multiples where ``f`` embeds at or inside the root occurrence of
``g``, so each geometric overlap is produced exactly once across the two
orientations of a pair.

``complete`` and ``is_gsb`` run with the cyclic garbage collector paused:
they build only hash-consed trees and values that point down to them, so
the collector has nothing to free (see ``trees``).  The switch is
process-wide, so other threads get no cyclic collection while either
runs.  When either returns or raises, the collector is on again, after
one collection of the two young generations, unless the caller had
turned it off, in which case it stays off and nothing is collected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .ordering import OperationOrder
from .polynomials import TreePolynomial, format_polynomial
from .rewriting import (
    Occurrence,
    Reducer,
    RewriteRule,
    add_embedding,
    match_at,
    normal_form,  # noqa: F401 - bench/tracing.py wraps completion.normal_form
)
from .trees import (
    TreeError,
    TreeMonomial,
    _cyclic_gc_paused,
    format_tree,
    graft,
    replace_at,
    subtree_at,
    subtrees,
)

__all__ = [
    "SmallCommonMultiple",
    "CompletionConfig",
    "IterationRecord",
    "CompletionReport",
    "GSBasis",
    "GsbCheck",
    "CompositionRecord",
    "small_common_multiples",
    "s_polynomial",
    "self_reduce",
    "complete",
    "is_gsb",
]

@dataclass(frozen=True)
class SmallCommonMultiple:
    """A minimal monomial with intersecting occurrences of two leads.

    ``occ_f`` embeds the first lead at or below the root; ``occ_g``
    anchors the second lead at the root.  Every internal vertex of
    ``multiple`` is covered by one of the two occurrences.
    """

    multiple: TreeMonomial
    occ_f: Occurrence
    occ_g: Occurrence


@dataclass(frozen=True)
class CompletionConfig:
    """Caps for a completion run; all positive."""

    max_iterations: int = 2
    max_arity: int = 12

    def __post_init__(self) -> None:
        if min(self.max_iterations, self.max_arity) < 1:
            raise TreeError("completion caps must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """One completion round: its compositions and the normal forms added."""

    compositions: int
    added: tuple[TreePolynomial, ...]

    def __post_init__(self) -> None:
        assert self.compositions >= len(self.added)

    @property
    def nonzero(self) -> int:
        # each distinct monic nonzero normal form is counted once and added
        return len(self.added)


@dataclass(frozen=True)
class GSBasis:
    """An oriented rule set under a total order of its operations."""

    rules: tuple[RewriteRule, ...]
    order: OperationOrder

    @property
    def leads(self) -> tuple[TreeMonomial, ...]:
        return tuple(r.lead for r in self.rules)

    def polynomials(self) -> tuple[TreePolynomial, ...]:
        return tuple(r.polynomial for r in self.rules)


STATUS_CONFIRMED = "gsb_confirmed"
STATUS_ITERATION_CAP = "iteration_cap"
STATUS_ARITY_CAP = "arity_cap"


@dataclass
class CompletionReport:
    """Per-iteration counts plus the final status and basis, JSON-ready."""

    order: str
    iterations: tuple[IterationRecord, ...]
    status: str
    basis: tuple[TreePolynomial, ...]
    pair_log: list = field(default_factory=list, repr=False, compare=False)

    @property
    def basis_size(self) -> int:
        return len(self.basis)

    def to_json_dict(self, ord: OperationOrder) -> dict:
        return {
            "order": self.order,
            "iterations": [
                {
                    "compositions": rec.compositions,
                    "nonzero": rec.nonzero,
                    "added": [format_polynomial(p, ord) for p in rec.added],
                }
                for rec in self.iterations
            ],
            "status": self.status,
            "basis": [format_polynomial(p, ord) for p in self.basis],
        }


def _merge(x: TreeMonomial, y: TreeMonomial) -> TreeMonomial | None:
    """Least common refinement of two patterns rooted at the same vertex."""
    if x.is_leaf:
        return y
    if y.is_leaf:
        return x
    if x.label is not y.label:
        return None
    children = []
    for cx, cy in zip(x.children, y.children):
        m = _merge(cx, cy)
        if m is None:
            return None
        children.append(m)
    return TreeMonomial(x.label, children)


def _enumerate_scms(
    f_lead: TreeMonomial, g_lead: TreeMonomial, max_arity: int
) -> tuple[list[SmallCommonMultiple], int]:
    """SCM list plus the number of candidates skipped by the arity cap."""
    if f_lead.is_leaf or g_lead.is_leaf:
        raise TreeError("leads must have at least one internal vertex")
    out: list[SmallCommonMultiple] = []
    skipped = 0
    for p, sub in subtrees(g_lead):
        inner = _merge(sub, f_lead)
        if inner is None:
            continue
        merged = replace_at(g_lead, p, inner)
        if p == ():
            # Root-aligned: keep only when f sits strictly inside g, or on
            # one canonical side of an incomparable overlap, so the two
            # orientations of a pair never double-report it.
            if merged == f_lead:
                continue
            if merged != g_lead and not format_tree(f_lead) < format_tree(g_lead):
                continue
        if merged.arity > max_arity:
            skipped += 1
            continue
        occ_f = match_at(merged, p, f_lead)
        occ_g = match_at(merged, (), g_lead)
        assert occ_f is not None and occ_g is not None
        out.append(SmallCommonMultiple(merged, occ_f, occ_g))
    return out, skipped


def small_common_multiples(
    f_lead: TreeMonomial, g_lead: TreeMonomial, max_arity: int = CompletionConfig.max_arity
) -> list[SmallCommonMultiple]:
    """All minimal common multiples with ``f_lead`` embedded inside the
    root occurrence of ``g_lead``, in preorder of the embedding vertex."""
    return _enumerate_scms(f_lead, g_lead, max_arity)[0]


def s_polynomial(
    f: RewriteRule, g: RewriteRule, scm: SmallCommonMultiple
) -> TreePolynomial:
    """Difference of the two rule embeddings into the common multiple.

    The checks below make both leads embed as the multiple itself, where
    they cancel, so only the two tails are embedded.
    """
    if graft(f.lead, scm.occ_f.bindings) != subtree_at(scm.multiple, scm.occ_f.vertex):
        raise TreeError("inconsistent small common multiple for f")
    if graft(g.lead, scm.occ_g.bindings) != scm.multiple:
        raise TreeError("inconsistent small common multiple for g")
    terms: dict = {}
    add_embedding(terms, 1, f.tail, scm.multiple, scm.occ_f)
    add_embedding(terms, -1, g.tail, scm.multiple, scm.occ_g)
    return TreePolynomial(terms, scm.multiple.arity)


def self_reduce(
    rules: Sequence[RewriteRule], ord: OperationOrder
) -> tuple[RewriteRule, ...]:
    """Reduce every rule modulo the others; drop the ones that vanish.

    On exit no rule's monomial (lead or tail) is divisible by another
    rule's lead.  Relative order of the survivors is preserved.

    The first rule, in list order, with a monomial that contains another
    rule's lead is replaced by its monic normal form modulo the others
    (or dropped if that is zero), and the search starts again from the
    top.  A polynomial equals its normal form exactly when it has no
    redex, so the check is a redex lookup; it fills the reducer's cache
    that the reduction then reads.

    One reducer over the whole list serves the whole call: after each
    rewrite ``Reducer.update`` edits its rule in place and keeps every
    cached redex that is still first.  Deleting a rule creates no redex,
    so the rules before it stay clean and the scan resumes at its place;
    a restart from the top would find the same rule.  A replaced rule has
    a new lead that an earlier rule may contain, so the scan starts again
    from the top, on the cache that is still warm.

    Reading the lead on the reducer over the whole list is exact because
    every operation has arity at least 2: a proper occurrence of a
    pattern adds a leaf, so a lead occurs in a monomial of its own arity
    only as that whole monomial.  Rule ``i``'s tail, and
    every monomial met after the first step on its lead, has that arity
    and is smaller than the lead, so it reduces alike with or without
    rule ``i``.  Only the first redex of the lead itself must skip rule
    ``i`` at the root (``Reducer.lead_redex``); with none, the lead
    stays as it is.  That first step is taken here, outside
    ``Reducer.reduce``; like every other step it descends in the order.
    """
    reducer = Reducer(rules, ord)
    i = 0
    while i < len(reducer.rules):
        rule = reducer.rules[i]
        redex = reducer.lead_redex(i)
        if redex is None and not any(reducer.first_redex(m) for m in rule.tail.terms):
            i += 1
            continue
        if redex is None:
            # the lead is normal modulo the others, and no step recreates it
            nf = TreePolynomial.monomial(rule.lead) + reducer.reduce(rule.tail)
        else:
            # the first step on the monic lead: minus the other rule's tail
            idx, occ = redex
            terms = dict(rule.tail.terms)
            add_embedding(terms, -1, reducer.rules[idx].tail, rule.lead, occ)
            nf = reducer.reduce(TreePolynomial(terms, rule.arity))
        if nf.is_zero:
            # the rules before ``i`` stay clean against fewer leads
            reducer.update(i, None)
        else:
            # an earlier rule may contain the new lead
            reducer.update(i, RewriteRule.from_polynomial(nf, ord))
            i = 0
    return reducer.rules


def _validate_input(relations: Sequence[TreePolynomial], ord: OperationOrder) -> None:
    nonbinary = [s.name for s in ord.ranked if s.arity != 2]
    if nonbinary:
        raise TreeError(
            "completion supports binary signatures only; "
            f"non-binary operations: {nonbinary}"
        )
    # an unranked operation is refused when ``complete`` orients the
    # relations, since that keys every term
    if any(rel.is_zero for rel in relations):
        raise TreeError("zero relation in completion input")


@dataclass(frozen=True)
class CompositionRecord:
    """One checked composition: the pair, its SCM, and the normal form."""

    outer_index: int
    inner_index: int
    scm: SmallCommonMultiple
    normal_form: TreePolynomial


def _check_compositions(
    rules: tuple[RewriteRule, ...],
    ord: OperationOrder,
    cfg: CompletionConfig,
    first_new: int = 0,
) -> tuple[list[CompositionRecord], bool]:
    """Reduce every composition of ``rules`` against ``rules`` themselves.

    Walks ordered pairs (outer, inner), then their SCMs in preorder,
    skipping pairs whose indices both lie below ``first_new``.  Returns
    the records in that order and whether the arity cap skipped any
    candidate multiple.
    """
    reducer = Reducer(rules, ord)
    records: list[CompositionRecord] = []
    skipped_any = False
    for j_outer, g in enumerate(rules):
        for i_inner, f in enumerate(rules):
            if i_inner < first_new and j_outer < first_new:
                continue
            scms, skipped = _enumerate_scms(f.lead, g.lead, cfg.max_arity)
            skipped_any = skipped_any or skipped > 0
            for scm in scms:
                nf = reducer.reduce(s_polynomial(f, g, scm))
                records.append(CompositionRecord(j_outer, i_inner, scm, nf))
    return records, skipped_any


@_cyclic_gc_paused(hand_back=True)
def complete(
    relations: Sequence[TreePolynomial],
    ord: OperationOrder,
    cfg: CompletionConfig | None = None,
) -> tuple[GSBasis, CompletionReport]:
    """Run completion: orient, enumerate compositions, reduce, append.

    Iteration 1 pairs every ordered pair of the oriented, self-reduced
    input; later iterations only pair combinations touching an element
    added in the previous round.  S-polynomials reduce against the basis
    snapshot frozen at the start of each iteration, so reports are
    independent of any parallel execution schedule.

    A composition counts as a nonzero reduction when its monic normal
    form is new for this iteration: the same consequence discovered
    through several overlaps is counted and appended once.  Survivors
    join the working basis as they are; the final basis is self-reduced
    once after the loop ends.  Runs with the cyclic garbage collector
    paused (see the module docstring).
    """
    cfg = cfg or CompletionConfig()
    _validate_input(relations, ord)
    rules = self_reduce([RewriteRule.from_polynomial(r, ord) for r in relations], ord)
    first_new = 0
    iterations: list[IterationRecord] = []
    pair_log: list[list] = []
    status = STATUS_ITERATION_CAP
    arity_skipped = False
    for _ in range(cfg.max_iterations):
        records, skipped = _check_compositions(rules, ord, cfg, first_new)
        arity_skipped = arity_skipped or skipped
        survivors = list(dict.fromkeys(
            rec.normal_form.make_monic(ord) for rec in records if rec.normal_form
        ))
        first_new = len(rules)
        rules = rules + tuple(RewriteRule.from_polynomial(s, ord) for s in survivors)
        iterations.append(IterationRecord(len(records), tuple(survivors)))
        pair_log.append([
            (rec.outer_index, rec.inner_index, rec.scm, not rec.normal_form.is_zero)
            for rec in records
        ])
        if not survivors:
            status = STATUS_ARITY_CAP if arity_skipped else STATUS_CONFIRMED
            break
    final_rules = self_reduce(rules, ord)
    basis = GSBasis(final_rules, ord)
    report = CompletionReport(
        order=ord.as_string(),
        iterations=tuple(iterations),
        status=status,
        basis=basis.polynomials(),
        pair_log=pair_log,
    )
    return basis, report


@dataclass(frozen=True)
class GsbCheck:
    """Outcome of an exhaustive composition check, with certificate."""

    status: str  # "confirmed" | "refuted" | "indeterminate"
    certificate: tuple[CompositionRecord, ...]

    def __bool__(self) -> bool:
        return self.status == "confirmed"


@_cyclic_gc_paused(hand_back=True)
def is_gsb(basis: GSBasis, cfg: CompletionConfig | None = None) -> GsbCheck:
    """Check every composition of the basis; confirmed iff all reduce to 0.

    An arity cap that skipped candidate multiples downgrades a clean run
    to ``indeterminate`` rather than confirming.  Runs with the cyclic
    garbage collector paused (see the module docstring).
    """
    cfg = cfg or CompletionConfig()
    records, skipped_any = _check_compositions(basis.rules, basis.order, cfg)
    if any(rec.normal_form for rec in records):
        status = "refuted"
    elif skipped_any:
        status = "indeterminate"
    else:
        status = "confirmed"
    return GsbCheck(status, tuple(records))
