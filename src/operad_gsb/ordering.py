"""Path-lexicographic order on tree monomials.

An order ranks interned operation symbols, so ``f/2`` and ``f/3`` are
two symbols and a tree with an unranked one has no key.  Each tree is
read as its path words: for each leaf, left to right, the ranks of the
labels on the way from the root to it.  Monomials are compared by arity
first (more leaves wins), then by these words one by one, left to
right.  Individual words compare degree-lexicographically: a longer word
is greater, words of equal length compare rank by rank.  The leading
term of a polynomial is its *maximum* monomial.

A consequence asserted in the tests: for binary signatures a left comb
beats every right comb of the same arity regardless of the symbol order,
because its first path word is longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trees import OperationSymbol, Signature, TreeError, TreeMonomial

__all__ = [
    "OperationOrder",
    "compare_monomials",
]

LT, EQ, GT = -1, 0, 1

MonomialKey = tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]


@dataclass(frozen=True)
class OperationOrder:
    """A total order on operation symbols, smallest first."""

    ranked: tuple[OperationSymbol, ...]
    _ranks: dict[OperationSymbol, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _key_cache: dict[TreeMonomial, MonomialKey] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        Signature(self.ranked)  # refuses two symbols of one name
        self._ranks.update((sym, i) for i, sym in enumerate(self.ranked))

    @classmethod
    def from_string(cls, text: str, sig: Signature) -> "OperationOrder":
        """Parse e.g. ``"c<b<d<a"`` against a signature (must rank it all)."""
        names = [part.strip() for part in text.split("<")]
        if any(not n for n in names):
            raise TreeError(f"malformed order string {text!r}")
        seen = set()
        ranked = []
        for name in names:
            if name not in sig:
                raise TreeError(f"order string ranks unknown symbol {name!r}")
            if name in seen:
                raise TreeError(f"order string ranks {name!r} twice")
            seen.add(name)
            ranked.append(sig[name])
        missing = [s.name for s in sig.symbols if s.name not in seen]
        if missing:
            raise TreeError(f"order string leaves symbols unranked: {missing}")
        return cls(tuple(ranked))

    @property
    def signature(self) -> Signature:
        return Signature(self.ranked)

    def as_string(self) -> str:
        return "<".join(s.name for s in self.ranked)

    def rank(self, symbol: OperationSymbol) -> int:
        """Position of ``symbol`` in the order; an unranked symbol, ``f/3``
        under an order that ranks ``f/2`` included, is a ``TreeError``."""
        try:
            return self._ranks[symbol]
        except KeyError:
            raise TreeError(
                f"operation {symbol.name}/{symbol.arity} is not ranked by this order"
            ) from None

    def monomial_key(self, t: TreeMonomial) -> MonomialKey:
        """Path-lex sort key: the arity, then ``(len(w), w)`` for each path
        word ``w`` of ranks, left to right.  Cached per tree."""
        key = self._key_cache.get(t)
        if key is None:
            key = (t.arity, tuple((len(w), w) for w in self._rank_words(t)))
            self._key_cache[t] = key
        return key

    def _rank_words(self, t: TreeMonomial) -> tuple[tuple[int, ...], ...]:
        # the path words of ``t`` in ranks; the single leaf has one empty word
        if t.label is None:
            return ((),)
        r = self.rank(t.label)
        return tuple((r,) + w for c in t.children for w in self._rank_words(c))


def compare_monomials(s: TreeMonomial, t: TreeMonomial, ord: OperationOrder) -> int:
    """Path-lex comparison; EQ only for structurally identical monomials."""
    ks, kt = ord.monomial_key(s), ord.monomial_key(t)
    return LT if ks < kt else GT if ks > kt else EQ

