"""Path-lexicographic order on tree monomials.

Monomials are compared by arity first (more leaves wins), then by their
path sequences word by word, left to right.  Individual words compare
degree-lexicographically: a longer word is greater, words of equal length
compare letter by letter under the chosen total order on operation
symbols.  The leading term of a polynomial is its *maximum* monomial.

A consequence asserted in the tests: for binary signatures a left comb
beats every right comb of the same arity regardless of the symbol order,
because its first path word is longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .trees import OperationSymbol, Signature, TreeError, TreeMonomial, path_words

__all__ = [
    "OperationOrder",
    "compare_monomials",
]

LT, EQ, GT = -1, 0, 1

WordKey = tuple[int, tuple[int, ...]]
MonomialKey = tuple[int, tuple[WordKey, ...]]


@dataclass(frozen=True)
class OperationOrder:
    """A total order on operation symbols, smallest first."""

    ranked: tuple[OperationSymbol, ...]
    _ranks: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _key_cache: dict[TreeMonomial, MonomialKey] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for i, sym in enumerate(self.ranked):
            if sym.name in self._ranks:
                raise TreeError(f"symbol {sym.name!r} ranked twice")
            self._ranks[sym.name] = i

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

    def rank(self, symbol: OperationSymbol | str) -> int:
        name = symbol if isinstance(symbol, str) else symbol.name
        try:
            return self._ranks[name]
        except KeyError:
            raise TreeError(f"symbol {name!r} is not ranked by this order") from None

    def word_key(self, word: Sequence[OperationSymbol | str]) -> WordKey:
        """Degree-lex sort key of a word: length first, then letter ranks."""
        ranks = tuple(self.rank(sym) for sym in word)
        return (len(ranks), ranks)

    def monomial_key(self, t: TreeMonomial) -> MonomialKey:
        """Path-lex sort key: arity, then the path-word keys left to right."""
        key = self._key_cache.get(t)
        if key is None:
            key = (t.arity, tuple(self.word_key(w) for w in path_words(t)))
            self._key_cache[t] = key
        return key


def compare_monomials(s: TreeMonomial, t: TreeMonomial, ord: OperationOrder) -> int:
    """Path-lex comparison; EQ only for structurally identical monomials."""
    ks, kt = ord.monomial_key(s), ord.monomial_key(t)
    return LT if ks < kt else GT if ks > kt else EQ

