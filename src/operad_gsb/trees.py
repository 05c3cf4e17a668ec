"""Planar rooted tree monomials over a signature of generating operations.

A tree monomial is a planar rooted tree whose internal vertices carry
operation symbols; leaves are unlabeled, ordered input slots.  The single
leaf is the arity-1 identity.  Trees are immutable values: safe to hash,
share and compare structurally.

Vertex addresses are tuples of child indices from the root, so ``()`` is
the root and ``(0, 1)`` is the second child of the first child.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "OperationSymbol",
    "Signature",
    "TreeMonomial",
    "TreeError",
    "TreeParseError",
    "LEAF",
    "MAX_TREE_DEPTH",
    "node",
    "path_words",
    "graft",
    "subtree_at",
    "replace_at",
    "internal_vertices",
    "parse_tree",
    "format_tree",
]


class TreeError(ValueError):
    """Structural misuse of tree monomials (bad address, arity mismatch...)."""


class TreeParseError(TreeError):
    """Syntax error in the S-expression tree grammar, with offset info."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class OperationSymbol:
    """A generating operation: a parseable name and an arity >= 2."""

    name: str
    arity: int = 2

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise TreeError(f"invalid operation name {self.name!r}")
        if self.arity < 2:
            raise TreeError(f"operation {self.name!r} must have arity >= 2")

    def __repr__(self) -> str:
        return f"OperationSymbol({self.name!r}, {self.arity})"


@dataclass(frozen=True)
class Signature:
    """An ordered list of operation symbols with pairwise distinct names."""

    symbols: tuple[OperationSymbol, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise TreeError(f"duplicate operation names in signature: {names}")

    def __getitem__(self, name: str) -> OperationSymbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self.symbols)

    @property
    def is_binary(self) -> bool:
        return all(s.arity == 2 for s in self.symbols)


class TreeMonomial:
    """A planar rooted tree; ``label is None`` marks the arity-1 leaf.

    ``arity`` is the number of leaves and ``weight`` the number of internal
    vertices.  Hash and arity are precomputed so polynomial arithmetic can
    treat trees as cheap dictionary keys.
    """

    __slots__ = ("label", "children", "arity", "weight", "_hash")

    label: OperationSymbol | None
    children: tuple["TreeMonomial", ...]
    arity: int
    weight: int

    def __init__(
        self,
        label: OperationSymbol | None = None,
        children: Sequence["TreeMonomial"] = (),
    ):
        children = tuple(children)
        if label is None:
            if children:
                raise TreeError("a leaf has no children")
            arity, weight = 1, 0
        else:
            if len(children) != label.arity:
                raise TreeError(
                    f"operation {label.name!r} has arity {label.arity}, "
                    f"got {len(children)} children"
                )
            arity = sum(c.arity for c in children)
            weight = 1 + sum(c.weight for c in children)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_hash", hash((label, children)))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TreeMonomial is immutable")

    @property
    def is_leaf(self) -> bool:
        return self.label is None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, TreeMonomial):
            return NotImplemented
        return (
            self._hash == other._hash
            and (self.label is other.label or self.label == other.label)
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TreeMonomial<{format_tree(self)}>"


LEAF = TreeMonomial()


def node(label: OperationSymbol, *children: TreeMonomial) -> TreeMonomial:
    """Shorthand constructor for an internal vertex."""
    return TreeMonomial(label, children)


def path_words(t: TreeMonomial) -> tuple[tuple[str, ...], ...]:
    """Associate to each leaf, left to right, the word of internal labels
    from the root to it.  The single leaf maps to one empty word.
    """
    if t.is_leaf:
        return ((),)
    name = t.label.name
    return tuple(
        (name,) + w for child in t.children for w in path_words(child)
    )


def graft(outer: TreeMonomial, inners: Sequence[TreeMonomial]) -> TreeMonomial:
    """Operadic composition: substitute ``inners[k]`` for the k-th leaf.

    Requires ``len(inners) == outer.arity``; grafting a leaf at a slot is
    the identity on that slot, and grafting into the leaf returns the
    single substituted tree.
    """
    inners = tuple(inners)
    if len(inners) != outer.arity:
        raise TreeError(
            f"graft needs {outer.arity} trees for an arity-{outer.arity} "
            f"monomial, got {len(inners)}"
        )
    tree, rest = _graft(outer, inners)
    assert not rest
    return tree


def _graft(t: TreeMonomial, inners: tuple) -> tuple[TreeMonomial, tuple]:
    if t.is_leaf:
        return inners[0], inners[1:]
    new_children = []
    for child in t.children:
        sub, inners = _graft(child, inners)
        new_children.append(sub)
    if all(a is b for a, b in zip(new_children, t.children)):
        return t, inners
    return TreeMonomial(t.label, new_children), inners


def subtree_at(t: TreeMonomial, vertex: Sequence[int]) -> TreeMonomial:
    """Return the full subtree rooted at an internal-vertex address."""
    cur = t
    for i, step in enumerate(vertex):
        if cur.is_leaf or not 0 <= step < len(cur.children):
            raise TreeError(f"invalid vertex address {tuple(vertex)!r} at depth {i}")
        cur = cur.children[step]
    if cur.is_leaf:
        raise TreeError(f"address {tuple(vertex)!r} points at a leaf, not an internal vertex")
    return cur


def replace_at(t: TreeMonomial, vertex: Sequence[int], replacement: TreeMonomial) -> TreeMonomial:
    """Return ``t`` with the subtree at ``vertex`` swapped for ``replacement``."""
    if not vertex:
        return replacement
    step = vertex[0]
    if t.is_leaf or not 0 <= step < len(t.children):
        raise TreeError(f"invalid vertex address {tuple(vertex)!r}")
    children = list(t.children)
    children[step] = replace_at(children[step], vertex[1:], replacement)
    return TreeMonomial(t.label, children)


def internal_vertices(t: TreeMonomial) -> Iterator[tuple[int, ...]]:
    """Yield internal-vertex addresses in preorder (root first)."""
    if t.is_leaf:
        return
    stack = [((), t)]
    while stack:
        addr, cur = stack.pop()
        yield addr
        for i in range(len(cur.children) - 1, -1, -1):
            child = cur.children[i]
            if not child.is_leaf:
                stack.append((addr + (i,), child))


# also tokenizes +, -, / and integers so polynomial text can share it
_TOKEN_RE = re.compile(r"\s*(\(|\)|\*|\+|-|/|\d+|[A-Za-z_][A-Za-z0-9_]*|\S)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        tok = m.group(1)
        if tok not in "()*+-/" and not tok.isdigit() and not _NAME_RE.match(tok):
            raise TreeParseError(f"unexpected character {tok!r}", m.start(1))
        tokens.append((tok, m.start(1)))
        pos = m.end()
    return tokens


# Deepest vertex nesting the parser accepts.  The recursive helpers
# (``_graft``, ``replace_at``, ``format_tree``, ``path_words`` and the
# matcher) use at most two frames per level, so trees this deep stay well
# under Python's default recursion limit of 1000 frames.
MAX_TREE_DEPTH = 300


def parse_tree(text: str, sig: Signature) -> TreeMonomial:
    """Parse ``"*"`` or ``"(symbol tree...)"`` into a tree monomial.

    Nesting deeper than ``MAX_TREE_DEPTH`` vertices is rejected.
    """
    tokens = _tokenize(text)
    tree, rest = _parse_tree_tokens(tokens, sig)
    if rest:
        raise TreeParseError("trailing input after tree", rest[0][1])
    return tree


def _parse_tree_tokens(tokens, sig: Signature, depth: int = 0):
    if not tokens:
        raise TreeParseError("unexpected end of input", 0)
    tok, pos = tokens[0]
    if tok == "*":
        return LEAF, tokens[1:]
    if tok != "(":
        raise TreeParseError(f"expected '(' or '*', got {tok!r}", pos)
    if depth == MAX_TREE_DEPTH:
        raise TreeParseError(f"tree nested deeper than {MAX_TREE_DEPTH} vertices", pos)
    if len(tokens) < 2:
        raise TreeParseError("unexpected end of input after '('", pos)
    name, name_pos = tokens[1]
    if name in "()*":
        raise TreeParseError(f"expected operation name, got {name!r}", name_pos)
    if name not in sig:
        raise TreeParseError(f"unknown operation {name!r}", name_pos)
    sym = sig[name]
    rest = tokens[2:]
    children = []
    for _ in range(sym.arity):
        child, rest = _parse_tree_tokens(rest, sig, depth + 1)
        children.append(child)
    if not rest or rest[0][0] != ")":
        where = rest[0][1] if rest else pos
        raise TreeParseError(
            f"expected ')' closing arity-{sym.arity} operation {name!r}", where
        )
    return TreeMonomial(sym, children), rest[1:]


def format_tree(t: TreeMonomial) -> str:
    """Render a tree monomial in the S-expression grammar."""
    if t.is_leaf:
        return "*"
    inner = " ".join(format_tree(c) for c in t.children)
    return f"({t.label.name} {inner})"
