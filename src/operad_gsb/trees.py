"""Planar rooted tree monomials over a signature of generating operations.

A tree monomial is a planar rooted tree whose internal vertices carry
operation symbols; leaves are unlabeled, ordered input slots.  The single
leaf is the arity-1 identity.  Trees are immutable and hash-consed: the
constructor returns the one live tree with a given label and children,
so equal trees are the same object and compare and hash by identity.
Operation symbols are interned the same way, so a label test is an
identity test.  Tree and symbol hashes therefore differ from process to
process; no output depends on them.

Vertex addresses are tuples of child indices from the root, so ``()`` is
the root and ``(0, 1)`` is the second child of the first child.
"""

from __future__ import annotations

import functools
import re
import weakref
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
    "subtrees",
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


# (name, arity) -> the live symbol; ``_INTERNED`` keeps every label alive anyway
_SYMBOLS: dict[tuple[str, int], OperationSymbol] = {}


@dataclass(frozen=True, eq=False, init=False)  # ``__new__`` sets the fields
class OperationSymbol:
    """A generating operation: a parseable name and an arity >= 2.

    Interned: equal symbols are one object, so they compare and hash by
    identity.  ``f/2`` and ``f/3`` are two symbols."""

    name: str
    arity: int = 2

    def __new__(cls, name: str, arity: int = 2) -> OperationSymbol:
        sym = _SYMBOLS.get((name, arity))
        if sym is None:
            if not _NAME_RE.match(name):
                raise TreeError(f"invalid operation name {name!r}")
            if arity < 2:
                raise TreeError(f"operation {name!r} must have arity >= 2")
            sym = _SYMBOLS[name, arity] = super().__new__(cls)
            object.__setattr__(sym, "name", name)
            object.__setattr__(sym, "arity", arity)
        return sym

    def __reduce__(self):
        # unpickling and copying return the live symbol
        return OperationSymbol, (self.name, self.arity)

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


# Deepest vertex nesting of any tree.  The recursive helpers (``_graft``,
# ``replace_at``, ``format_tree``, ``path_words``, ``_match``, ``_merge``
# and ``Reducer._redex``) use at most two frames per level, so trees this
# deep stay well under Python's default recursion limit of 1000 frames.
MAX_TREE_DEPTH = 300


# label -> {children: the live tree with that label and children}.  A
# tree leaves its table when its last reference goes, so the tables hold
# no dead trees.
_INTERNED: dict[OperationSymbol | None, weakref.WeakValueDictionary] = {}


class _HashConsed(type):
    """Calling the class returns the live tree of the value if there is
    one, so ``__init__`` and its checks run once per distinct tree."""

    def __call__(
        cls,
        label: OperationSymbol | None = None,
        children: Sequence[TreeMonomial] = (),
    ) -> TreeMonomial:
        children = tuple(children)
        table = _INTERNED.get(label)
        if table is None:
            table = _INTERNED[label] = weakref.WeakValueDictionary()
        tree = table.get(children)
        if tree is None:
            tree = table[children] = super().__call__(label, children)
        return tree


class TreeMonomial(metaclass=_HashConsed):
    """A planar rooted tree; ``label is None`` marks the arity-1 leaf.

    ``arity`` is the number of leaves and ``depth`` the number of internal
    vertices on the longest root-to-leaf path.  Trees are hash-consed:
    equal trees are one object, so equality and hashing are identity and
    polynomial arithmetic uses trees as cheap dictionary keys.  A tree
    deeper than ``MAX_TREE_DEPTH`` is refused, whether parsed or built by
    grafting and reduction.
    """

    __slots__ = ("label", "children", "arity", "depth", "__weakref__")

    label: OperationSymbol | None
    children: tuple["TreeMonomial", ...]
    arity: int
    depth: int

    def __init__(
        self,
        label: OperationSymbol | None = None,
        children: tuple["TreeMonomial", ...] = (),
    ):
        if label is None:
            if children:
                raise TreeError("a leaf has no children")
            arity, depth = 1, 0
        else:
            if len(children) != label.arity:
                raise TreeError(
                    f"operation {label.name!r} has arity {label.arity}, "
                    f"got {len(children)} children"
                )
            arity = depth = 0
            for c in children:
                arity += c.arity
                if c.depth > depth:
                    depth = c.depth
            depth += 1
            if depth > MAX_TREE_DEPTH:
                raise TreeError(f"tree nested deeper than {MAX_TREE_DEPTH} vertices")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "depth", depth)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TreeMonomial is immutable")

    def __reduce__(self):
        # rebuilt through the constructor, so unpickling and copying
        # return the live tree of the value
        return TreeMonomial, (self.label, self.children)

    def __deepcopy__(self, memo):
        # the generic deep copy recurses several frames per level, too
        # many for a tree of ``MAX_TREE_DEPTH``
        return self

    @property
    def is_leaf(self) -> bool:
        return self.label is None

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
    return _memo_graft(outer, inners)


# Completion embeds the same rule monomials into the same bindings again
# and again.  The memo is bounded because it keeps its trees alive.
_GRAFT_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_GRAFT_MEMO_SIZE)
def _memo_graft(outer: TreeMonomial, inners: tuple[TreeMonomial, ...]) -> TreeMonomial:
    return _graft(outer, iter(inners))


def _graft(t: TreeMonomial, inners: Iterator[TreeMonomial]) -> TreeMonomial:
    """``t`` with each leaf, left to right, replaced by the next of ``inners``."""
    if t.is_leaf:
        return next(inners)
    children = [_graft(child, inners) for child in t.children]
    if all(a is b for a, b in zip(children, t.children)):
        return t
    return TreeMonomial(t.label, children)


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


def subtrees(t: TreeMonomial) -> Iterator[tuple[tuple[int, ...], TreeMonomial]]:
    """Yield ``(address, subtree)`` for every internal vertex, in preorder
    (root first)."""
    stack = [] if t.label is None else [((), t)]
    while stack:
        addr, cur = stack.pop()
        yield addr, cur
        children = cur.children
        for i in range(len(children) - 1, -1, -1):
            if children[i].label is not None:
                stack.append((addr + (i,), children[i]))


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


def parse_tree(text: str, sig: Signature) -> TreeMonomial:
    """Parse ``"*"`` or ``"(symbol tree...)"`` into a tree monomial.

    Nesting deeper than ``MAX_TREE_DEPTH`` vertices is rejected with the
    offset of the first vertex too many, before the parser's own
    recursion goes that deep.
    """
    tokens = _tokenize(text)
    tree, i = _parse_tree_tokens(tokens, 0, sig)
    if i < len(tokens):
        raise TreeParseError("trailing input after tree", tokens[i][1])
    return tree


def _parse_tree_tokens(tokens, i: int, sig: Signature, depth: int = 0):
    """Parse the tree starting at ``tokens[i]``; return it and the index
    just past it."""
    if i >= len(tokens):
        end = tokens[-1][1] + len(tokens[-1][0]) if tokens else 0
        raise TreeParseError("unexpected end of input", end)
    tok, pos = tokens[i]
    if tok == "*":
        return LEAF, i + 1
    if tok != "(":
        raise TreeParseError(f"expected '(' or '*', got {tok!r}", pos)
    if depth == MAX_TREE_DEPTH:
        raise TreeParseError(f"tree nested deeper than {MAX_TREE_DEPTH} vertices", pos)
    if i + 1 >= len(tokens):
        raise TreeParseError("unexpected end of input after '('", pos)
    name, name_pos = tokens[i + 1]
    if name in "()*":
        raise TreeParseError(f"expected operation name, got {name!r}", name_pos)
    if name not in sig:
        raise TreeParseError(f"unknown operation {name!r}", name_pos)
    sym = sig[name]
    i += 2
    children = []
    for _ in range(sym.arity):
        child, i = _parse_tree_tokens(tokens, i, sig, depth + 1)
        children.append(child)
    if i >= len(tokens) or tokens[i][0] != ")":
        where = tokens[i][1] if i < len(tokens) else pos
        raise TreeParseError(
            f"expected ')' closing arity-{sym.arity} operation {name!r}", where
        )
    return TreeMonomial(sym, children), i + 1


def format_tree(t: TreeMonomial) -> str:
    """Render a tree monomial in the S-expression grammar."""
    if t.is_leaf:
        return "*"
    inner = " ".join(format_tree(c) for c in t.children)
    return f"({t.label.name} {inner})"
