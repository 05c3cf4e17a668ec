"""Built-in presentations and the relation-file parser.

Every presentation is parsed from relation text by ``parse_presentation``.
``PRESETS`` maps each built-in name to its text: the ``docs/*.rel`` file
without its ``order:`` line, so a preset carries no preferred order.

The dendriform presentation has two binary operations ``prec`` and
``succ``; its three relations say that the left action is associative
over the sum of both products, the right action over itself, and the two
actions commute.  The quadri presentation has four binary operations
``a``, ``b``, ``c``, ``d`` (south-east, north-east, north-west,
south-west) with the nine compatibility relations tying them to the two
dendriform structures ``prec = c + d``, ``succ = a + b`` and
``wedge = b + c``, ``vee = a + d``; ``*`` in a comment is the sum of all
four.

Relation-file grammar (UTF-8, line oriented, ``#`` starts a comment line;
``order:`` is optional and ``--order`` overrides it)::

    ops: <name>[/<arity>] ...
    order: <name> < <name> < ...
    rel: <polynomial text>            (one line per relation)
"""

from __future__ import annotations

from dataclasses import dataclass

from .ordering import OperationOrder
from .polynomials import TreePolynomial, parse_polynomial
from .trees import OperationSymbol, Signature, TreeError

__all__ = [
    "Presentation",
    "PresentationError",
    "PRESETS",
    "dendriform",
    "quadri",
    "parse_presentation",
]


class PresentationError(TreeError):
    """Invalid presentation input (file syntax, zero relation, arity)."""


@dataclass(frozen=True)
class Presentation:
    """A signature with multilinear defining relations."""

    signature: Signature
    relations: tuple[TreePolynomial, ...]
    name: str
    preferred_order: OperationOrder | None = None

    def __post_init__(self) -> None:
        for i, rel in enumerate(self.relations):
            if rel.is_zero:
                raise PresentationError(f"relation {i + 1} is zero")
            if rel.arity < 3:
                raise PresentationError(
                    f"relation {i + 1} has arity {rel.arity}; expected >= 3"
                )


DENDRIFORM = """\
ops: prec succ
# (x succ y) prec z = x succ (y prec z)
rel: (prec (succ * *) *) - (succ * (prec * *))
# (x prec y) prec z = x prec (y prec z) + x prec (y succ z)
rel: (prec (prec * *) *) - (prec * (prec * *)) - (prec * (succ * *))
# x succ (y succ z) = (x prec y) succ z + (x succ y) succ z
rel: (succ * (succ * *)) - (succ (succ * *) *) - (succ (prec * *) *)
"""

QUADRI = """\
# a, b, c, d: south-east, north-east, north-west, south-west
ops: a b c d
# (x c y) c z = x c (y * z)
rel: (c (c * *) *) - (c * (a * *)) - (c * (b * *)) - (c * (c * *)) - (c * (d * *))
# (x d y) c z = x d (y wedge z)
rel: (c (d * *) *) - (d * (b * *)) - (d * (c * *))
# (x prec y) d z = x d (y vee z)
rel: (d (d * *) *) + (d (c * *) *) - (d * (a * *)) - (d * (d * *))
# (x b y) c z = x b (y prec z)
rel: (c (b * *) *) - (b * (c * *)) - (b * (d * *))
# (x a y) c z = x a (y c z)
rel: (c (a * *) *) - (a * (c * *))
# (x succ y) d z = x a (y d z)
rel: (d (a * *) *) + (d (b * *) *) - (a * (d * *))
# (x wedge y) b z = x b (y succ z)
rel: (b (b * *) *) + (b (c * *) *) - (b * (b * *)) - (b * (a * *))
# (x vee y) b z = x a (y b z)
rel: (b (a * *) *) + (b (d * *) *) - (a * (b * *))
# (x * y) a z = x a (y a z)
rel: (a (a * *) *) + (a (b * *) *) + (a (c * *) *) + (a (d * *) *) - (a * (a * *))
"""

# preset name -> relation text; the CLI's ``--preset`` choices
PRESETS = {"dendriform": DENDRIFORM, "quadri": QUADRI}


def dendriform() -> Presentation:
    """Two operations, three arity-3 relations."""
    return parse_presentation(DENDRIFORM, "dendriform")


def quadri() -> Presentation:
    """Four operations, nine arity-3 relations."""
    return parse_presentation(QUADRI, "quadri")


def parse_presentation(text: str, name: str = "user") -> Presentation:
    """Parse the line-oriented relation-file grammar into a presentation."""
    symbols: list[OperationSymbol] = []
    rel_lines: list[tuple[int, str]] = []
    order_line: tuple[int, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("ops", "order", "rel"):
            raise PresentationError(
                f"line {lineno}: expected 'ops:', 'order:' or 'rel:', got {line!r}"
            )
        if key == "ops":
            for chunk in rest.split():
                opname, slash, ar = chunk.partition("/")
                try:
                    arity = int(ar) if slash else 2
                    symbols.append(OperationSymbol(opname, arity))
                except (ValueError, TreeError) as exc:
                    raise PresentationError(f"line {lineno}: {exc}") from exc
        elif key == "order":
            if order_line is not None:
                raise PresentationError(f"line {lineno}: duplicate order line")
            order_line = (lineno, rest.strip())
        else:
            rel_lines.append((lineno, rest.strip()))
    if not symbols:
        raise PresentationError("no 'ops:' line")
    try:
        sig = Signature(tuple(symbols))
    except TreeError as exc:
        raise PresentationError(str(exc)) from exc
    relations = []
    for lineno, rel_text in rel_lines:
        try:
            rel = parse_polynomial(rel_text, sig)
        except TreeError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc
        if rel.is_zero:
            raise PresentationError(f"line {lineno}: relation is zero")
        relations.append(rel)
    if not relations:
        raise PresentationError("no 'rel:' lines")
    preferred = None
    if order_line is not None:
        lineno, order_text = order_line
        try:
            preferred = OperationOrder.from_string(order_text, sig)
        except TreeError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc
    return Presentation(sig, tuple(relations), name, preferred)
