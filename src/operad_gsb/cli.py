"""Command-line frontend: completion, reduction, counting, order sweeps.

Exit codes: 0 for success (``complete`` additionally requires a confirmed
basis), 1 for usage or input errors, 2 when completion stopped at a cap
(iterations or arity).  Reduction has no cap: every rule is oriented by
the order, so every reduction terminates.  Identical invocations produce
byte-identical output; the sweep may run its completions in parallel
(``OPERAD_GSB_THREADS``, a positive integer clamped to the CPU count)
without affecting the result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .completion import (
    STATUS_CONFIRMED,
    CompletionConfig,
    CompletionReport,
    complete,
)
from .enumeration import (
    GuardError,
    catalan,
    count_normal,
    oracle_dimensions,
    quadri_dim,
)
from .ordering import OperationOrder
from .polynomials import format_polynomial, parse_polynomial
from .presets import PRESETS, Presentation, parse_presentation
from .rewriting import RewriteRule, normal_form
from .trees import TreeError

__all__ = ["main"]


class UsageError(Exception):
    pass


# the completion caps: ``CompletionConfig`` field -> flag
_CAPS = {"max_iterations": "--max-iterations", "max_arity": "--max-arity"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        parsed, extras = self.parse_known_args(argv, namespace)
        if extras:
            named = self._unrecognized(argv, parsed, extras)
            self.error(f"unrecognized arguments: {' '.join(named)}")
        return parsed

    def _unrecognized(self, argv: list[str], parsed, extras: list[str]) -> list[str]:
        # argparse gives the argument after an unknown option to the one
        # positional, reduce's polynomial.  Every polynomial holds a leaf
        # "*"; an argument without one was the option's value, so name the
        # two together, as when the option comes last.  Otherwise the
        # option may be a flag and the extras are named as they are.
        polynomial = getattr(parsed, "polynomial", None)
        for i, arg in enumerate(argv[:-1]):
            value = argv[i + 1]
            if arg in extras and arg.startswith("-") and value == polynomial and "*" not in value:
                try:
                    _, rest = self.parse_known_args(argv[:i] + argv[i + 2 :])
                except UsageError:
                    break
                return [arg, value, *rest]
        return extras


def _build_parser() -> _Parser:
    parser = _Parser(prog="operad-gsb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, need_order: bool = True) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=list(PRESETS))
        src.add_argument("--relations", type=Path, metavar="PATH")
        if need_order:
            p.add_argument("--order", help='e.g. "prec<succ" or "c<b<d<a"')
        # None until given, so that ``reduce --relations`` can refuse them
        for flag in _CAPS.values():
            p.add_argument(flag, type=int, default=None)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", type=Path, default=None)

    p_complete = sub.add_parser("complete", help="run completion, print the basis")
    add_common(p_complete)

    p_reduce = sub.add_parser("reduce", help="normal form of a polynomial")
    add_common(p_reduce)
    p_reduce.add_argument("polynomial", help="polynomial text to reduce")
    p_reduce.add_argument("--trace", action="store_true", help="emit reduction steps")

    p_count = sub.add_parser("count", help="normal-monomial dimension table")
    add_common(p_count)
    p_count.add_argument("--n-max", type=int, default=5)
    p_count.add_argument("--oracle-max", type=int, default=5,
                         help="largest arity for the linear-algebra oracle")

    p_table = sub.add_parser("table1", help="sweep all total orders of operations")
    add_common(p_table, need_order=False)
    return parser


def _read_source(args) -> tuple[str, str]:
    """``(relation text, name)`` for ``--preset`` or ``--relations``.

    A preset is its built-in relation text, so both sources go through
    ``parse_presentation``.  The pair is picklable: sweep workers parse
    the presentation from it without reading the file again.
    """
    path: Path | None = args.relations
    if path is None:
        return PRESETS[args.preset], args.preset
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc
    return text, path.stem


def _load_presentation(args) -> Presentation:
    return parse_presentation(*_read_source(args))


def _resolve_order(args, pres: Presentation) -> OperationOrder:
    if getattr(args, "order", None) is not None:
        return OperationOrder.from_string(args.order, pres.signature)
    if pres.preferred_order is not None:
        return pres.preferred_order
    raise UsageError("no --order given and the presentation declares none")


def _config(args) -> CompletionConfig:
    """The caps given on the command line, the defaults for the others."""
    return CompletionConfig(
        **{cap: getattr(args, cap) for cap in _CAPS if getattr(args, cap) is not None}
    )


@contextlib.contextmanager
def _writing(path: Path):
    """Report an OS error on ``path`` as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_file(path: Path, text: str) -> None:
    """Write ``text``, ending in a newline; an unwritable path is a usage error."""
    with _writing(path):
        path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _probe_out(path: Path | None) -> None:
    """Fail before any work is done if ``--out`` cannot be written.

    Opening for append leaves an existing file as it is, and a file the
    probe creates is removed again, so a command that fails later leaves
    the path as it found it.
    """
    if path is None:
        return
    existed = os.path.lexists(path)
    with _writing(path):
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            path.unlink()


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_file(out, text)


def _report_text(report: CompletionReport, ord: OperationOrder) -> str:
    lines = [f"order: {report.order}"]
    for k, rec in enumerate(report.iterations, start=1):
        lines.append(
            f"iteration {k}: {rec.compositions} compositions, "
            f"{rec.nonzero} nonzero"
        )
        for poly in rec.added:
            lines.append(f"  added: {format_polynomial(poly, ord)}")
    lines.append(f"status: {report.status}")
    lines.append(f"basis ({report.basis_size} elements):")
    for poly in report.basis:
        lines.append(f"  {format_polynomial(poly, ord)}")
    return "\n".join(lines)


def _cmd_complete(args) -> int:
    pres = _load_presentation(args)
    ord = _resolve_order(args, pres)
    _, report = complete(pres.relations, ord, _config(args))
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(ord), indent=2), args.out)
    else:
        _emit(_report_text(report, ord), args.out)
    return 0 if report.status == STATUS_CONFIRMED else 2


def _cmd_reduce(args) -> int:
    if args.relations is not None:
        # a relation file is taken as the rewriting system itself,
        # oriented but not completed, so no completion cap applies
        for cap, flag in _CAPS.items():
            if getattr(args, cap) is not None:
                raise UsageError(f"{flag} does not apply to reduce --relations, "
                                 "which reduces without completion")
    pres = _load_presentation(args)
    ord = _resolve_order(args, pres)
    poly = parse_polynomial(args.polynomial, pres.signature)
    if args.relations is not None:
        rules = tuple(RewriteRule.from_polynomial(r, ord) for r in pres.relations)
    else:
        basis, report = complete(pres.relations, ord, _config(args))
        if report.status != STATUS_CONFIRMED:
            sys.stderr.write(
                f"warning: basis not confirmed ({report.status}); "
                "normal forms may not be canonical\n"
            )
        rules = basis.rules
    trace: list | None = [] if args.trace else None
    nf = normal_form(poly, rules, ord, trace=trace)
    body = format_polynomial(nf, ord)
    if args.format == "json":
        doc = {"input": args.polynomial, "normal_form": body}
        if trace is not None:
            doc["trace"] = [[idx, list(vertex)] for idx, vertex in trace]
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [body]
        if trace is not None:
            lines.append(json.dumps([[idx, list(vertex)] for idx, vertex in trace]))
        _emit("\n".join(lines), args.out)
    return 0


def _formula_for(pres: Presentation):
    """The closed form of a preset's dimensions when ``pres`` has that
    preset's operations and relations, whatever its name; else None."""
    def content(p: Presentation) -> tuple:
        return set(p.signature.symbols), set(p.relations)

    for name, formula in (("dendriform", catalan), ("quadri", quadri_dim)):
        if content(pres) == content(parse_presentation(PRESETS[name])):
            return formula
    return None


def _oracle_column(pres: Presentation, n: int) -> dict[int, int]:
    """The rank oracle's dimensions of arities 1..``n``, from one quotient
    grown arity by arity.  Once it refuses an arity, every later one is
    refused at that same arity; each refused arity gets a warning on
    stderr and no entry."""
    column: dict[int, int] = {}
    dims = oracle_dimensions(pres)
    try:
        for arity in range(1, n + 1):
            column[arity] = next(dims)
    except GuardError as exc:
        for arity in range(len(column) + 1, n + 1):
            sys.stderr.write(f"warning: oracle skipped at arity {arity}: {exc}\n")
    return column


def _cmd_count(args) -> int:
    if args.n_max < 1:
        raise UsageError(f"--n-max must be at least 1, got {args.n_max}")
    if args.oracle_max < 0:
        raise UsageError(f"--oracle-max must be at least 0, got {args.oracle_max}")
    pres = _load_presentation(args)
    ord = _resolve_order(args, pres)
    basis, report = complete(pres.relations, ord, _config(args))
    if report.status != STATUS_CONFIRMED:
        sys.stderr.write(f"warning: basis not confirmed ({report.status})\n")
    formula = _formula_for(pres)
    oracle = _oracle_column(pres, min(args.n_max, args.oracle_max))
    rows = []
    for n in range(1, args.n_max + 1):
        rows.append({
            "arity": n,
            "normal_count": count_normal(basis, n),
            "formula_value": formula(n) if formula else None,
            "oracle_value": oracle.get(n),
        })
    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.out)
    else:
        # a missing formula or oracle value prints as "-"
        cells = [("arity", "normal", "formula", "oracle")]
        cells += [["-" if v is None else v for v in row.values()] for row in rows]
        lines = ["  ".join(f"{c:>{w}}" for c, w in zip(r, (5, 12, 12, 12))) for r in cells]
        _emit("\n".join(lines), args.out)
    return 0


def _sweep_orders(pres: Presentation) -> list[str]:
    names = sorted(s.name for s in pres.signature.symbols)
    return ["<".join(p) for p in itertools.permutations(names)]


def _sweep_one(payload: tuple) -> dict:
    source, order_text, cfg = payload
    pres = parse_presentation(*source)
    ord = OperationOrder.from_string(order_text, pres.signature)
    _, report = complete(pres.relations, ord, cfg)
    return report.to_json_dict(ord)


def _worker_count() -> int:
    """``OPERAD_GSB_THREADS`` (default 1), clamped to the CPU count."""
    raw = os.environ.get("OPERAD_GSB_THREADS", "1")
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise UsageError(f"OPERAD_GSB_THREADS must be a positive integer, got {raw!r}")
    return min(int(raw), os.cpu_count() or 1)


def _gsb_marker(row: dict) -> str:
    if row["status"] == STATUS_CONFIRMED:
        return f"GSB at iteration {len(row['iterations'])}"
    return f"stopped: {row['status']}"


def _cmd_table1(args) -> int:
    threads = _worker_count()
    source = _read_source(args)
    pres = parse_presentation(*source)
    if not pres.signature.is_binary:
        raise UsageError("order sweep needs a binary presentation")
    orders = _sweep_orders(pres)
    cfg = _config(args)
    payloads = [(source, order, cfg) for order in orders]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_one, payloads))
    else:
        rows = [_sweep_one(p) for p in payloads]
    doc = {"presentation": pres.name, "rows": rows}
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
        return 0
    width = max(len(o) for o in orders)
    max_iter = max(len(r["iterations"]) for r in rows)
    header = f"{'order':<{width}}"
    for k in range(1, max_iter + 1):
        header += f"  {'comp' + str(k):>7} {'red' + str(k):>6}"
    header += "  result"
    lines = [header]
    for order, row in zip(orders, rows):
        line = f"{order:<{width}}"
        for k in range(max_iter):
            if k < len(row["iterations"]):
                it = row["iterations"][k]
                line += f"  {it['compositions']:>7} {it['nonzero']:>6}"
            else:
                line += f"  {'--':>7} {'--':>6}"
        line += f"  {_gsb_marker(row)}"
        lines.append(line)
    text = "\n".join(lines)
    if args.out is not None:
        # text table to stdout, machine-readable JSON to the output path
        _write_file(args.out, json.dumps(doc, indent=2))
    sys.stdout.write(text + "\n")
    return 0


_COMMANDS = {
    "complete": _cmd_complete,
    "reduce": _cmd_reduce,
    "count": _cmd_count,
    "table1": _cmd_table1,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _probe_out(args.out)
        return _COMMANDS[args.command](args)
    except (UsageError, TreeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
