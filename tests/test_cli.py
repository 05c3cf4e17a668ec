"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from operad_gsb import cli, enumeration
from operad_gsb.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complete_dendriform_up(capsys):
    code, out, _ = run(capsys, "complete", "--preset", "dendriform", "--order", "prec<succ")
    assert code == 0
    assert "iteration 1: 4 compositions, 0 nonzero" in out
    assert "status: gsb_confirmed" in out
    assert "basis (3 elements):" in out


def test_complete_quadri_good_order_json(capsys):
    code, out, _ = run(
        capsys, "complete", "--preset", "quadri", "--order", "c<b<d<a",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == "c<b<d<a"
    assert doc["iterations"] == [{"compositions": 16, "nonzero": 0, "added": []}]
    assert doc["status"] == "gsb_confirmed"
    assert len(doc["basis"]) == 9


def test_complete_cap_stop_exit_code(capsys):
    code, out, _ = run(
        capsys, "complete", "--preset", "quadri", "--order", "a<b<d<c",
        "--max-iterations", "2", "--format", "json",
    )
    assert code == 2
    doc = json.loads(out)
    counts = [(it["compositions"], it["nonzero"]) for it in doc["iterations"]]
    assert counts == [(25, 10), (82, 41)]
    assert doc["status"] == "iteration_cap"


def test_reduce_relation_to_zero(capsys):
    code, out, _ = run(
        capsys, "reduce", "--preset", "dendriform", "--order", "prec<succ",
        "(prec (succ * *) *) - (succ * (prec * *))",
    )
    assert code == 0
    assert out.strip() == "0"


def test_reduce_normal_monomial(capsys):
    code, out, _ = run(
        capsys, "reduce", "--preset", "dendriform", "--order", "prec<succ",
        "(succ * (prec * *))",
    )
    assert code == 0
    assert out.strip() == "(succ * (prec * *))"


def test_reduce_against_file_without_completion(capsys):
    # the overlap of the last two relations, reduced against the three
    # input relations alone, yields the cubic basis element
    spoly = (
        "- (succ (succ (prec * *) *) *) - (succ (prec * (prec * *)) *)"
        " - (succ (prec * (succ * *)) *) + (succ (prec * *) (succ * *))"
    )
    code, out, _ = run(
        capsys, "reduce", "--relations", str(DOCS / "dendriform.rel"),
        "--order", "succ<prec", spoly,
    )
    assert code == 0
    assert out.strip() == (
        "(succ (succ (succ * *) *) *) + (succ (succ * (prec * *)) *)"
        " - (succ (succ * *) (succ * *))"
    )


def test_reduce_trace(capsys):
    code, out, _ = run(
        capsys, "reduce", "--preset", "dendriform", "--order", "prec<succ",
        "(prec (prec * *) *)", "--trace", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["normal_form"] == "(prec * (succ * *)) + (prec * (prec * *))"
    assert doc["trace"] == [[1, []]]


@pytest.mark.parametrize(
    "preset, order, text, steps, digest",
    [
        # an iteration-capped, non-confluent basis
        ("quadri", "a<b<d<c", "(c (c (c (a * *) *) *) (b (d * *) *))", 37,
         "8dec90099e603170161905c96cb70af3f7faa3c2ea627466bbe5fd2f897a4c43"),
        ("dendriform", "succ<prec", "(prec (prec (prec (succ * *) *) *) (succ * *))", 7,
         "401a60a31a75c9d47d5474d67662a6218c6a393a5433d6995fd0cc5935c65c2a"),
    ],
    ids=["quadri", "dendriform"],
)
def test_reduce_trace_pinned(capsys, preset, order, text, steps, digest):
    # multi-step reduction traces, pinned byte for byte
    code, out, _ = run(
        capsys, "reduce", "--preset", preset, "--order", order, text,
        "--trace", "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)["trace"]) == steps
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_count_dendriform(capsys):
    code, out, _ = run(
        capsys, "count", "--preset", "dendriform", "--order", "prec<succ",
        "--n-max", "5", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["normal_count"] for r in rows] == [1, 2, 5, 14, 42]
    assert [r["formula_value"] for r in rows] == [1, 2, 5, 14, 42]
    assert [r["oracle_value"] for r in rows] == [1, 2, 5, 14, 42]


def test_count_quadri(capsys):
    code, out, _ = run(
        capsys, "count", "--preset", "quadri", "--order", "c<b<d<a",
        "--n-max", "4", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    for key in ("normal_count", "formula_value", "oracle_value"):
        assert [r[key] for r in rows] == [1, 4, 23, 156]


def test_count_single_row(capsys):
    code, out, _ = run(
        capsys, "count", "--preset", "quadri", "--order", "c<b<d<a", "--n-max", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[1].split() == ["1", "1", "1", "1"]


def test_count_layout_pinned(capsys):
    # arities above --oracle-max print "-" in text and null in JSON
    argv = ("count", "--preset", "dendriform", "--order", "prec<succ",
            "--n-max", "6", "--oracle-max", "4")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (
        "arity        normal       formula        oracle\n"
        "    1             1             1             1\n"
        "    2             2             2             2\n"
        "    3             5             5             5\n"
        "    4            14            14            14\n"
        "    5            42            42             -\n"
        "    6           132           132             -\n"
    )
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = [(1, 1, 1, 1), (2, 2, 2, 2), (3, 5, 5, 5), (4, 14, 14, 14),
            (5, 42, 42, None), (6, 132, 132, None)]
    keys = ("arity", "normal_count", "formula_value", "oracle_value")
    assert out == json.dumps([dict(zip(keys, r)) for r in rows], indent=2) + "\n"


def test_count_reports_oracle_guard(capsys, monkeypatch):
    # the guard counts the oracle's columns, 2 * sum_i C_i C_(m-i) at
    # dendriform arity m: 96 at arity 5 (which has 224 trees) pass, 330 at
    # arity 6 do not.  A skipped arity prints "-" and says so on stderr,
    # and every later arity is skipped at the same one.
    monkeypatch.setattr(enumeration, "ORACLE_GUARD", 100)
    code, out, err = run(
        capsys, "count", "--preset", "dendriform", "--order", "succ<prec",
        "--n-max", "7", "--oracle-max", "7",
    )
    assert code == 0
    assert [line.split()[3] for line in out.splitlines()[1:]] == [
        "1", "2", "5", "14", "42", "-", "-",
    ]
    assert err == (
        "warning: oracle skipped at arity 6: 330 columns at arity 6 exceed the oracle guard of 100\n"
        "warning: oracle skipped at arity 7: 330 columns at arity 6 exceed the oracle guard of 100\n"
    )


def test_count_builds_each_oracle_arity_once(capsys, monkeypatch):
    # one quotient grows across the rows of a table, so a table up to n
    # builds arities 2..n once each, and a refused arity ends the building
    built = []
    real = enumeration._Quotient.add_arity

    def add_arity(self):
        built.append(len(self.dims))
        real(self)

    monkeypatch.setattr(enumeration._Quotient, "add_arity", add_arity)
    args = ("count", "--preset", "dendriform", "--order", "succ<prec",
            "--n-max", "7", "--oracle-max", "7", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert [r["oracle_value"] for r in json.loads(out)] == [1, 2, 5, 14, 42, 132, 429]
    assert built == [2, 3, 4, 5, 6, 7]
    built.clear()
    monkeypatch.setattr(enumeration, "ORACLE_GUARD", 100)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert [r["oracle_value"] for r in json.loads(out)] == [1, 2, 5, 14, 42, None, None]
    assert built == [2, 3, 4, 5, 6]


def test_count_formula_follows_the_relations(capsys, tmp_path):
    # a formula belongs to a preset's relations, not to a file's name
    misnamed = tmp_path / "dendriform.rel"
    misnamed.write_text("ops: prec succ\nrel: (prec (prec * *) *) - (prec * (prec * *))\n")
    sources = [
        (misnamed, "prec<succ", [None] * 4),
        (DOCS / "dendriform.rel", "prec<succ", [1, 2, 5, 14]),
        (DOCS / "quadri.rel", "c<b<d<a", [1, 4, 23, 156]),
    ]
    for path, order, formula in sources:
        code, out, _ = run(
            capsys, "count", "--relations", str(path), "--order", order,
            "--n-max", "4", "--oracle-max", "1", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["formula_value"] for r in rows] == formula, path
    code, out, _ = run(
        capsys, "count", "--relations", str(misnamed), "--order", "prec<succ",
        "--n-max", "4", "--oracle-max", "1",
    )
    assert [line.split() for line in out.splitlines()[1:]] == [
        ["1", "1", "-", "1"], ["2", "2", "-", "-"], ["3", "7", "-", "-"],
        ["4", "31", "-", "-"],
    ]


def test_table1_quadri_iteration_one(capsys):
    code, out, _ = run(
        capsys, "table1", "--preset", "quadri", "--max-iterations", "1",
    )
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines()[1:]}
    assert lines["c<b<d<a"].split()[1:3] == ["16", "0"]
    assert "GSB at iteration 1" in lines["c<b<d<a"]
    assert lines["c<d<b<a"].split()[1:3] == ["16", "0"]
    assert lines["b<a<c<d"].split()[1:3] == ["20", "4"]
    assert lines["b<c<a<d"].split()[1:3] == ["20", "4"]
    assert len(lines) == 24


def test_table1_writes_json(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    code, out, _ = run(
        capsys, "table1", "--preset", "dendriform", "--out", str(out_path),
    )
    assert code == 0
    assert "prec<succ" in out
    doc = json.loads(out_path.read_text())
    assert doc["presentation"] == "dendriform"
    assert len(doc["rows"]) == 2
    counts = [
        [(it["compositions"], it["nonzero"]) for it in row["iterations"]]
        for row in doc["rows"]
    ]
    assert counts == [[(4, 0)], [(5, 1), (4, 0)]]


def test_table1_parallel_matches_serial(capsys, monkeypatch, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    run(capsys, "table1", "--preset", "dendriform", "--out", str(serial))
    monkeypatch.setenv("OPERAD_GSB_THREADS", "2")
    run(capsys, "table1", "--preset", "dendriform", "--out", str(parallel))
    assert serial.read_text() == parallel.read_text()


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "complete", "--preset", "quadri", "--order", "c<b<d<a")
    _, out2, _ = run(capsys, "complete", "--preset", "quadri", "--order", "c<b<d<a")
    assert out1 == out2


def test_output_independent_of_hash_seed():
    # trees and symbols hash by identity, which varies from process to
    # process, so no output may depend on the order of a set or a hash
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "operad_gsb.cli", "complete", "--preset", "quadri",
             "--order", "a<b<d<c", "--format", "json"],
            env=env, capture_output=True, check=False,
        )
        assert proc.returncode == 2, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "complete", "--preset", "dendriform", "--order", "prec<mul")
    assert code == 1 and "mul" in err
    code, _, err = run(capsys, "complete", "--preset", "dendriform")
    assert code == 1 and "order" in err
    code, _, err = run(capsys, "complete", "--relations", str(tmp_path / "missing.rel"))
    assert code == 1
    bad = tmp_path / "bad.rel"
    bad.write_text("ops: f g\nrel: (f * *) - (f * *)\n")
    code, _, err = run(capsys, "complete", "--relations", str(bad), "--order", "f<g")
    assert code == 1 and "zero" in err


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "complete", "--preset", "dendriform", "--order", "prec<succ",
        "--format", "json", "--out", str(path),
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["status"] == "gsb_confirmed"


def test_threads_must_be_positive_integer(capsys, monkeypatch):
    for bad in ("abc", "0", "-2", "1.5", ""):
        monkeypatch.setenv("OPERAD_GSB_THREADS", bad)
        code, out, err = run(capsys, "table1", "--preset", "dendriform")
        assert code == 1 and out == ""
        assert err.startswith("error: OPERAD_GSB_THREADS")


def test_threads_clamped_to_cpu_count(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU sweep must not start worker processes")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    _, serial, _ = run(capsys, "table1", "--preset", "dendriform")
    monkeypatch.setenv("OPERAD_GSB_THREADS", "8")
    code, clamped, _ = run(capsys, "table1", "--preset", "dendriform")
    assert code == 0 and clamped == serial


def test_table1_checks_caps_before_starting_workers(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a bad cap must be reported before workers start")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("OPERAD_GSB_THREADS", "2")
    code, out, err = run(capsys, "table1", "--preset", "dendriform", "--max-iterations", "0")
    assert (code, out) == (1, "")
    assert err == "error: completion caps must be positive\n"


def test_deep_tree_is_an_error(capsys):
    deep = "(prec " * 3000 + "*" + " *)" * 3000
    code, out, err = run(
        capsys, "reduce", "--preset", "dendriform", "--order", "prec<succ", deep,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: tree nested deeper than") and "offset" in err


def test_deep_normal_form_is_an_error(capsys, tmp_path):
    # a balanced input at most 9 levels deep whose normal form, a right
    # comb, is as deep as it has leaves less one
    def balanced(leaves):
        if leaves == 1:
            return "*"
        half = leaves // 2
        return f"(f {balanced(half)} {balanced(leaves - half)})"

    rel = tmp_path / "assoc.rel"
    rel.write_text("ops: f\nrel: (f (f * *) *) - (f * (f * *))\n", encoding="utf-8")
    argv = ("reduce", "--relations", str(rel), "--order", "f")
    code, out, err = run(capsys, *argv, balanced(256))
    assert code == 0 and err == ""
    assert out == "(f * " * 255 + "*" + ")" * 255 + "\n"
    code, out, err = run(capsys, *argv, balanced(400))
    assert code == 1 and out == ""
    assert err == "error: tree nested deeper than 300 vertices\n"


def test_count_beyond_the_listing_guard(capsys):
    # succ<prec has a cubic basis element; arity 10 alone has
    # 2**9 * catalan(9) = 2,489,344 trees, more than a listing may hold,
    # but counting normal monomials lists none of them
    code, out, err = run(
        capsys, "count", "--preset", "dendriform", "--order", "succ<prec",
        "--n-max", "11", "--format", "json",
    )
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert [r["arity"] for r in rows] == list(range(1, 12))
    assert all(r["normal_count"] == r["formula_value"] for r in rows)


def test_reduce_checks_caps_on_both_sources(capsys):
    # a relation file is reduced against without completion, yet its caps
    # are checked and reported as the preset's are
    sources = [
        ("--preset", "dendriform"),
        ("--relations", str(DOCS / "dendriform.rel")),
    ]
    caps = [
        ("--max-iterations", "0"),
        ("--max-arity", "0"),
    ]
    for source in sources:
        for cap in caps:
            code, out, err = run(
                capsys, "reduce", *source, "--order", "prec<succ", *cap,
                "(prec (prec * *) *)",
            )
            assert (code, out) == (1, ""), (source, cap)
            assert err == "error: completion caps must be positive\n", (source, cap)
        # reduction has no step cap to set
        code, out, err = run(
            capsys, "reduce", *source, "--order", "prec<succ",
            "(prec (prec * *) *)", "--step-limit", "1",
        )
        assert (code, out) == (1, ""), source
        assert err == "error: unrecognized arguments: --step-limit 1\n", source


def test_unwritable_out_is_an_error(capsys, tmp_path, monkeypatch):
    def no_completion(*args, **kwargs):
        pytest.fail("completion ran before --out was checked")

    monkeypatch.setattr(cli, "complete", no_completion)
    missing = tmp_path / "no-such-dir" / "out.txt"
    commands = [
        ("complete", "--preset", "dendriform", "--order", "prec<succ"),
        ("reduce", "--preset", "dendriform", "--order", "prec<succ", "(prec * *)"),
        ("count", "--preset", "dendriform", "--order", "prec<succ"),
        ("table1", "--preset", "dendriform"),
    ]
    for argv in commands:
        # a missing parent directory, then a directory in place of a file
        for target in (missing, tmp_path):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert code == 1 and out == ""
            assert err.startswith(f"error: cannot write {target}: ")
            assert "Traceback" not in err


def test_out_untouched_when_command_fails(capsys, tmp_path):
    existing = tmp_path / "kept.txt"
    existing.write_text("earlier result\n", encoding="utf-8")
    fresh = tmp_path / "fresh.txt"
    for target in (existing, fresh):
        code, out, err = run(
            capsys, "reduce", "--preset", "dendriform", "--order", "prec<succ",
            "(prec * ", "--out", str(target),
        )
        assert code == 1 and err.startswith("error: ")
    assert existing.read_text(encoding="utf-8") == "earlier result\n"
    assert not fresh.exists()


def test_non_utf8_relations_is_an_error(capsys, tmp_path):
    path = tmp_path / "latin1.rel"
    path.write_bytes("ops: f g\nrel: (f * *) - (g * *)  # \xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "complete", "--relations", str(path), "--order", "f<g")
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")


def test_count_n_max_must_be_positive(capsys):
    for bad in ("0", "-3"):
        code, out, err = run(
            capsys, "count", "--preset", "dendriform", "--order", "prec<succ",
            "--n-max", bad,
        )
        assert code == 1 and out == ""
        assert err == f"error: --n-max must be at least 1, got {bad}\n"
