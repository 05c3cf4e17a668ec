"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench``.  Sizes:
dendriform-only sweep, arity-6 normal forms, dimensions up to n = 5.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int, seed: int = 5) -> tuple[list[str], dict]:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    text = "\n".join(lines[:-1])
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in text and text.count(f" {m['unit']}") >= 1
    assert "fail_ratio = 0 ratio" in text


def test_trace_counts_repeat_and_digests_match():
    _, first = _smoke("normal_forms", 1, seed=11)
    _, second = _smoke("normal_forms", 1, seed=11)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["rewriting.normal_form.calls"] == 10  # one chunk of three
    assert first["correct"] and second["correct"]  # includes traced == untraced digest


def _tally(spec: dict, expected: dict) -> tuple[int, int]:
    return run._tally([workloads.run_rep(spec, expected)])


@pytest.mark.parametrize("workload", ["sweep", "normal_forms", "dimensions"])
def test_tampered_digest_is_counted(workload):
    spec = {"workload": workload, "scale": "smoke", "seed": 2, "chunk": 0, "trace": False}
    expected = workloads.default_expected()
    assert _tally(spec, expected)[1] == 0
    digests = dict(expected["digests"])
    digests[(workload, "smoke")] = "0" * 64
    attempted, failed = _tally(spec, {**expected, "digests": digests})
    assert failed == 1 and attempted > 1


def test_tampered_sweep_row_is_counted():
    def wrong(preset, order):
        want = reference.expected_sweep_row(preset, order)
        return ((want[0][0] + 1, want[0][1]),) + want[1:] if order == "succ<prec" else want

    spec = {"workload": "sweep", "scale": "smoke", "seed": 2, "chunk": 0, "trace": False}
    expected = {**workloads.default_expected(), "sweep_row": wrong}
    attempted, failed = _tally(spec, expected)
    # the failed row also drops out of the digest, which cannot be checked
    assert failed == 1 and attempted == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_latency_leaves_ten_beyond():
    values = [float(i) for i in range(100)]
    value, pct, beyond = run.tail_latency(values)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert sum(v > value for v in values) == 10
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0, 0)
