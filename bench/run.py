"""Benchmark of operad-gsb: completion sweep, normal-form queries, dimension tables.

Run from the repository root::

    python3 bench/run.py --workload sweep --seed 1 --seconds 32 --trace 0

Every workload is a closed loop with one caller: each operation starts
after the previous one returns.  A run makes a fixed number of
repetitions, ``round(seconds / rep_seconds)`` and at least one, where
``rep_seconds`` is what one repetition of the workload takes on the
reference machine (2 shared vCPUs, Python 3.11), so both sides of a
comparison do the same work.  Each repetition (each chunk of one, for
``normal_forms``) runs in a fresh interpreter (``workloads.py``), so the
package's caches start cold as they do for a command-line call.

With ``--trace 0`` the run prints every end-to-end metric: ``setup_s``
(fresh interpreter to the start of the timed region, median over at
least five interpreters), ``wall_s`` (median time to one whole table or
batch), ``op_p50_ms`` and ``op_tail_ms`` over all operations of the run,
``peak_rss_mb`` (largest peak resident set of any interpreter) and
``fail_ratio``.  With ``--trace 1`` it runs the first interpreter's work
untraced and then traced, and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is always the JSON
result; the lines before it name each metric with its unit and give
sample counts and the environment.

Left out on purpose: the iteration-3 row ``c<a<b<d`` (about 119 s a run,
too long to repeat on every check); parallel sweeps through
``OPERAD_GSB_THREADS`` (on two shared CPUs they would time the
scheduler); dendriform ``complete`` on its own (milliseconds, below
timer noise; it runs in the set-up of ``normal_forms`` and
``dimensions``); the quadri rank oracle at n = 6 (9 s, which would double
a dimension table) and the dendriform row n = 8 (2 s; without it a table
has an odd number of rows, so its median row is a single row).  On the
reference machine a single repetition varies by 10-15% in wall time and
CPU time varies with it, so steadiness comes from repetitions and
medians, not from a CPU-time metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS

HERE = Path(__file__).resolve().parent
# the whole run, all repetitions included, must end within this
RUN_DEADLINE_S = 170.0
# fewest set-up samples a run takes; interpreters that stop after set-up
# make up the difference
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "smoke"),
                   help="smoke: tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def _environment(root: Path) -> dict:
    rev = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                 capture_output=True, text=True)
            rev = out.stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def _run_child(spec: dict, root: Path, env: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; waits until it has ended."""
    spawn = time.monotonic()
    remaining = deadline - spawn
    if remaining <= 0:
        raise BenchError(f"run deadline of {RUN_DEADLINE_S:.0f} s passed")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            cwd=root, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {spec['rep']} passed the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(
            f"repetition {spec['rep']} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["timed_start"] - spawn
    result["rep"] = spec["rep"]
    return result


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  When that percentile
    would fall below the median (fewer than 21 samples) it is the
    maximum, with none beyond.
    """
    xs = sorted(values)
    if len(xs) <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs), TAIL_BEYOND


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of a run and the sample counts behind them.

    ``results`` holds one result per interpreter; a repetition of a
    chunked workload is the sum of its chunks.
    """
    setups = [r["setup_s"] for r in results]
    reps = [r for r in results if "ops" in r]
    latencies = [seconds for rep in reps for seconds, _ in rep["ops"]]
    walls: dict[int, float] = {}
    for rep in reps:
        walls[rep["rep"]] = walls.get(rep["rep"], 0.0) + rep["wall_s"]
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls.values()), "s"),
        "op_p50_ms": _metric(1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": _metric(1000 * tail, "ms"),
        "peak_rss_mb": _metric(max(rep["peak_rss_kb"] for rep in reps) / 1024, "MB"),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(walls),
        "op_p50_ms": len(latencies),
        "op_tail_ms": len(latencies),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "peak_rss_mb": len(reps),
    }
    return metrics, samples


def _tally(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed): every operation, plus one digest check per
    repetition that had one."""
    attempted = failed = 0
    for rep in reps:
        if "ops" not in rep:
            continue
        attempted += len(rep["ops"])
        failed += sum(not ok for _, ok in rep["ops"])
        if rep["digest_ok"] is not None:
            attempted += 1
            failed += not rep["digest_ok"]
    return attempted, failed


def main(argv=None) -> int:
    args = _parse(argv)
    # exit through SystemExit on SIGTERM, so a running repetition is
    # killed and waited for by subprocess.run
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    src = root / "src"
    if not (src / "operad_gsb" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'operad_gsb'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "OPERAD_GSB_THREADS"}
    env["PYTHONPATH"] = str(src)
    info = _environment(root)
    base = {"workload": args.workload, "scale": args.scale, "seed": args.seed,
            "rep": 0, "chunk": 0, "trace": False}
    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.bin"
        specs = [base, {**base, "trace": True, "spans_path": str(spans)}]
    else:
        reps = max(1, round(args.seconds / WORKLOADS[args.workload].rep_seconds))
        chunks = SCALES[args.scale][args.workload].get("chunks", 1)
        specs = [{**base, "rep": r, "chunk": c} for r in range(reps) for c in range(chunks)]
        specs += [{**base, "setup_only": True}] * max(0, SETUP_SAMPLES - len(specs))
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        results = [_run_child(spec, root, env, deadline) for spec in specs]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = _tally(results)
    failures = [f for rep in results for f in rep.get("failures", ())]
    detail = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seed_used": WORKLOADS[args.workload].seeded,
        "interpreter_runs": len(results),
        "closed_loop_callers": 1,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "output_digests": [rep["digest"] for rep in results if "ops" in rep],
        "checked_digests": [rep["checked_digest"] for rep in results if "ops" in rep],
        "failures": failures[:20],
        "environment": info,
    }
    if args.trace:
        untraced, traced = results
        layers = {name: _metric(v, unit) for name, (v, unit) in traced["layers"].items()}
        layers["trace.overhead_ratio"] = _metric(traced["wall_s"] / untraced["wall_s"], "ratio")
        digests_agree = untraced["digest"] == traced["digest"]
        if not digests_agree:
            failures.append("traced and untraced output digests differ")
        detail["spans_file"] = str(spans.relative_to(root))
        metrics = layers
    else:
        metrics, detail["samples"] = end_to_end(results)
        digests_agree = True

    print(f"workload {args.workload}: {len(results)} interpreter run(s), "
          f"{attempted} checked operations, seed {args.seed}"
          + ("" if detail["seed_used"] else " (deterministic; the seed is unused)"))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  op_tail_ms is p{detail['samples']['op_tail_percentile']:.2f} "
              f"of {detail['samples']['op_tail_ms']} operations")
    print(f"  fail_ratio = {detail['fail_ratio']:.6g} ratio ({failed} of {attempted})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and digests_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
