"""Iteration 3 on b/d-conjugate pairs of quadri rows that diverge.

About 30 s, so a plain ``pytest`` run, which collects only ``test_*.py``
files, leaves it out; run it as ``pytest tests/slow_iteration3.py``.
Each row runs ``complete --preset quadri --max-iterations 3 --format
json`` in a child, which must exit 2 (``iteration_cap``) and print the
recorded bytes.  No published reference covers these rows, so the other
checks are the b/d map between the rows of a pair, and each basis
meeting ``quadri_dim`` through arity 9 with one normal monomial too many
at arity 10.  Each row's wall time and peak RSS go to the terminal,
unchecked, since no bench workload covers these rows.
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

import pytest

from conftest import assert_bd_conjugates, gs_basis, quadri_excess

SRC = Path(__file__).resolve().parent.parent / "src"

# one b/d-conjugate pair per entry: each order with the SHA-256 of its
# JSON report, the (compositions, nonzero) of each iteration, and
# count_normal - quadri_dim at arities 1..10, all shared by both rows
PAIRS = [
    (
        ("c<a<b<d", "158fadecfb7a8dc92b53d1fc54151131564e265457ccec034a49f1d0155d2b73"),
        ("c<a<d<b", "1f339f8fec5686a5bfcf8ff465f2cd1435ceced97b90e7f2958309485f7f042f"),
        [(19, 3), (19, 4), (50, 18)],
        [0] * 9 + [1],
    ),
    (
        ("a<c<b<d", "0eea3131ea4bc63539447327b8e3d1f94e54a9f45781f2be54dc89ec2e882601"),
        ("a<c<d<b", "9c54ceb9154c4f1cb713f0fd29262d2e488a1d2d8830c9e8efa620c2da9a64f3"),
        [(19, 3), (20, 7), (84, 27)],
        [0] * 9 + [1],
    ),
]


def complete_row(order: str, path: Path):
    """Run the row in a child with stdout to ``path``; its exit code,
    wall time in seconds and peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "operad_gsb.cli", "complete", "--preset", "quadri",
            "--order", order, "--max-iterations", "3", "--format", "json"]
    start = time.monotonic()
    with open(path, "wb") as out:
        stdout = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1)]
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=stdout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


@pytest.mark.parametrize("row, conj_row, counts, excess", PAIRS, ids=[p[0][0] for p in PAIRS])
def test_iteration_three(quad, capsys, tmp_path, row, conj_row, counts, excess):
    docs = []
    for order, digest in (row, conj_row):
        path = tmp_path / "report.json"
        code, wall, rss = complete_row(order, path)
        with capsys.disabled():
            print(f"\n{order} at iteration 3: {wall:.1f} s wall, {rss:.0f} MB peak RSS")
        assert code == 2, order
        out = path.read_bytes()
        assert hashlib.sha256(out).hexdigest() == digest, order
        doc = json.loads(out)
        assert doc["status"] == "iteration_cap", order
        assert [(it["compositions"], it["nonzero"]) for it in doc["iterations"]] == counts
        assert quadri_excess(gs_basis(doc, quad), 10) == excess, order
        docs.append(doc)
    assert_bd_conjugates(*docs)
