"""The differential check of ``test_differential.py`` on seeds 200-1999.

About 30 s, so a plain ``pytest`` run, which collects only ``test_*.py``
files, leaves it out; run it as ``pytest tests/slow_differential.py``.
No seed is dropped: each one either passes every check or is a known
failure below, which must fail with the recorded message, so a fix
shows as a failure here until its entry goes.
"""

import time
from collections import Counter

from conftest import check_against_oracle

SEEDS = range(200, 2000)

# seed -> the first line of the failed assertion's message.  Seed 664:
# round 1 adds two rules with one lead, whose composition at the root is
# never checked (ROADMAP item 13), so an arity_cap basis counts 2 normal
# monomials too many at arity 6.
KNOWN_FAILURES = {664: "(664, 'arity_cap', 6, 5770, 5768)"}


def test_engine_agrees_with_the_rank_oracle_on_more_seeds(capsys):
    tally = Counter()
    failures = {}
    start = time.monotonic()
    for seed in SEEDS:
        try:
            tally[check_against_oracle(seed)] += 1
        except AssertionError as exc:
            failures[seed] = str(exc).splitlines()[0]
    wall = time.monotonic() - start
    with capsys.disabled():
        print(f"\nseeds {SEEDS.start}-{SEEDS.stop - 1}: {dict(sorted(tally.items()))}, "
              f"known failures {sorted(failures)}, {wall:.1f} s")
    assert failures == KNOWN_FAILURES
    assert sum(tally.values()) + len(failures) == len(SEEDS)
