"""Differential check of the engine on random presentations.

The rank oracle builds the quotient operad from the presentation alone,
with no order, reducer or basis, so it can judge ``complete`` and
``is_gsb`` on any presentation (the diamond lemma; Dotsenko and
Khoroshkin, Duke Math. J. 153, 2010).  ``check_against_oracle`` in
``conftest.py`` holds the checks.  Seeds 0-199 run here, in about 3 s;
``slow_differential.py`` runs seeds 200-1999.
"""

from collections import Counter

from conftest import check_against_oracle


def test_engine_agrees_with_the_rank_oracle(capsys):
    tally = Counter(check_against_oracle(seed) for seed in range(200))
    with capsys.disabled():
        print(f"\nseeds 0-199: {dict(sorted(tally.items()))}")
    # every seed is counted; the split pins the engine's statuses
    assert tally == {"gsb_confirmed": 117, "arity_cap": 62, "iteration_cap": 21}
