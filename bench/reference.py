"""Expected outputs the benchmark checks every run against.

``SWEEP_TABLE`` is the paper's per-order (compositions, nonzero) table
for the quadri presentation, the same reference the acceptance suite
uses.  The rows ``b<d<c<a`` and ``d<c<a<b`` carry iteration-2 values
that contradict the b/d relabeling symmetry of the quadri relations, so
those two rows are expected to equal their b/d-conjugate rows instead.

``DIGESTS`` holds the SHA-256 of each workload's canonical output as
computed by the seed commit, so any change of a result shows as a
failed check.  The normal-form digest covers a fixed anchor batch
(seed-independent); the other workloads are deterministic.
"""

SWEEP_TABLE = {
    "a<b<c<d": ((21, 5), (38, 12)),
    "a<b<d<c": ((25, 10), (82, 41)),
    "a<c<b<d": ((19, 3), (20, 7)),
    "a<c<d<b": ((19, 3), (20, 7)),
    "a<d<b<c": ((25, 10), (82, 41)),
    "a<d<c<b": ((21, 5), (38, 12)),
    "b<a<c<d": ((20, 4), (21, 0)),
    "b<a<d<c": ((24, 9), (66, 23)),
    "b<c<a<d": ((20, 4), (21, 0)),
    "b<c<d<a": ((18, 2), (10, 0)),
    "b<d<a<c": ((23, 8), (62, 0)),
    "b<d<c<a": ((20, 4), (14, 0)),
    "c<a<b<d": ((19, 3), (19, 4)),
    "c<a<d<b": ((19, 3), (19, 4)),
    "c<b<a<d": ((18, 2), (10, 0)),
    "c<b<d<a": ((16, 0),),
    "c<d<a<b": ((18, 2), (10, 0)),
    "c<d<b<a": ((16, 0),),
    "d<a<b<c": ((24, 9), (66, 23)),
    "d<a<c<b": ((20, 4), (21, 0)),
    "d<b<a<c": ((23, 8), (62, 0)),
    "d<b<c<a": ((20, 4), (24, 0)),
    "d<c<a<b": ((20, 4), (12, 0)),
    "d<c<b<a": ((18, 2), (10, 0)),
}

DISPUTED_ROWS = ("b<d<c<a", "d<c<a<b")

# dendriform (compositions, nonzero) per iteration, both orders
DENDRIFORM_TABLE = {
    "prec<succ": ((4, 0),),
    "succ<prec": ((5, 1), (4, 0)),
}


def expected_sweep_row(preset: str, order: str) -> tuple[tuple[int, int], ...]:
    """Reference (compositions, nonzero) pairs of one sweep row."""
    if preset == "dendriform":
        return DENDRIFORM_TABLE[order]
    if order in DISPUTED_ROWS:
        return SWEEP_TABLE[order.translate(str.maketrans("bd", "db"))]
    return SWEEP_TABLE[order]


DIGESTS = {
    ("sweep", "full"):
        "4f46084670f215841f5f2a31ef715a7ca718abdac388eac640362122ddf0f610",
    ("sweep", "smoke"):
        "7f8ee4b3d20711ffc024f1fc9d369c72fe51d4029218e690ecd1585bea814393",
    ("normal_forms", "full"):
        "0091297840523e03b1cf4963cb55dcc841e70b498e57636edda568a394392860",
    ("normal_forms", "smoke"):
        "8e71895867bdd709ecb949db55c64eebf14fccf513f330911308235bd441aede",
    ("dimensions", "full"):
        "5e2d1b7f3edf68caeee3ad9787db0aac6efd8e3773455c761ca8efe0e9ef7dd5",
    ("dimensions", "smoke"):
        "ff2cb086a407dce99642443bda50ed9b2bb7cf046caad69000586d9191eeade3",
}
