"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion.  Criterion 4 carries two strict xfails: the reference
iteration-2 values for the rows ``b<d<c<a`` and ``d<c<a<b`` contradict
the b/d relabeling symmetry of the quadri relations (their conjugate
rows, which we match exactly, carry different values), so no
symmetry-respecting implementation can reproduce all four at once.
Under the paper's iteration semantics, which add elements without
interreducing between iterations, ``b<a<d<c`` and ``d<a<b<c`` stop at the
iteration cap, yet their final bases are a finite GSB (criterion 4h).
"""

import hashlib
import itertools
import json
import random
import time

import pytest

import operad_gsb as og
from operad_gsb.rewriting import Reducer, RewriteRule

from conftest import load_bench_module, random_polynomial, random_tree, relabel

LEAF = og.LEAF


def L(x, y):
    return og.node(x, og.node(y, LEAF, LEAF), LEAF)


def LL(x, y, z):
    return og.node(x, og.node(y, og.node(z, LEAF, LEAF), LEAF), LEAF)


def LR(x, y, z):
    return og.node(x, og.node(y, LEAF, og.node(z, LEAF, LEAF)), LEAF)


def corolla(x, y, z):
    return og.node(x, og.node(y, LEAF, LEAF), og.node(z, LEAF, LEAF))


def _pass(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# reference sweep counts: order -> ((comp1, red1), (comp2, red2) | None)
REFERENCE_TABLE = {
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
    "c<b<d<a": ((16, 0), None),
    "c<d<a<b": ((18, 2), (10, 0)),
    "c<d<b<a": ((16, 0), None),
    "d<a<b<c": ((24, 9), (66, 23)),
    "d<a<c<b": ((20, 4), (21, 0)),
    "d<b<a<c": ((23, 8), (62, 0)),
    "d<b<c<a": ((20, 4), (24, 0)),
    "d<c<a<b": ((20, 4), (12, 0)),
    "d<c<b<a": ((18, 2), (10, 0)),
}

ZERO_ROWS = [
    text
    for text, (_, it2) in REFERENCE_TABLE.items()
    if it2 is not None and it2[1] == 0
]

# iteration-2 values inconsistent with the conjugate rows under b<->d
DISPUTED_ROWS = {"b<d<c<a": (24, 0), "d<c<a<b": (21, 0)}


@pytest.fixture(scope="session")
def sweep(quad):
    rows = {}
    for perm in itertools.permutations("abcd"):
        text = "<".join(perm)
        order = og.OperationOrder.from_string(text, quad.signature)
        _, report = og.complete(quad.relations, order)
        rows[text] = report
    return rows


def test_criterion_1_dendriform_up(dend, dend_up):
    start = time.perf_counter()
    basis, report = og.complete(dend.relations, dend_up)
    elapsed = time.perf_counter() - start
    assert [(r.compositions, r.nonzero) for r in report.iterations] == [(4, 0)]
    assert report.status == "gsb_confirmed"
    assert report.basis == tuple(r.make_monic(dend_up) for r in dend.relations)
    assert elapsed < 1.0
    _pass("1", f"prec<succ: (4, 0), 3-element input basis, {elapsed:.3f}s")


def test_criterion_2_dendriform_down(dend, dend_down):
    prec, succ = dend.signature.symbols
    start = time.perf_counter()
    basis, report = og.complete(dend.relations, dend_down)
    elapsed = time.perf_counter() - start
    assert [(r.compositions, r.nonzero) for r in report.iterations] == [(5, 1), (4, 0)]
    cubic = og.TreePolynomial(
        {LL(succ, succ, succ): 1, corolla(succ, succ, succ): -1, LR(succ, succ, prec): 1}
    )
    assert report.iterations[0].added == (cubic,)
    assert report.status == "gsb_confirmed"
    assert report.basis_size == 4
    assert elapsed < 1.0
    _pass("2", f"succ<prec: (5, 1) then (4, 0), cubic element exact, {elapsed:.3f}s")


# the sixteen compositions for the two confirming quadri orders, as
# (outer rule, inner rule, common multiple) in enumeration order
SIXTEEN = [
    (0, 0, "(c (c (c * *) *) *)"),
    (0, 1, "(c (c (d * *) *) *)"),
    (0, 3, "(c (c (b * *) *) *)"),
    (0, 4, "(c (c (a * *) *) *)"),
    (1, 2, "(c (d (d * *) *) *)"),
    (1, 5, "(c (d (a * *) *) *)"),
    (2, 2, "(d (d (d * *) *) *)"),
    (2, 5, "(d (d (a * *) *) *)"),
    (3, 6, "(c (b (b * *) *) *)"),
    (3, 7, "(c (b (a * *) *) *)"),
    (4, 8, "(c (a (a * *) *) *)"),
    (5, 8, "(d (a (a * *) *) *)"),
    (6, 6, "(b (b (b * *) *) *)"),
    (6, 7, "(b (b (a * *) *) *)"),
    (7, 8, "(b (a (a * *) *) *)"),
    (8, 8, "(a (a (a * *) *) *)"),
]


def test_criterion_3_quadri_good_orders(quad, quad_cbda, quad_cdba):
    for order in (quad_cbda, quad_cdba):
        start = time.perf_counter()
        basis, report = og.complete(quad.relations, order)
        elapsed = time.perf_counter() - start
        assert [(r.compositions, r.nonzero) for r in report.iterations] == [(16, 0)]
        assert report.status == "gsb_confirmed"
        assert elapsed < 5.0
        got = [
            (outer, inner, og.format_tree(scm.multiple))
            for outer, inner, scm, _ in report.pair_log[0]
        ]
        assert got == SIXTEEN
    _pass("3", "both quadri orders: (16, 0) confirmed, compositions match one-for-one")


def test_criterion_4_iteration_one_all_orders(sweep):
    for text, report in sweep.items():
        rec = report.iterations[0]
        assert (rec.compositions, rec.nonzero) == REFERENCE_TABLE[text][0], text
    _pass("4a", "iteration-1 (comp, red) exact for all 24 orders")


def test_criterion_4_iteration_two_zero_rows(sweep):
    checked = []
    for text in ZERO_ROWS:
        if text in DISPUTED_ROWS:
            continue
        rec = sweep[text].iterations[1]
        assert (rec.compositions, rec.nonzero) == REFERENCE_TABLE[text][1], text
        assert sweep[text].status == "gsb_confirmed"
        checked.append(text)
    _pass("4b", f"iteration-2 exact for {len(checked)} of 12 terminating rows "
               "(2 remaining rows contradict the b/d symmetry; see xfails)")


@pytest.mark.parametrize("text", sorted(DISPUTED_ROWS))
@pytest.mark.xfail(
    strict=True,
    reason="reference iteration-2 value contradicts the b/d relabeling "
    "symmetry; the conjugate row, which we match, differs",
)
def test_criterion_4_disputed_rows_as_reported(sweep, text):
    rec = sweep[text].iterations[1]
    assert (rec.compositions, rec.nonzero) == REFERENCE_TABLE[text][1]


def test_criterion_4_disputed_rows_match_conjugates(sweep):
    swap = str.maketrans("bd", "db")
    for text, expected in DISPUTED_ROWS.items():
        rec = sweep[text].iterations[1]
        assert (rec.compositions, rec.nonzero) == expected
        conj = text.translate(swap)
        conj_rec = sweep[conj].iterations[1]
        assert (rec.compositions, rec.nonzero) == (
            conj_rec.compositions,
            conj_rec.nonzero,
        )
        assert REFERENCE_TABLE[conj][1] == expected
    _pass("4c", "disputed rows agree with their relabeled conjugates, "
               "which carry the reference values")


def test_criterion_4_sweep_is_bd_symmetric(quad, sweep):
    # relabeling b<->d maps each row onto its conjugate: the counts and
    # the status, and as sets (list order differs) each iteration's added
    # elements and the final basis
    swap = str.maketrans("bd", "db")
    mapping = {name: quad.signature[name.translate(swap)] for name in "abcd"}
    for text, report in sweep.items():
        conj = sweep[text.translate(swap)]
        assert [(r.compositions, r.nonzero) for r in report.iterations] == [
            (r.compositions, r.nonzero) for r in conj.iterations
        ]
        assert report.status == conj.status
        for rec, conj_rec in zip(report.iterations, conj.iterations):
            assert {relabel(p, mapping) for p in rec.added} == set(conj_rec.added), text
        assert len(report.basis) == len(conj.basis), text
        assert {relabel(p, mapping) for p in report.basis} == set(conj.basis), text
    _pass("4d", "all 24 rows pair up under b/d relabeling: equal counts and "
               "status, relabeled added elements and final bases")


# the capped rows whose final bases are nevertheless a GSB
FINITE_PAIR = ("b<a<d<c", "d<a<b<c")


def test_criterion_4_finite_pair_is_a_gsb(quad, sweep):
    # no reference needed: the composition check confirms the final
    # basis, and its normal monomials meet the closed formula
    start = time.perf_counter()
    for text in FINITE_PAIR:
        report = sweep[text]
        assert report.status == "iteration_cap", text
        order = og.OperationOrder.from_string(text, quad.signature)
        rules = tuple(RewriteRule.from_polynomial(p, order) for p in report.basis)
        basis = og.GSBasis(rules, order)
        assert len(rules) == 17 and {r.arity for r in rules} == {3, 4}, text
        check = og.is_gsb(basis)
        assert (check.status, len(check.certificate)) == ("confirmed", 81), text
        dims = [og.count_normal(basis, n) for n in range(1, 13)]
        assert dims == [og.quadri_dim(n) for n in range(1, 13)], text
    elapsed = time.perf_counter() - start
    _pass("4h", f"{' and '.join(FINITE_PAIR)} stop at the iteration cap with a "
               "17-element basis of arity 3 and 4, confirmed by all 81 "
               f"compositions and meeting quadri_dim through arity 12, {elapsed:.1f}s")


# capped row -> (last arity where count_normal meets quadri_dim, excess
# of the count over the formula one arity later), at the default caps
EXACTNESS_FRONTIER = {
    "a<b<c<d": (5, 1),
    "a<c<b<d": (5, 1),
    "a<c<d<b": (5, 1),
    "a<d<c<b": (5, 1),
    "c<a<b<d": (5, 1),
    "c<a<d<b": (5, 1),
    "a<b<d<c": (6, 3),
    "a<d<b<c": (6, 3),
}


def test_criterion_4_exactness_frontier_of_capped_rows(quad, sweep):
    # no reference needed: a capped basis counts the normal monomials of
    # the quotient exactly up to its frontier, and too many just past it
    capped = {text for text, report in sweep.items() if report.status == "iteration_cap"}
    assert capped == set(EXACTNESS_FRONTIER) | set(FINITE_PAIR)
    for text, (frontier, excess) in EXACTNESS_FRONTIER.items():
        order = og.OperationOrder.from_string(text, quad.signature)
        rules = tuple(RewriteRule.from_polynomial(p, order) for p in sweep[text].basis)
        basis = og.GSBasis(rules, order)
        dims = [og.count_normal(basis, n) for n in range(1, frontier + 1)]
        assert dims == [og.quadri_dim(n) for n in range(1, frontier + 1)], text
        over = og.count_normal(basis, frontier + 1) - og.quadri_dim(frontier + 1)
        assert over == excess, (text, over)
    _pass("4i", "the 8 diverging capped rows meet quadri_dim through arity 5 "
               "(6 for the a<b<d<c pair) and exceed it by 1 (3) one arity later")


def _recorded_digests() -> dict:
    """``DIGESTS`` of ``bench/reference.py``, the outputs of the seed commit."""
    return load_bench_module("reference").DIGESTS


def test_criterion_4_sweep_bytes_match_recorded_digest(quad, sweep):
    # every final basis of the sweep, byte for byte, as the benchmark's
    # sweep workload serializes and hashes it
    rows = [
        json.dumps(
            report.to_json_dict(og.OperationOrder.from_string(text, quad.signature)),
            sort_keys=True,
        )
        for text, report in sweep.items()
    ]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == _recorded_digests()[("sweep", "full")]
    _pass("4e", "all 24 reports, final bases included, match the recorded "
               "SHA-256 byte for byte")


def test_criterion_4_added_elements_lie_in_the_ideal(quad, sweep):
    # adding a row's new elements to the relations leaves the quotient's
    # dimension unchanged at the arity of each element, so they lie in
    # the ideal; ten rows add elements of arity 5 and 6 as well as 4
    start = time.perf_counter()
    expected = {n: og.dimension_by_linear_algebra(quad, n) for n in (4, 5, 6)}
    checked = {}
    for text, report in sweep.items():
        added = tuple(p for rec in report.iterations for p in rec.added)
        if not added:
            continue
        extended = og.Presentation(quad.signature, quad.relations + added, "extended")
        for n in sorted({p.arity for p in added}):
            assert og.dimension_by_linear_algebra(extended, n) == expected[n], (text, n)
            checked[n] = checked.get(n, 0) + 1
    elapsed = time.perf_counter() - start
    assert checked == {4: 22, 5: 10, 6: 10}
    _pass("4f", f"every added element lies in the ideal at its own arity "
               f"(22 rows at arity 4, 10 at arity 5, 10 at arity 6), {elapsed:.1f}s")


def test_criterion_4_reduced_basis_is_unique(quad, sweep):
    # a reduced Groebner basis is unique: self-reducing the unreduced one
    # (oriented relations plus every added element) in any order gives
    # the final basis of each confirmed row
    start = time.perf_counter()
    confirmed = [text for text, report in sweep.items() if report.status == "gsb_confirmed"]
    for text in confirmed:
        report = sweep[text]
        order = og.OperationOrder.from_string(text, quad.signature)
        unreduced = [
            RewriteRule.from_polynomial(p, order)
            for p in quad.relations + tuple(p for rec in report.iterations for p in rec.added)
        ]
        for seed in range(5):
            rules = list(unreduced)
            random.Random(seed).shuffle(rules)
            got = og.self_reduce(rules, order)
            assert len(got) == len(report.basis), (text, seed)
            assert {r.polynomial for r in got} == set(report.basis), (text, seed)
    elapsed = time.perf_counter() - start
    assert len(confirmed) == 14
    _pass("4g", f"the unreduced basis of each of the 14 confirmed rows, in 5 "
               f"shuffles, self-reduces to the final basis, {elapsed:.1f}s")


def test_criterion_5_dimensions(dend_basis_up, dend_basis_down, quad_basis_cbda, quad_basis_cdba):
    start = time.perf_counter()
    catalans = [1, 2, 5, 14, 42, 132, 429, 1430]
    for basis in (dend_basis_up, dend_basis_down):
        got = [og.count_normal(basis, n) for n in range(1, 9)]
        assert got == catalans
        assert got == [og.catalan(n) for n in range(1, 9)]
    quadri_dims = [1, 4, 23, 156, 1162, 9192]
    for basis in (quad_basis_cbda, quad_basis_cdba):
        got = [og.count_normal(basis, n) for n in range(1, 7)]
        assert got == quadri_dims
        assert got == [og.quadri_dim(n) for n in range(1, 7)]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass("5", f"Catalan 1..8 for both dendriform bases, quadri dims 1..6 "
              f"for both orders, {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence(
    dend, quad, dend_basis_up, dend_basis_down, quad_basis_cbda, quad_basis_cdba
):
    # up to the paper's top arities: Catalan 1..8 and quadri dims 1..6
    start = time.perf_counter()
    cases = [
        (dend, og.catalan, 8, (dend_basis_up, dend_basis_down)),
        (quad, og.quadri_dim, 6, (quad_basis_cbda, quad_basis_cdba)),
    ]
    for pres, formula, n_max, bases in cases:
        for n in range(1, n_max + 1):
            oracle = og.dimension_by_linear_algebra(pres, n)
            assert oracle == formula(n), (pres.name, n)
            for basis in bases:
                assert og.count_normal(basis, n) == oracle, (pres.name, n)
    elapsed = time.perf_counter() - start
    _pass("6", "count_normal == linear-algebra dimension == formula for "
              f"dendriform n <= 8 and quadri n <= 6 on all four confirmed "
              f"bases, {elapsed:.1f}s")


def test_criterion_7_diamond_property(
    dend_basis_up, dend_basis_down, quad_basis_cbda, quad_basis_cdba
):
    start = time.perf_counter()
    rng = random.Random(20240517)
    bases = [dend_basis_up, dend_basis_down, quad_basis_cbda, quad_basis_cdba]
    total = 0
    for basis in bases:
        reducer = Reducer(basis.rules, basis.order)
        symbols = basis.order.ranked
        for _ in range(125):
            total += 1
            p = random_polynomial(rng, symbols, rng.randint(2, 5))
            expected = reducer.reduce(p)
            for _ in range(5):
                strategy = random.Random(rng.randrange(2**32))
                assert reducer.reduce(p, rng=strategy) == expected
    elapsed = time.perf_counter() - start
    assert total == 500
    _pass("7", f"500 random polynomials, deterministic == 5 random "
              f"strategies each, {elapsed:.1f}s")


def test_criterion_8_order_axioms():
    start = time.perf_counter()
    rng = random.Random(97)
    symbols = og.Signature(tuple(og.OperationSymbol(n) for n in "abcd")).symbols
    trials = 10_000
    for _ in range(trials):
        order = og.OperationOrder(tuple(rng.sample(symbols, 4)))
        n = rng.randint(1, 6)
        s, t, u = (random_tree(rng, symbols, n) for _ in range(3))
        cmp_st = og.compare_monomials(s, t, order)
        assert (cmp_st == 0) == (s == t)
        assert cmp_st == -og.compare_monomials(t, s, order)
        if cmp_st <= 0 and og.compare_monomials(t, u, order) <= 0:
            assert og.compare_monomials(s, u, order) <= 0
        if s != t:
            lo, hi = (s, t) if cmp_st < 0 else (t, s)
            outer = random_tree(rng, symbols, rng.randint(2, 3))
            slot = rng.randrange(outer.arity)
            plugs_lo = [LEAF] * outer.arity
            plugs_hi = list(plugs_lo)
            plugs_lo[slot] = lo
            plugs_hi[slot] = hi
            assert og.compare_monomials(
                og.graft(outer, plugs_lo), og.graft(outer, plugs_hi), order
            ) == -1
            args = [random_tree(rng, symbols, rng.randint(1, 2)) for _ in range(n)]
            assert og.compare_monomials(
                og.graft(lo, args), og.graft(hi, args), order
            ) == -1
    elapsed = time.perf_counter() - start
    _pass("8", f"{trials} randomized order-axiom trials, {elapsed:.1f}s")
