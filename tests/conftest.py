"""Shared fixtures and random-tree helpers for the test suite."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import operad_gsb as og
from operad_gsb.enumeration import normal_counts, oracle_dimensions


def random_tree(rng: random.Random, symbols, arity: int) -> og.TreeMonomial:
    """A uniform-ish random binary tree monomial with the given leaf count."""
    if arity == 1:
        return og.LEAF
    sym = rng.choice(symbols)
    left = rng.randint(1, arity - 1)
    return og.node(
        sym, random_tree(rng, symbols, left), random_tree(rng, symbols, arity - left)
    )


def random_polynomial(rng: random.Random, symbols, arity: int, max_terms: int = 4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice([-2, -1, 1, 2])
        terms[random_tree(rng, symbols, arity)] = coeff
    return og.TreePolynomial(terms, arity)


def random_binary_presentation(seed):
    """1-3 binary operations under a random order, with 1-3 relations of
    arity 3-4 whose coefficients lie in {1, -1, 2, 1/2}."""
    rng = random.Random(seed)
    symbols = tuple(og.OperationSymbol(f"o{i}", 2) for i in range(rng.randint(1, 3)))
    relations = []
    for _ in range(rng.randint(1, 3)):
        arity = rng.randint(3, 4)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[random_tree(rng, symbols, arity)] = rng.choice([1, -1, 2, Fraction(1, 2)])
        relations.append(og.TreePolynomial(terms, arity))
    order = og.OperationOrder(tuple(rng.sample(symbols, len(symbols))))
    return og.Presentation(og.Signature(symbols), tuple(relations), f"random {seed}"), order


DIFFERENTIAL_CAPS = og.CompletionConfig(max_iterations=3, max_arity=6)


def check_against_oracle(seed: int) -> str:
    """Complete ``random_binary_presentation(seed)`` under
    ``DIFFERENTIAL_CAPS`` and judge the result by the rank oracle, which
    knows nothing of rewriting; return the completion status.

    Through the arity cap a basis counts at least the oracle's dimension,
    since its leads lie in the ideal, and exactly that when every
    composition up to the cap reduces to zero (the diamond lemma).  A
    confirmed basis is confirmed again by ``is_gsb``, and its last round
    kept only zero normal forms."""
    pres, order = random_binary_presentation(seed)
    basis, report = og.complete(pres.relations, order, DIFFERENTIAL_CAPS)
    n_max = DIFFERENTIAL_CAPS.max_arity
    counts = islice(normal_counts(basis), n_max)
    dims = islice(oracle_dimensions(pres), n_max)
    exact = report.status in ("gsb_confirmed", "arity_cap")
    for n, (count, dim) in enumerate(zip(counts, dims), 1):
        assert count >= dim, (seed, n, count, dim)
        assert count == dim or not exact, (seed, report.status, n, count, dim)
    if report.status == "gsb_confirmed":
        assert og.is_gsb(basis, DIFFERENTIAL_CAPS).status == "confirmed", seed
        assert all(rec.normal_form.is_zero for rec in report.iterations[-1].records), seed
    return report.status


def random_rules(seed, quad):
    """Up to 8 random rules of arity 3-4 over the quadri symbols; some are
    sums of earlier ones, so that rules also vanish, not only change."""
    rng = random.Random(seed)
    order = og.OperationOrder(tuple(rng.sample(quad.signature.symbols, 4)))
    polys = []
    for _ in range(rng.randint(1, 8)):
        p = random_polynomial(rng, order.ranked, rng.randint(3, 4))
        same = [q for q in polys if q.arity == p.arity]
        if same and rng.random() < 0.4:
            p = rng.choice(same) + og.TreePolynomial(
                {m: rng.choice([-1, 1]) * c for m, c in rng.choice(same).terms.items()},
                p.arity,
            )
        if p:
            polys.append(p)
    return [og.RewriteRule.from_polynomial(p, order) for p in polys], order


_BD = str.maketrans("bd", "db")


def bd_swap(text: str) -> str:
    """An order or polynomial text with the quadri operations b and d swapped."""
    return text.translate(_BD)


def assert_bd_conjugates(doc: dict, conj: dict) -> None:
    """Swapping b and d maps the JSON report ``doc`` onto ``conj``: its
    order, per-iteration counts and status, and, as sorted texts (list
    order differs), its basis and each iteration's added elements."""
    order = doc["order"]
    assert bd_swap(order) == conj["order"]
    assert [(it["compositions"], it["nonzero"]) for it in doc["iterations"]] == [
        (it["compositions"], it["nonzero"]) for it in conj["iterations"]
    ], order
    assert doc["status"] == conj["status"], order
    assert sorted(map(bd_swap, doc["basis"])) == sorted(conj["basis"]), (order, "basis")
    for n, (it, conj_it) in enumerate(zip(doc["iterations"], conj["iterations"]), 1):
        assert sorted(map(bd_swap, it["added"])) == sorted(conj_it["added"]), (order, n)


def gs_basis(report, pres: og.Presentation) -> og.GSBasis:
    """The final basis of a ``CompletionReport``, or of its JSON dict, as a
    ``GSBasis`` over ``pres`` under the report's order."""
    if isinstance(report, dict):
        text = report["order"]
        polys = [og.parse_polynomial(p, pres.signature) for p in report["basis"]]
    else:
        text, polys = report.order, report.basis
    order = og.OperationOrder.from_string(text, pres.signature)
    return og.GSBasis(tuple(og.RewriteRule.from_polynomial(p, order) for p in polys), order)


def quadri_excess(basis: og.GSBasis, n_max: int) -> list[int]:
    """``count_normal - quadri_dim`` at arities 1..n_max; 0 where ``basis``
    counts the quadri operad exactly."""
    return [og.count_normal(basis, n) - og.quadri_dim(n) for n in range(1, n_max + 1)]


def load_bench_module(name: str):
    """Load ``bench/<name>.py`` by path; ``bench`` is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def dend() -> og.Presentation:
    return og.dendriform()


@pytest.fixture(scope="session")
def quad() -> og.Presentation:
    return og.quadri()


@pytest.fixture(scope="session")
def dend_up(dend) -> og.OperationOrder:
    return og.OperationOrder.from_string("prec<succ", dend.signature)


@pytest.fixture(scope="session")
def dend_down(dend) -> og.OperationOrder:
    return og.OperationOrder.from_string("succ<prec", dend.signature)


@pytest.fixture(scope="session")
def dend_basis_up(dend, dend_up):
    basis, report = og.complete(dend.relations, dend_up)
    assert report.status == "gsb_confirmed"
    return basis


@pytest.fixture(scope="session")
def dend_basis_down(dend, dend_down):
    basis, report = og.complete(dend.relations, dend_down)
    assert report.status == "gsb_confirmed"
    return basis


@pytest.fixture(scope="session")
def quad_cbda(quad) -> og.OperationOrder:
    return og.OperationOrder.from_string("c<b<d<a", quad.signature)


@pytest.fixture(scope="session")
def quad_cdba(quad) -> og.OperationOrder:
    return og.OperationOrder.from_string("c<d<b<a", quad.signature)


@pytest.fixture(scope="session")
def quad_basis_cbda(quad, quad_cbda):
    basis, report = og.complete(quad.relations, quad_cbda)
    assert report.status == "gsb_confirmed"
    return basis


@pytest.fixture(scope="session")
def quad_basis_cdba(quad, quad_cdba):
    basis, report = og.complete(quad.relations, quad_cdba)
    assert report.status == "gsb_confirmed"
    return basis
