"""Shared fixtures and random-tree helpers for the test suite."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

import operad_gsb as og


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


def relabel(p: og.TreePolynomial, mapping) -> og.TreePolynomial:
    """``p`` with each operation renamed by ``mapping``, name -> symbol."""

    def tree(t):
        if t.is_leaf:
            return t
        return og.TreeMonomial(mapping[t.label.name], [tree(c) for c in t.children])

    return og.TreePolynomial({tree(m): c for m, c in p.terms.items()}, p.arity)


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
