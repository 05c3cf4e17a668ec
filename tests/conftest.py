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
