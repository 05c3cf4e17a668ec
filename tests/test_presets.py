"""Built-in presentations and the relation-file parser."""

from pathlib import Path

import pytest

import operad_gsb as og
from operad_gsb.polynomials import add, scale
from operad_gsb.presets import PRESETS, PresentationError

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
LEAF = og.LEAF


def L(x, y):
    return og.node(x, og.node(y, LEAF, LEAF), LEAF)


def R(x, y):
    return og.node(x, LEAF, og.node(y, LEAF, LEAF))


def test_dendriform_shape(dend):
    assert len(dend.relations) == 3
    assert all(r.arity == 3 for r in dend.relations)
    assert [s.name for s in dend.signature.symbols] == ["prec", "succ"]


def test_quadri_shape(quad):
    assert len(quad.relations) == 9
    assert all(r.arity == 3 for r in quad.relations)
    assert [s.name for s in quad.signature.symbols] == ["a", "b", "c", "d"]


def test_quadri_orientation(quad, quad_cbda):
    a, b, c, d = quad.signature.symbols
    first = quad.relations[0].make_monic(quad_cbda)
    assert first == og.TreePolynomial(
        {L(c, c): 1, R(c, a): -1, R(c, b): -1, R(c, c): -1, R(c, d): -1}
    )
    expected_leads = [
        L(c, c), L(c, d), L(d, d), L(c, b), L(c, a), L(d, a), L(b, b), L(b, a), L(a, a),
    ]
    got = [r.make_monic(quad_cbda).leading_term(quad_cbda) for r in quad.relations]
    assert [t for t, _ in got] == expected_leads
    assert all(coeff == 1 for _, coeff in got)


def _associativity(symbols):
    """(x*y)*z - x*(y*z) expanded over the sum of all operations."""
    terms = {}
    for s in symbols:
        for t in symbols:
            terms[L(s, t)] = terms.get(L(s, t), 0) + 1
            terms[R(s, t)] = terms.get(R(s, t), 0) - 1
    return og.TreePolynomial(terms, 3)


def test_dendriform_relations_sum_to_associativity(dend):
    d1, d2, d3 = dend.relations
    combo = add(add(d1, d2), scale(d3, -1))
    assert combo == _associativity(dend.signature.symbols)


def test_quadri_relations_sum_to_associativity(quad):
    total = og.TreePolynomial.zero(3)
    for rel in quad.relations:
        total = add(total, rel)
    assert total == _associativity(quad.signature.symbols)


def _substitute(p, images):
    """Expand each vertex label into a sum of labels (multilinear)."""
    out = og.TreePolynomial.zero(p.arity)
    for mono, coeff in p.terms.items():
        expanded = _expand_tree(mono, images)
        out = add(out, scale(expanded, coeff))
    return out


def _expand_tree(t, images):
    if t.is_leaf:
        return og.TreePolynomial.monomial(t)
    child_polys = [_expand_tree(c, images) for c in t.children]
    out_terms = {}
    for target in images[t.label.name]:
        for combo, coeff in _combine(child_polys):
            tree = og.TreeMonomial(target, combo)
            out_terms[tree] = out_terms.get(tree, 0) + coeff
    return og.TreePolynomial(out_terms, t.arity)


def _combine(polys):
    if not polys:
        yield (), 1
        return
    for rest, rc in _combine(polys[1:]):
        for mono, coeff in polys[0].terms.items():
            yield (mono,) + rest, coeff * rc


def test_quadri_carries_a_dendriform_structure(dend, quad):
    # prec -> c + d, succ -> a + b turns the dendriform relations into
    # explicit sums of the nine quadri relations
    a, b, c, d = quad.signature.symbols
    images = {"prec": (c, d), "succ": (a, b)}
    q = quad.relations
    d1, d2, d3 = (_substitute(rel, images) for rel in dend.relations)
    assert d1 == add(add(q[3], q[4]), q[5])
    assert d2 == add(add(q[0], q[1]), q[2])
    assert d3 == scale(add(add(q[6], q[7]), q[8]), -1)


def _statements(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_docs_files_match_builtins(dend, quad):
    parsed = og.parse_presentation(DOCS.joinpath("dendriform.rel").read_text())
    assert parsed.signature == dend.signature
    assert parsed.relations == dend.relations
    assert parsed.preferred_order is not None
    assert parsed.preferred_order.as_string() == "prec<succ"
    parsed_q = og.parse_presentation(DOCS.joinpath("quadri.rel").read_text())
    assert parsed_q.signature == quad.signature
    assert parsed_q.relations == quad.relations
    # a preset is its docs file without the order line, comments aside
    for name, text in PRESETS.items():
        docs = _statements(DOCS.joinpath(f"{name}.rel").read_text())
        assert _statements(text) == [s for s in docs if not s.startswith("order:")]
    assert dend.preferred_order is None and quad.preferred_order is None


def test_readme_library_block_runs():
    # the README's library example states its values as asserts
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_parse_presentation_errors():
    with pytest.raises(PresentationError, match="zero"):
        og.parse_presentation("ops: f g\nrel: (f * *) - (f * *)\n")
    with pytest.raises(PresentationError, match="ops"):
        og.parse_presentation("rel: (f * *)\n")
    with pytest.raises(PresentationError, match="rel"):
        og.parse_presentation("ops: f g\n")
    with pytest.raises(PresentationError):
        og.parse_presentation("ops: f f\nrel: (f (f * *) *)\n")
    with pytest.raises(PresentationError, match="line 2"):
        og.parse_presentation("ops: f\nrel: (g * *)\n")
    with pytest.raises(PresentationError):
        og.parse_presentation("junk line\n")
    # arity-2 relations are rejected as presentations
    with pytest.raises(PresentationError, match="arity"):
        og.parse_presentation("ops: f g\nrel: (f * *) - (g * *)\n")


def test_nonbinary_ops_parse_but_do_not_complete():
    text = "ops: tern/3\nrel: (tern (tern * * *) * *) - (tern * (tern * * *) *)\n"
    pres = og.parse_presentation(text)
    assert pres.signature["tern"].arity == 3
    order = og.OperationOrder.from_string("tern", pres.signature)
    with pytest.raises(og.TreeError, match="binary"):
        og.complete(pres.relations, order)


def test_comments_and_blank_lines():
    text = """
# comment
ops: f g

order: g<f
rel: (f (g * *) *) - (g * (f * *))
"""
    pres = og.parse_presentation(text, name="demo")
    assert pres.name == "demo"
    assert len(pres.relations) == 1
    assert pres.preferred_order.as_string() == "g<f"


def test_completion_from_presets_reproduces_known_bases(dend, dend_up, dend_down):
    basis_up, _ = og.complete(dend.relations, dend_up)
    assert basis_up.polynomials() == tuple(
        r.make_monic(dend_up) for r in dend.relations
    )
    basis_down, _ = og.complete(dend.relations, dend_down)
    assert len(basis_down.rules) == 4
