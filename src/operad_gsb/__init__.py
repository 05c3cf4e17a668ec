"""Groebner-Shirshov bases for nonsymmetric operads with binary generators.

Tree monomials, the path-lexicographic order, exact tree polynomials,
oriented rewriting, Buchberger-style completion with per-iteration
statistics, built-in dendriform and quadri-algebra presentations, and
normal-monomial enumeration with independent dimension oracles.
"""

from .completion import (
    CompletionConfig,
    CompletionReport,
    GSBasis,
    GsbCheck,
    SmallCommonMultiple,
    complete,
    is_gsb,
    s_polynomial,
    self_reduce,
    small_common_multiples,
)
from .enumeration import (
    catalan,
    count_normal,
    dimension_by_linear_algebra,
    enumerate_normal,
    quadri_dim,
)
from .ordering import OperationOrder, compare_monomials
from .polynomials import TreePolynomial, format_polynomial, parse_polynomial
from .presets import Presentation, dendriform, parse_presentation, quadri
from .rewriting import (
    Occurrence,
    RewriteRule,
    is_normal_monomial,
    normal_form,
    occurrences,
)
from .trees import (
    LEAF,
    OperationSymbol,
    Signature,
    TreeError,
    TreeMonomial,
    format_tree,
    graft,
    node,
    parse_tree,
    subtree_at,
)

__version__ = "0.1.0"

__all__ = [
    "CompletionConfig",
    "CompletionReport",
    "GSBasis",
    "GsbCheck",
    "SmallCommonMultiple",
    "complete",
    "is_gsb",
    "s_polynomial",
    "self_reduce",
    "small_common_multiples",
    "catalan",
    "count_normal",
    "dimension_by_linear_algebra",
    "enumerate_normal",
    "quadri_dim",
    "OperationOrder",
    "compare_monomials",
    "TreePolynomial",
    "format_polynomial",
    "parse_polynomial",
    "Presentation",
    "dendriform",
    "parse_presentation",
    "quadri",
    "Occurrence",
    "RewriteRule",
    "is_normal_monomial",
    "normal_form",
    "occurrences",
    "LEAF",
    "OperationSymbol",
    "Signature",
    "TreeError",
    "TreeMonomial",
    "format_tree",
    "graft",
    "node",
    "parse_tree",
    "subtree_at",
]
