"""Exact mode calculus for vertex operator algebras.

Everything is computed over exact rationals: normally ordered vacuum-module
bases for built-in presentations (free boson, universal Virasoro), the full
mode action derived from the Jacobi identity, the level-n Zhu products and
truncated quotient algebras, the graded enveloping-algebra filtration with
membership witnesses, and the rewriting of degree-zero mode words down to a
single zero-mode.
"""

from .combinatorics import binomial, parse_rational
from .modes import (
    FiltrationWitness,
    ReductionTrace,
    UEAExpression,
    Word,
    evaluate_expression,
    expand_iterate_side,
    expand_product_side,
    find_witness,
    format_word,
    homomorphism_check,
    mode_symbol,
    pair_expansion,
    reduce_word,
    reordering_residual,
    replay_trace,
    vhat_bracket,
    word_degree,
    word_expression,
)
from .parser import ParseError, parse_element, parse_uea
from .report import CheckRecord, DimensionTable, ReportDocument, golden_compare
from .suites import axiom_suite
from .voa import (
    FockVector,
    Monomial,
    Presentation,
    apply_generator_mode,
    basis_vectors,
    builtin_presentation,
    enumerate_basis,
    format_element,
    format_monomial,
    mode_action,
    monomial_weight,
)
from .zhu import (
    WeightOverflowError,
    ZhuContext,
    basic_circle_product,
    basic_star_product,
    build_zhu_context,
    an_dims,
    c2_dims,
    circle_product,
    omega_subspace,
    star_top_weight,
    star_product,
    translation_row,
)

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "parse_rational",
    "CheckRecord",
    "ReportDocument",
    "DimensionTable",
    "golden_compare",
    "Presentation",
    "FockVector",
    "Monomial",
    "builtin_presentation",
    "enumerate_basis",
    "basis_vectors",
    "apply_generator_mode",
    "mode_action",
    "monomial_weight",
    "format_element",
    "format_monomial",
    "axiom_suite",
    "WeightOverflowError",
    "ZhuContext",
    "build_zhu_context",
    "circle_product",
    "star_product",
    "star_top_weight",
    "basic_circle_product",
    "basic_star_product",
    "translation_row",
    "an_dims",
    "c2_dims",
    "omega_subspace",
    "UEAExpression",
    "Word",
    "FiltrationWitness",
    "ReductionTrace",
    "mode_symbol",
    "word_expression",
    "word_degree",
    "format_word",
    "vhat_bracket",
    "expand_iterate_side",
    "expand_product_side",
    "evaluate_expression",
    "reordering_residual",
    "pair_expansion",
    "find_witness",
    "reduce_word",
    "replay_trace",
    "homomorphism_check",
    "ParseError",
    "parse_element",
    "parse_uea",
    "__version__",
]
