"""Exact computer algebra for bivariate Fibonacci and Lucas polynomials.

The package provides sparse rational-coefficient polynomials in x and y, a
quadratic extension ring adjoining D with D^2 = x^2 + 4y, generators for the
F/L families over arbitrary ring arguments, 2x2 matrix machinery, a
machine-checked identity catalog, and a small identity language.
"""

from .identities import (
    IdentityCase,
    build_catalog,
    catalog_by_id,
    check_case,
    run_catalog,
)
from .idlang import (
    CorpusEntry,
    Eq,
    ParseError,
    check,
    evaluate,
    free_meta_vars,
    load_corpus,
    parse,
    parse_expression,
    render,
)
from .poly import (
    DELTA,
    DISCRIMINANT,
    ONE,
    QuadExtElem,
    RingValue,
    X,
    Y,
    ZERO,
    BivarPoly,
    canonical_text,
)
from .report import CellResult, CheckReport, DomainError
from .sequences import (
    ALPHA,
    BETA,
    PolyMatrix2,
    SeqKind,
    alpha_power,
    beta_power,
    binomial,
    fib,
    luc,
    matrix_A,
    matrix_B,
    matrix_BA,
    matrix_pow,
    power_entry_factor,
    seq,
    seq_terms,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "BivarPoly",
    "CellResult",
    "CheckReport",
    "CorpusEntry",
    "DELTA",
    "DISCRIMINANT",
    "DomainError",
    "Eq",
    "IdentityCase",
    "ONE",
    "ParseError",
    "PolyMatrix2",
    "QuadExtElem",
    "RingValue",
    "SeqKind",
    "X",
    "Y",
    "ZERO",
    "alpha_power",
    "beta_power",
    "binomial",
    "build_catalog",
    "canonical_text",
    "catalog_by_id",
    "check",
    "check_case",
    "evaluate",
    "fib",
    "free_meta_vars",
    "load_corpus",
    "luc",
    "matrix_A",
    "matrix_B",
    "matrix_BA",
    "matrix_pow",
    "parse",
    "parse_expression",
    "power_entry_factor",
    "render",
    "run_catalog",
    "seq",
    "seq_terms",
    "__version__",
]
