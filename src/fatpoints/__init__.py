"""Certification of non-specialty, emptiness and -1-specialty of linear
systems of plane curves with fat base points."""
from __future__ import annotations

from .diagrams import (
    Diagram,
    ReductionTrace,
    bar,
    diagram,
    format_diagram,
    p_of,
    reduce_chain,
    reduce_m,
    triangle,
    try_empty_by_enlarge,
    vdim_space,
)
from .engine import EngineConfig, classify, classify_space
from .fplinalg import PrimeFieldConfig, build_matrix, certify_nonspecial_rank, rank
from .initial_cases import (
    FamilySpec,
    InitialCasesReport,
    RESULTS_TABLE,
    count_family,
    count_surviving,
    max_p_plus_1,
    run_initial_cases,
)
from .ledger import LedgerEntry, load_entries, run_ledger, verify_entry
from .systems import (
    LinearSystem,
    Verdict,
    cremona,
    edim,
    format_system,
    glue,
    is_standard_form,
    standard_form,
    vdim,
)
from .textio import ParseError, parse_diagram, parse_system

__version__ = "0.1.0"

__all__ = [
    "Diagram", "ReductionTrace", "bar", "diagram", "format_diagram", "p_of",
    "reduce_chain", "reduce_m", "triangle", "try_empty_by_enlarge",
    "vdim_space", "EngineConfig", "classify", "classify_space",
    "PrimeFieldConfig", "build_matrix", "certify_nonspecial_rank", "rank",
    "FamilySpec", "InitialCasesReport", "RESULTS_TABLE", "count_family",
    "count_surviving", "max_p_plus_1",
    "run_initial_cases", "LedgerEntry", "load_entries", "run_ledger",
    "verify_entry", "LinearSystem", "Verdict", "cremona", "edim",
    "format_system", "glue", "is_standard_form", "standard_form", "vdim",
    "ParseError", "parse_diagram", "parse_system",
    "__version__",
]
