"""Certification of non-specialty, emptiness and -1-specialty of linear
systems of plane curves with fat base points.

Helpers live in their own modules, e.g. ``fatpoints.diagrams.reduce_m``."""
from __future__ import annotations

from .diagrams import (
    Diagram,
    reduce_chain,
    triangle,
)
from .engine import EngineConfig, classify, classify_space
from .fplinalg import PrimeFieldConfig, rank
from .initial_cases import (
    FamilySpec,
    InitialCasesReport,
    RESULTS_TABLE,
    run_initial_cases,
)
from .ledger import LedgerEntry, load_entries, run_ledger
from .systems import (
    LinearSystem,
    Verdict,
    edim,
    standard_form,
    vdim,
)
from .textio import ParseError, parse_diagram, parse_system

__version__ = "0.1.0"

__all__ = [
    "Diagram", "reduce_chain", "triangle",
    "EngineConfig", "classify", "classify_space",
    "PrimeFieldConfig", "rank",
    "FamilySpec", "InitialCasesReport", "RESULTS_TABLE", "run_initial_cases",
    "LedgerEntry", "load_entries", "run_ledger",
    "LinearSystem", "Verdict", "edim", "standard_form", "vdim",
    "ParseError", "parse_diagram", "parse_system",
    "__version__",
]
