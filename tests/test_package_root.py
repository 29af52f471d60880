"""The package root exports exactly the names its users reach.

``perfbench/run.py`` and README's library example reach the library
through ``fatpoints``; a root name they use and ``__all__`` drops would
break them, and the benchmark only in its traced run.  Both files are
read as text.
"""
from __future__ import annotations

import ast
import pkgutil
import re
from pathlib import Path

import fatpoints

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = {
    "Diagram", "reduce_chain", "triangle",
    "EngineConfig", "classify", "classify_space",
    "PrimeFieldConfig", "rank",
    "FamilySpec", "InitialCasesReport", "RESULTS_TABLE", "run_initial_cases",
    "LedgerEntry", "load_entries", "run_ledger",
    "LinearSystem", "Verdict", "vdim", "edim", "standard_form",
    "ParseError", "parse_diagram", "parse_system",
    "__version__",
}


def _benchmark_names() -> set[str]:
    """The root names ``perfbench/run.py`` reaches as ``fp.x`` or
    ``fatpoints.x``; submodules such as ``fatpoints._gauss`` are not."""
    text = (ROOT / "perfbench" / "run.py").read_text()
    submodules = {m.name for m in pkgutil.iter_modules(fatpoints.__path__)}
    return set(re.findall(r"\b(?:fp|fatpoints)\.(\w+)", text)) - submodules


def _readme_names() -> set[str]:
    """The names README's python examples import from ``fatpoints``."""
    text = (ROOT / "README.md").read_text()
    names = set()
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "fatpoints":
                names.update(alias.name for alias in node.names)
    return names


def test_root_exports_exactly_what_its_users_reach():
    assert len(fatpoints.__all__) == len(EXPORTS) == 24
    assert set(fatpoints.__all__) == EXPORTS
    for name in fatpoints.__all__:
        assert hasattr(fatpoints, name), name
    for used in (_benchmark_names(), _readme_names()):
        assert used  # the patterns still find the callers' names
        assert used <= EXPORTS, used - EXPORTS
