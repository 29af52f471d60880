"""The benchmark's traced spans still bind to the library.

``perfbench/spans.py`` times calls by rebinding module-level names; a
renamed or deleted target makes ``instrument`` fail with "no binding of
...".  Entering it here catches that in the test suite.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import fatpoints

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_instrument_binds_every_target():
    spans = _load_spans()
    original = fatpoints.classify
    rec = spans.Recorder()
    with spans.instrument(rec):
        fatpoints.classify(fatpoints.parse_system("L(10;4^4)"))
    assert rec.calls["engine.classify"] == 1
    assert rec.calls["textio.parse_system"] == 1
    assert fatpoints.classify is original  # bindings restored on exit


def test_family_call_structure_pinned():
    # One build_matrix and one rank call per certification attempt, and
    # the matrix shapes fixed through ops_computed (rows·cols·min). The
    # call counts were recorded before the rank kernel and build_matrix
    # were last rewritten.  ops_computed is that of the matrices left
    # after the heaviest point is moved to the origin and the next
    # heaviest to (1, 0) and folded (59,830,470 with the first move alone,
    # 135,637,095 for the whole matrices); a change that fuses, skips or
    # reshapes matrices moves it.
    spans = _load_spans()
    rec = spans.Recorder()
    with spans.instrument(rec):
        fatpoints.run_initial_cases(fatpoints.FamilySpec(5, 10, 1))
    rank_calls = rec.calls["fplinalg.rank"]
    assert rank_calls == rec.calls["fplinalg.build_matrix"]
    assert rank_calls == rec.counts["fplinalg.certify.attempts"]
    assert rank_calls == 624
    assert rec.counts["fplinalg.rank.ops_computed"] == 20_320_845
