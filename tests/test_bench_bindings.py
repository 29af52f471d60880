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
