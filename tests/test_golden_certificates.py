"""Replay a recorded corpus of verdicts and certificates byte for byte.

Each line of ``data/golden_certificates.jsonl`` holds one input (system
text, stage subset, column cap) and the verdict ``classify`` gave for it,
in the CLI's ``--json`` form.  A change that alters any verdict or any
certificate step shows up here.  After an intended change, re-record the
expected verdicts of the same inputs with

    PYTHONPATH=src python tests/test_golden_certificates.py --record
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from fatpoints.cli import _verdict_dict
from fatpoints.engine import EngineConfig, classify
from fatpoints.fplinalg import PrimeFieldConfig
from fatpoints.systems import MULT_LE_11, POINTS_LE_9, SIMPLE_POINTS
from fatpoints.textio import parse_system

CORPUS = Path(__file__).parent / "data" / "golden_certificates.jsonl"
STEP_OPS = {"standard_form", "strip_negative", "negative_degree", "axiom",
            "reduce_chain", "enlarge", "rank"}
AXIOM_BRANCHES = {(POINTS_LE_9,), (MULT_LE_11,), (SIMPLE_POINTS, POINTS_LE_9)}


def verdict_record(system: str, stages, max_cols: int,
                   field_cfg: PrimeFieldConfig) -> dict:
    cfg = EngineConfig(field_cfg=field_cfg, max_cols=max_cols,
                       stages=tuple(stages))
    return _verdict_dict(classify(parse_system(system), cfg))


def load_corpus() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def test_corpus_covers_every_step_and_reason():
    verdicts = [rec["verdict"] for rec in load_corpus()]
    ops = {s["op"] for v in verdicts for s in v["steps"]}
    assert ops == STEP_OPS
    branches = {tuple(s["params"]["axioms"]) for v in verdicts for s in v["steps"]
                if s["op"] == "axiom"}
    assert branches == AXIOM_BRANCHES
    reasons = {v["reason"] for v in verdicts if v["kind"] == "Inconclusive"}
    assert "all stages inconclusive" in reasons
    assert any("(cap " in r for r in reasons)


def test_corpus_replays_byte_identically():
    field_cfg = PrimeFieldConfig()
    mismatches = []
    for rec in load_corpus():
        got = verdict_record(rec["system"], rec["stages"], rec["max_cols"],
                             field_cfg)
        if _dump(got) != _dump(rec["verdict"]):
            mismatches.append(f"{rec['system']} {rec['stages']}")
    assert not mismatches, f"{len(mismatches)} changed: {mismatches[:10]}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    field_cfg = PrimeFieldConfig()
    lines = []
    for rec in load_corpus():
        rec["verdict"] = verdict_record(rec["system"], rec["stages"],
                                        rec["max_cols"], field_cfg)
        lines.append(_dump(rec))
    CORPUS.write_text("\n".join(lines) + "\n")
