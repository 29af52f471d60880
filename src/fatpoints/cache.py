"""Append-only JSONL result cache keyed by content hashes.

Each line is a self-contained JSON record.  Corrupt lines are skipped
with a warning and never abort a run; lookups use an immutable snapshot
loaded at startup and writes go through a single appending writer.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def record_key(canonical_input: str, p: int, seed: int, attempts: int,
               version: str) -> str:
    import hashlib  # on first use, as in fplinalg.task_rng

    payload = f"{canonical_input}|p={p}|seed={seed}|attempts={attempts}|v={version}"
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        self._records: dict[str, dict] = {}
        if self.path and self.path.exists():
            self._load()

    def _load(self) -> None:
        for lineno, line in enumerate(
            self.path.read_text().splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                self._records[rec["key"]] = rec["record"]
            except (json.JSONDecodeError, KeyError, TypeError):
                print(
                    f"warning: skipping corrupt cache line {lineno} in {self.path}",
                    file=sys.stderr,
                )

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    def put(self, key: str, record: dict) -> None:
        if key in self._records:
            return
        self._records[key] = record
        if self.path:
            with self.path.open("a") as fh:
                fh.write(json.dumps({"key": key, "record": record},
                                    sort_keys=True) + "\n")
