"""A replayable, data-driven ledger of separately-handled case families.

Each record of ``data/cases.jsonl`` describes either a parametrized
family L(m+k; m, t^r) together with the method that settles it (how many
points to glue at a time, toward which target multiplicity, how often),
or one concrete system with its method.  The verifier instantiates every
record over a configurable (m, k, r) range, replays the method through
the engine primitives, and checks the resulting verdict, including every
intermediate system the record lists in ``midpoints``.  Records load
straight into ``LedgerEntry``; ``data/FORMAT.md`` lists their keys and
the checks that reject a bad record.

Method identifiers group records by the shape of their derivation:
glueing alone, glueing followed by Cremona transformations, repeated
Cremona transformations followed by glueing, glueing toward an empty
system, low-multiplicity endgames, ad-hoc scripts, and direct rank
computations.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Iterator, Sequence

from .engine import DEFAULT_CONFIG, EngineConfig, classify
from .systems import (
    EMPTY,
    INCONCLUSIVE,
    MINUS_ONE_SPECIAL,
    NON_SPECIAL,
    GlueError,
    LinearSystem,
    Step,
    Verdict,
    classify_by_axioms,
    edim,
    glue,
    record_standard_form,
    vdim,
)
from .textio import parse_system

DATA_RESOURCE = "cases.jsonl"
EXPECTS = ("auto", "empty", "nonspecial", "rank")
GLUE_S = 4  # points merged per glue by the generic method


@dataclass(frozen=True)
class LedgerEntry:
    id: str
    anchor: str
    index: int
    tail: int | None = None
    k: object = None
    r: object = None
    m: object = None
    system: str | None = None
    script: str | None = None
    glues_per_phase: int = 1
    target_offset: int = 1
    max_glues: int | None = None
    expect: str = "auto"
    midpoints: Sequence[dict] = ()

    @property
    def concrete(self) -> bool:
        return self.system is not None


# a record's keys are the LedgerEntry fields but the line index
_KEYS = {f.name for f in fields(LedgerEntry)} - {"index"}
# keys a range object may carry; k and r may also be an int or a list of ints
_RANGE_KEYS = {"k": {"ge", "le"}, "r": {"ge", "le"}, "m": {"ge", "ne"}}
# the JSON type of every other key but midpoints; max_glues may also be null
_TYPES = {"id": str, "anchor": str, "system": str, "script": str, "expect": str,
          "tail": int, "glues_per_phase": int, "target_offset": int, "max_glues": int}


def _range_ok(key: str, spec: object) -> bool:
    if isinstance(spec, dict):
        return set(spec) <= _RANGE_KEYS[key]
    ints = spec if isinstance(spec, list) else [spec]
    return key != "m" and all(isinstance(v, int) for v in ints)


def _entry_from_record(rec: dict, index: int) -> LedgerEntry:
    """Build the entry of the record on 0-based line `index`."""
    where = f"{DATA_RESOURCE} line {index + 1}"
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: not a JSON object")
    unknown = sorted(set(rec) - _KEYS)
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
    required = ("id", "anchor") + (() if "system" in rec else ("tail", "k", "r"))
    missing = [key for key in required if key not in rec]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(missing)}")
    stray = [key for key in ("tail", "k", "r", "m") if "system" in rec and key in rec]
    if stray:
        raise ValueError(f"{where}: concrete record with {', '.join(stray)}")
    for key in _RANGE_KEYS:
        if key in rec and not _range_ok(key, rec[key]):
            raise ValueError(f"{where}: bad {key} range {json.dumps(rec[key])}")
    for key, kind in _TYPES.items():
        value = rec.get(key)
        if key in rec and type(value) is not kind and (key, value) != ("max_glues", None):
            raise ValueError(f"{where}: {key} {json.dumps(value)} is not "
                             f"{'an int' if kind is int else 'a string'}")
    midpoints = rec.get("midpoints", [])
    if not (isinstance(midpoints, list) and all(isinstance(mp, dict) for mp in midpoints)):
        raise ValueError(f"{where}: midpoints {json.dumps(midpoints)} "
                         "is not a list of objects")
    entry = LedgerEntry(index=index, **rec)
    if entry.expect not in EXPECTS:
        raise ValueError(f"{where}: unknown expect {entry.expect!r}")
    if entry.script is not None and entry.script not in ADHOC_SCRIPTS:
        raise ValueError(f"{where}: unknown script {entry.script!r}")
    return entry


def load_entries() -> list[LedgerEntry]:
    text = resources.files("fatpoints").joinpath("data", DATA_RESOURCE).read_text()
    return [_entry_from_record(json.loads(line), index)
            for index, line in enumerate(text.splitlines())
            if line.strip() and not line.lstrip().startswith("#")]


def _values(spec: object, lo_default: int, hi_cap: int) -> list[int]:
    """The values of a k or r range, whose form is checked at load."""
    if isinstance(spec, dict):
        hi = min(spec.get("le", hi_cap), hi_cap)
        return list(range(spec.get("ge", lo_default), hi + 1))
    return [v for v in ([spec] if isinstance(spec, int) else spec) if v <= hi_cap]


def _m_values(entry: LedgerEntry, m_min: int, m_max: int) -> tuple[list[int], list[int]]:
    """Instantiable m values and excluded (skipped-and-flagged) values."""
    spec = entry.m or {}
    lo = max(m_min, spec.get("ge", 12))
    excluded = [m for m in spec.get("ne", []) if lo <= m <= m_max]
    values = [m for m in range(lo, m_max + 1) if m not in spec.get("ne", [])]
    return values, excluded


def instantiate(entry: LedgerEntry, m: int | None = None, k: int | None = None,
                r: int | None = None) -> LinearSystem:
    if entry.concrete:
        return parse_system(entry.system)
    if m is None or k is None or r is None:
        raise ValueError("family entries need m, k and r")
    return LinearSystem(m + k, (m,) + (entry.tail,) * r)


# ---------------------------------------------------------------------
# generic method executor


def _glue(L: LinearSystem, small: LinearSystem, cfg: EngineConfig,
          steps: list[Step]) -> LinearSystem:
    """Glue the points of `small` in L, recording the step with the small
    system and its certificate."""
    cert = classify(small, cfg)
    glued = glue(L, len(small.mults), small.mults[0], small.degree, cert)
    steps.append(Step("glue", {"small": small, "certificate": cert.certificate},
                      before=L, after=glued))
    return glued


def execute_method(
    L: LinearSystem,
    cfg: EngineConfig,
    target_offset: int = 1,
    glues_per_phase: int = 1,
    max_glues: int | None = None,
) -> tuple[tuple[Step, ...], Verdict]:
    """Alternate standard form and glue phases until the axioms conclude.

    A glue phase performs up to glues_per_phase consecutive glues, each
    replacing GLUE_S points of the smallest repeated multiplicity m0 by
    one point of multiplicity 2*m0 + target_offset (the usual target is
    2*m0 + 1; emptiness proofs glue to 2*m0).  If no glue applies or a
    precondition fails, the engine pipeline settles the current system.

    Returns the method's own steps, ``standard_form`` and ``glue`` steps
    starting at L, and the verdict of the system where they end.
    """
    steps: list[Step] = []
    glues = 0
    cur = L
    for _ in range(24):
        cur = record_standard_form(cur, steps)
        if cur.degree < 0 or any(x < 0 for x in cur.mults):
            return tuple(steps), classify(cur, cfg)
        canon = cur.canonical()
        v = classify_by_axioms(canon)
        if v is not None:
            return tuple(steps), v
        phase_start = glues
        while glues - phase_start < glues_per_phase and (
                max_glues is None or glues < max_glues):
            m0 = next((x for x in sorted(set(canon.mults))
                       if x > 0 and canon.count(x) >= GLUE_S), None)
            if m0 is None:
                break
            small = LinearSystem(2 * m0 - 1 + target_offset, (m0,) * GLUE_S)
            try:
                canon = _glue(canon, small, cfg, steps).canonical()
            except GlueError:
                return tuple(steps), classify(canon, cfg)
            glues += 1
        if glues == phase_start:
            return tuple(steps), classify(canon, cfg)
        cur = canon
    return tuple(steps), classify(cur, cfg)


def _map_to_original(L: LinearSystem, steps: tuple[Step, ...],
                     endpoint: Verdict) -> Verdict:
    """Transfer the endpoint verdict back to the original system; its
    certificate is the method's steps, then the endpoint's.

    Cremona transformations preserve dimension and (-1-)specialty;
    glueing transfers non-specialty (and hence emptiness through the
    expected dimension) but not -1-specialty.
    """
    if endpoint.certifies_nonspecial:
        return Verdict.nonspecial(edim(L), steps + endpoint.certificate)
    if endpoint.kind == MINUS_ONE_SPECIAL and any(s.op == "glue" for s in steps):
        return Verdict(INCONCLUSIVE,
                       reason="-1-specialty does not transfer through glueing")
    return endpoint.prepend(steps)


# ---------------------------------------------------------------------
# ad-hoc scripts


def _script_glue3(L: LinearSystem, cfg: EngineConfig,
                  small_text: str) -> tuple[tuple[Step, ...], Verdict]:
    """Glue three points using the given small system, then standard form."""
    steps: list[Step] = []
    glued = _glue(L.canonical(), parse_system(small_text), cfg, steps)
    std = record_standard_form(glued, steps).canonical()
    v = classify_by_axioms(std)
    if v is None:
        raise ValueError(f"the axioms leave the glued system {std} unsettled")
    return tuple(steps), v


def dim_lower_bound_step(L: LinearSystem) -> LinearSystem | None:
    """Degree-drop argument: certifying L(d-1; M) non-special with
    vdim >= -1 pins dim L(d; M) to its expected dimension."""
    cand = LinearSystem(L.degree - 1, L.mults)
    if vdim(cand) >= -1:
        return cand
    return None


def _script_degree_drop(L: LinearSystem,
                        cfg: EngineConfig) -> tuple[tuple[Step, ...], Verdict]:
    """Settle L by certifying the degree-(d-1) system non-special."""
    steps: list[Step] = []
    std = record_standard_form(L, steps)
    dropped = dim_lower_bound_step(std)
    if dropped is None:
        raise ValueError("degree drop needs vdim(L(d-1;M)) >= -1")
    steps.append(Step("degree_drop", {}, before=std, after=dropped))
    record_standard_form(dropped, steps)
    sub = classify(dropped, cfg)
    if not sub.certifies_nonspecial:
        sub = Verdict(INCONCLUSIVE, reason="degree-drop target not certified")
    return tuple(steps), sub


# a script returns its own steps, starting at L, and the endpoint verdict;
# a record's midpoints name the systems those steps pass through
ADHOC_SCRIPTS = {
    "glue3-8": lambda L, cfg: _script_glue3(L, cfg, "L(15;8^3)"),
    "glue3-10": lambda L, cfg: _script_glue3(L, cfg, "L(19;10^3)"),
    "degree-drop": _script_degree_drop,
    "classify": lambda L, cfg: ((), classify(L, cfg)),
}


# ---------------------------------------------------------------------
# verification


@dataclass
class InstanceResult:
    system: str
    params: dict
    ok: bool
    kind: str
    note: str | None = None


@dataclass
class EntryReport:
    entry: LedgerEntry
    results: list[InstanceResult] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def failures(self) -> list[InstanceResult]:
        return [r for r in self.results if not r.ok]


def _expected_ok(entry: LedgerEntry, verdict: Verdict) -> tuple[bool, str | None]:
    """`empty` and `nonspecial` need that kind; `auto` and `rank` need any
    conclusive verdict."""
    want = {"empty": EMPTY, "nonspecial": NON_SPECIAL}.get(entry.expect)
    if want is not None:
        ok = verdict.kind == want
        return ok, None if ok else f"expected {want}, got {verdict.kind}"
    ok = verdict.conclusive
    return ok, None if ok else (verdict.reason or "inconclusive")


def _check_midpoints(entry: LedgerEntry, params: dict, L: LinearSystem,
                     steps: tuple[Step, ...]) -> str | None:
    """Each midpoint must be L or a system the method's own steps name;
    the endpoint's certificate and a glue's nested one do not count."""
    for mp in entry.midpoints:
        cond = {key: mp[key] for key in ("m", "k", "r") if key in mp}
        if all(params.get(key) == val for key, val in cond.items()):
            passed = [L, *(x for s in steps for x in
                           (s.before, s.after, *s.params.get("chain", ())))]
            for text in mp["systems"]:
                want = parse_system(text)
                if not any(want.same_as(x) for x in passed):
                    return f"missing expected intermediate {text}"
    return None


def _settle(entry: LedgerEntry, L: LinearSystem,
            cfg: EngineConfig) -> tuple[tuple[Step, ...], Verdict]:
    """The steps of the record's method on L and the verdict it gives L."""
    if entry.script:
        steps, endpoint = ADHOC_SCRIPTS[entry.script](L, cfg)
    elif entry.expect == "rank":
        rank_cfg = EngineConfig(
            field_cfg=cfg.field_cfg, max_cols=cfg.max_cols,
            stages=("standard_form", "rank"),
        )
        return (), classify(L, rank_cfg)
    else:
        steps, endpoint = execute_method(
            L, cfg, target_offset=entry.target_offset,
            glues_per_phase=entry.glues_per_phase,
            max_glues=entry.max_glues,
        )
    return steps, _map_to_original(L, steps, endpoint)


def _run_instance(entry: LedgerEntry, L: LinearSystem, params: dict,
                  cfg: EngineConfig) -> InstanceResult:
    try:
        steps, verdict = _settle(entry, L, cfg)
    except (AssertionError, ValueError) as exc:
        return InstanceResult(system=str(L), params=params, ok=False,
                              kind="error", note=str(exc))
    ok, note = _expected_ok(entry, verdict)
    if ok and verdict.kind == NON_SPECIAL and verdict.dim != edim(L):
        ok, note = False, f"dim {verdict.dim} != edim {edim(L)}"
    if ok:
        note = _check_midpoints(entry, params, L, steps)
        ok = note is None
    return InstanceResult(system=str(L), params=params, ok=ok,
                          kind=verdict.kind, note=note)


def iter_instances(entry: LedgerEntry, m_max: int = 20, k_max: int = 60,
                   r_max: int = 16) -> Iterator[tuple[dict, LinearSystem]]:
    if entry.concrete:
        yield {}, instantiate(entry)
        return
    ms, _excluded = _m_values(entry, 12, m_max)
    for m in ms:
        for k in _values(entry.k, 0, k_max):
            for r in _values(entry.r, 9, r_max):
                yield {"m": m, "k": k, "r": r}, instantiate(entry, m, k, r)


def verify_entry(entry: LedgerEntry, m_max: int = 20, k_max: int = 60,
                 r_max: int = 16, cfg: EngineConfig | None = None) -> EntryReport:
    cfg = cfg or DEFAULT_CONFIG
    report = EntryReport(entry=entry)
    if not entry.concrete:
        _, excluded = _m_values(entry, 12, m_max)
        for m in excluded:
            report.skipped.append({"m": m, "why": "excluded by the method"})
    for params, L in iter_instances(entry, m_max, k_max, r_max):
        report.results.append(_run_instance(entry, L, params, cfg))
    return report


@dataclass
class LedgerReport:
    entries: int = 0
    instantiations: int = 0
    failures: list[InstanceResult] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "instantiations": self.instantiations,
            "failures": [
                {"system": f.system, "params": f.params, "note": f.note}
                for f in self.failures
            ],
            "skipped": self.skipped,
        }


def run_ledger(m_max: int = 20, k_max: int = 60, r_max: int = 16,
               cfg: EngineConfig | None = None,
               entry_id: str | None = None) -> LedgerReport:
    cfg = cfg or DEFAULT_CONFIG
    chosen = [e for e in load_entries() if entry_id is None or e.id == entry_id]
    if not chosen:
        raise ValueError(f"no ledger record has id {entry_id!r}")
    summary = LedgerReport()
    for entry in chosen:
        rep = verify_entry(entry, m_max, k_max, r_max, cfg)
        summary.entries += 1
        summary.instantiations += len(rep.results)
        summary.failures.extend(rep.failures)
        for sk in rep.skipped:
            summary.skipped.append({"entry": entry.id, "index": entry.index, **sk})
    return summary
