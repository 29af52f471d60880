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

from .engine import EngineConfig, classify
from .systems import (
    EMPTY,
    INCONCLUSIVE,
    MINUS_ONE_SPECIAL,
    NON_SPECIAL,
    GlueError,
    LinearSystem,
    Verdict,
    classify_by_axioms,
    classify_by_simple_points,
    edim,
    glue,
    standard_form,
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
    k_spec: object = None
    r_spec: object = None
    m_spec: object = None
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


# JSON key -> LedgerEntry field; only k, r and m are renamed
_FIELD_OF = {
    {"k_spec": "k", "r_spec": "r", "m_spec": "m"}.get(f.name, f.name): f.name
    for f in fields(LedgerEntry) if f.name != "index"
}


def _entry_from_record(rec: dict, index: int) -> LedgerEntry:
    """Build the entry of the record on 0-based line `index`."""
    where = f"{DATA_RESOURCE} line {index + 1}"
    unknown = sorted(set(rec) - set(_FIELD_OF))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = [key for key in ("id", "anchor") if key not in rec]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(missing)}")
    entry = LedgerEntry(index=index, **{_FIELD_OF[k]: v for k, v in rec.items()})
    if entry.expect not in EXPECTS:
        raise ValueError(f"{where}: unknown expect {entry.expect!r}")
    if entry.script is not None and entry.script not in ADHOC_SCRIPTS:
        raise ValueError(f"{where}: unknown script {entry.script!r}")
    return entry


def load_entries() -> list[LedgerEntry]:
    text = (
        resources.files("fatpoints").joinpath("data", DATA_RESOURCE).read_text()
    )
    entries: list[LedgerEntry] = []
    for index, line in enumerate(text.splitlines()):
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(_entry_from_record(json.loads(line), index))
    return entries


def _values(spec: object, lo_default: int, hi_cap: int) -> list[int]:
    if spec is None:
        return []
    if isinstance(spec, int):
        return [spec]
    if isinstance(spec, list):
        return [v for v in spec if v <= hi_cap]
    if isinstance(spec, dict):
        lo = spec.get("ge", lo_default)
        hi = min(spec.get("le", hi_cap), hi_cap)
        return list(range(lo, hi + 1))
    raise ValueError(f"bad range spec {spec!r}")


def _m_values(entry: LedgerEntry, m_min: int, m_max: int) -> tuple[list[int], list[int]]:
    """Instantiable m values and excluded (skipped-and-flagged) values."""
    spec = entry.m_spec or {}
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


@dataclass
class Execution:
    verdict: Verdict
    chain: list[LinearSystem]
    glue_steps: list[dict]

    def chain_contains(self, L: LinearSystem) -> bool:
        return any(x.same_as(L) for x in self.chain)


def execute_method(
    L: LinearSystem,
    cfg: EngineConfig,
    target_offset: int = 1,
    glues_per_phase: int = 1,
    max_glues: int | None = None,
) -> Execution:
    """Alternate standard form and glue phases until the axioms conclude.

    A glue phase performs up to glues_per_phase consecutive glues, each
    replacing GLUE_S points of the smallest repeated multiplicity m0 by
    one point of multiplicity 2*m0 + target_offset (the usual target is
    2*m0 + 1; emptiness proofs glue to 2*m0).  If no glue applies or a
    precondition fails, the engine pipeline settles the current system.
    """
    chain = [L]
    glue_steps: list[dict] = []
    cur = L
    verdict: Verdict | None = None
    for _ in range(24):
        cur, ch = standard_form(cur)
        chain.extend(ch[1:])
        if cur.degree < 0 or any(x < 0 for x in cur.mults):
            verdict = classify(cur, cfg)
            break
        canon = cur.canonical()
        v = classify_by_axioms(canon) or classify_by_simple_points(canon)
        if v is not None:
            verdict = v
            break
        glued = 0
        failed = False
        while glued < glues_per_phase:
            if max_glues is not None and len(glue_steps) >= max_glues:
                break
            m0 = next(
                (x for x in sorted(set(canon.mults))
                 if x > 0 and canon.count(x) >= GLUE_S),
                None,
            )
            if m0 is None:
                break
            k_small = 2 * m0 - 1 + target_offset
            small = LinearSystem(k_small, (m0,) * GLUE_S)
            cert = classify(small, cfg)
            try:
                nxt = glue(canon, GLUE_S, m0, k_small, cert)
            except GlueError:
                failed = True
                break
            glue_steps.append(_glue_step(small, canon, nxt))
            chain.append(nxt)
            canon = nxt.canonical()
            glued += 1
        if glued == 0 or failed:
            verdict = classify(canon, cfg)
            break
        cur = canon
    if verdict is None:
        verdict = classify(cur, cfg)
    return Execution(verdict=verdict, chain=chain, glue_steps=glue_steps)


def _glue_step(small: LinearSystem, before: LinearSystem,
               after: LinearSystem) -> dict:
    """Record of one glue of the points of `small`: `before` became `after`."""
    return {"s": len(small.mults), "m": small.mults[0], "k": small.degree,
            "vdim_before": vdim(before), "vdim_after": vdim(after),
            "vdim_small": vdim(small)}


def _map_to_original(L: LinearSystem, ex: Execution) -> Verdict:
    """Transfer the endpoint verdict back to the original system.

    Cremona transformations preserve dimension and (-1-)specialty;
    glueing transfers non-specialty (and hence emptiness through the
    expected dimension) but not -1-specialty.
    """
    final = ex.verdict
    if final.certifies_nonspecial:
        e = edim(L)
        kind = EMPTY if e == -1 else NON_SPECIAL
        return Verdict(kind, dim=e, certificate=final.certificate,
                       axioms_used=final.axioms_used)
    if final.kind == MINUS_ONE_SPECIAL and ex.glue_steps:
        return Verdict(
            INCONCLUSIVE,
            reason="-1-specialty does not transfer through glueing",
        )
    return final


# ---------------------------------------------------------------------
# ad-hoc scripts


def _script_glue3(L: LinearSystem, cfg: EngineConfig,
                  small_text: str) -> Execution:
    """Glue three points using the given small system, then standard form."""
    small = parse_system(small_text)
    cert = classify(small, cfg)
    L2 = glue(L.canonical(), 3, small.mults[0], small.degree, cert)
    std, chain = standard_form(L2)
    v = classify_by_axioms(std.canonical())
    assert v is not None
    return Execution(verdict=v, chain=[L, L2, *chain[1:]],
                     glue_steps=[_glue_step(small, L, L2)])


def dim_lower_bound_step(L: LinearSystem) -> LinearSystem | None:
    """Degree-drop argument: certifying L(d-1; M) non-special with
    vdim >= -1 pins dim L(d; M) to its expected dimension."""
    cand = LinearSystem(L.degree - 1, L.mults)
    if vdim(cand) >= -1:
        return cand
    return None


def _script_degree_drop(L: LinearSystem, cfg: EngineConfig) -> Execution:
    """Settle L by certifying the degree-(d-1) system non-special."""
    std, chain = standard_form(L)
    dropped = dim_lower_bound_step(std)
    assert dropped is not None, "degree drop needs vdim(L(d-1;M)) >= -1"
    sub = classify(dropped, cfg)
    if not sub.certifies_nonspecial:
        sub = Verdict(INCONCLUSIVE, reason="degree-drop target not certified")
    _, sub_chain = standard_form(dropped)
    return Execution(verdict=sub, chain=[*chain, *sub_chain], glue_steps=[])


def _script_classify(L: LinearSystem, cfg: EngineConfig) -> Execution:
    return Execution(verdict=classify(L, cfg), chain=[L], glue_steps=[])


ADHOC_SCRIPTS = {
    "glue3-8-L(4;4)": lambda L, cfg: _script_glue3(L, cfg, "L(15;8^3)"),
    "glue3-10-L(4;2)": lambda L, cfg: _script_glue3(L, cfg, "L(19;10^3)"),
    "glue3-10-L(5;5)": lambda L, cfg: _script_glue3(L, cfg, "L(19;10^3)"),
    "classify": _script_classify,
    "degree-drop-L(26;9^2,8^8)": _script_degree_drop,
    "crst-degree-drop-L(29;11,9^8,8)": _script_degree_drop,
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


def _check_midpoints(entry: LedgerEntry, params: dict,
                     ex: Execution) -> str | None:
    for mp in entry.midpoints:
        cond = {key: mp[key] for key in ("m", "k", "r") if key in mp}
        if all(params.get(key) == val for key, val in cond.items()):
            for text in mp["systems"]:
                if not ex.chain_contains(parse_system(text)):
                    return f"missing expected intermediate {text}"
    return None


def _run_instance(entry: LedgerEntry, L: LinearSystem, params: dict,
                  cfg: EngineConfig) -> InstanceResult:
    try:
        if entry.script:
            ex = ADHOC_SCRIPTS[entry.script](L, cfg)
            verdict = _map_to_original(L, ex)
        elif entry.expect == "rank":
            rank_cfg = EngineConfig(
                field_cfg=cfg.field_cfg, max_cols=cfg.max_cols,
                stages=("standard_form", "rank"),
            )
            verdict = classify(L, rank_cfg)
            ex = Execution(verdict=verdict, chain=[L], glue_steps=[])
        else:
            ex = execute_method(
                L, cfg, target_offset=entry.target_offset,
                glues_per_phase=entry.glues_per_phase,
                max_glues=entry.max_glues,
            )
            verdict = _map_to_original(L, ex)
            if not verdict.conclusive and entry.expect == "auto":
                direct = classify(L, cfg)
                if direct.conclusive:
                    verdict = direct
                    ex = Execution(verdict=direct, chain=[L], glue_steps=[])
    except (AssertionError, ValueError) as exc:
        return InstanceResult(system=str(L), params=params, ok=False,
                              kind="error", note=str(exc))
    ok, note = _expected_ok(entry, verdict)
    if ok and verdict.kind == NON_SPECIAL and verdict.dim != edim(L):
        ok, note = False, f"dim {verdict.dim} != edim {edim(L)}"
    if ok:
        note = _check_midpoints(entry, params, ex)
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
        for k in _values(entry.k_spec, 0, k_max):
            for r in _values(entry.r_spec, 9, r_max):
                yield {"m": m, "k": k, "r": r}, instantiate(entry, m, k, r)


def verify_entry(entry: LedgerEntry, m_max: int = 20, k_max: int = 60,
                 r_max: int = 16, cfg: EngineConfig | None = None) -> EntryReport:
    cfg = cfg or EngineConfig()
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
    per_entry: list[EntryReport] = field(default_factory=list)

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
    cfg = cfg or EngineConfig()
    summary = LedgerReport()
    for entry in load_entries():
        if entry_id is not None and entry.id != entry_id:
            continue
        rep = verify_entry(entry, m_max, k_max, r_max, cfg)
        summary.entries += 1
        summary.instantiations += len(rep.results)
        summary.failures.extend(rep.failures)
        for sk in rep.skipped:
            summary.skipped.append({"entry": entry.id, "index": entry.index, **sk})
        summary.per_entry.append(rep)
    return summary
