from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest

import fatpoints
from fatpoints import ledger
from fatpoints.diagrams import triangle
from fatpoints.engine import EngineConfig, classify
from fatpoints.initial_cases import FamilySpec, run_initial_cases
from fatpoints.ledger import (
    ADHOC_SCRIPTS,
    LedgerEntry,
    _entry_from_record,
    _m_values,
    _script_degree_drop,
    _values,
    dim_lower_bound_step,
    execute_method,
    iter_instances,
    load_entries,
    run_ledger,
    verify_entry,
)
from fatpoints.systems import (
    EMPTY,
    INCONCLUSIVE,
    NON_SPECIAL,
    LinearSystem,
    Verdict,
    edim,
    vdim,
)
from fatpoints.textio import parse_system


def entries():
    return load_entries()


class TestLoad:
    def test_record_count(self):
        assert len(entries()) == 143

    def test_all_scripts_exist(self):
        for e in entries():
            if e.script is not None:
                assert e.script in ADHOC_SCRIPTS, e.script

    def test_concrete_systems_parse(self):
        for e in entries():
            if e.concrete:
                parse_system(e.system)

    def test_unique_indices(self):
        idx = [(e.id, e.index) for e in entries()]
        assert len(idx) == len(set(idx))


FAMILY = {"id": "GLUE", "anchor": "glueing", "tail": 7, "k": [22], "r": [9]}
CONCRETE = {"id": "ADHOC", "anchor": "additional", "system": "L(29;12,7^9)"}


class TestLoaderChecks:
    def test_record_loads_straight_into_entry(self):
        rec = {**FAMILY, "m": {"ge": 13}, "max_glues": 2}
        assert _entry_from_record(rec, 4) == LedgerEntry(
            id="GLUE", anchor="glueing", index=4, tail=7, k=[22],
            r=[9], m={"ge": 13}, max_glues=2,
        )

    @pytest.mark.parametrize("rec, message", [
        ({**FAMILY, "glues": 1}, "unknown key(s) glues"),
        ({**FAMILY, "k_spec": [22]}, "unknown key(s) k_spec"),
        ({**FAMILY, "expect": "emtpy"}, "unknown expect 'emtpy'"),
        ({**FAMILY, "script": "glue3"}, "unknown script 'glue3'"),
        ({"id": "GLUE", "tail": 7}, "missing anchor"),
        ({"id": "GLUE", "anchor": "glueing", "tail": 7, "k": [22]}, "missing r"),
        ({k: v for k, v in FAMILY.items() if k != "tail"}, "missing tail"),
        ({**FAMILY, "m": {"ge": 12, "le": 14}}, 'bad m range {"ge": 12, "le": 14}'),
        ({**FAMILY, "k": {"gt": 3}}, 'bad k range {"gt": 3}'),
        ({**FAMILY, "r": [9, "10"]}, 'bad r range [9, "10"]'),
        ({**FAMILY, "m": 13}, "bad m range 13"),
        ({**CONCRETE, "k": [3], "m": {"ne": [12]}}, "concrete record with k, m"),
        ({**CONCRETE, "tail": 7, "r": 9}, "concrete record with tail, r"),
        ([1], "not a JSON object"),
        (5, "not a JSON object"),
        ({**FAMILY, "glues_per_phase": "two"}, 'glues_per_phase "two" is not an int'),
        ({**FAMILY, "tail": None}, "tail null is not an int"),
        ({**FAMILY, "target_offset": True}, "target_offset true is not an int"),
        ({**FAMILY, "max_glues": 1.5}, "max_glues 1.5 is not an int"),
        ({**FAMILY, "id": 3}, "id 3 is not a string"),
        ({**FAMILY, "anchor": None}, "anchor null is not a string"),
        ({**CONCRETE, "system": ["L(29;12,7^9)"]}, 'system ["L(29;12,7^9)"] is not a string'),
        ({**CONCRETE, "script": 1}, "script 1 is not a string"),
        ({**FAMILY, "expect": ["auto"]}, 'expect ["auto"] is not a string'),
        ({**FAMILY, "midpoints": {"systems": []}},
         'midpoints {"systems": []} is not a list of objects'),
        ({**FAMILY, "midpoints": ["L(24;10,7^5,2)"]},
         'midpoints ["L(24;10,7^5,2)"] is not a list of objects'),
    ])
    def test_bad_record_names_its_line(self, rec, message):
        with pytest.raises(ValueError,
                           match=re.escape(f"cases.jsonl line 5: {message}")):
            _entry_from_record(rec, 4)

    def test_null_max_glues_is_unlimited(self):
        assert _entry_from_record({**FAMILY, "max_glues": None}, 4).max_glues is None

    @pytest.mark.parametrize("spec, values", [
        (50, []), (40, [40]), ([39, 50], [39]), ({"ge": 39, "le": 50}, [39, 40]),
    ])
    def test_range_clipped_by_cap(self, spec, values):
        assert _values(spec, 0, 40) == values

    def test_int_k_above_cap_yields_no_instance(self):
        entry = _entry_from_record({**FAMILY, "k": 50}, 4)
        assert list(iter_instances(entry, m_max=12, k_max=40)) == []
        assert [p["k"] for p, _ in iter_instances(entry, m_max=12, k_max=50)] == [50]

    @pytest.mark.parametrize("script, good, bad", [
        ("glue3-8", "L(4;4)", "L(4;3)"),
        ("degree-drop", "L(26;9^2,8^8)", "L(26;9^2,8^7)"),
    ])
    def test_wrong_script_midpoint_fails(self, script, good, bad):
        entry = next(e for e in entries() if e.script == script)
        assert not verify_entry(entry).failures
        (mp,) = entry.midpoints
        assert good in mp["systems"]
        systems = [bad if s == good else s for s in mp["systems"]]
        altered = dataclasses.replace(entry, midpoints=[{"systems": systems}])
        (failure,) = verify_entry(altered).failures
        assert failure.note == f"missing expected intermediate {bad}"

    def test_altered_method_midpoint_fails(self):
        entry = next(e for e in entries() if e.id == "GLUE_CREMONAS")
        assert not verify_entry(entry, 12, 16, 9).failures
        mp = entry.midpoints[0]
        assert (mp["k"], mp["r"], mp["systems"][1]) == (16, 9, "L(20;7,6^5,1)")
        altered = dataclasses.replace(entry, midpoints=[
            {**mp, "systems": [mp["systems"][0], "L(20;7,6^5,2)"]}])
        (failure,) = verify_entry(altered, 12, 16, 9).failures
        assert failure.params == {"m": 12, "k": 16, "r": 9}
        assert failure.note == "missing expected intermediate L(20;7,6^5,2)"

    @pytest.mark.parametrize("system", [
        "L(1;2)",  # the stripped system of the endpoint's strip_negative step
        "L(0;2)",  # in the certificate of the glue's small system
    ])
    def test_midpoint_outside_the_method_steps_fails(self, system):
        # the endpoint's own certificate and a glue's nested one are not
        # steps of the method, so their systems are no midpoints
        entry = next(e for e in entries() if e.system == "L(34;13,10^10)")
        ((_, L),) = iter_instances(entry)
        _, verdict = ledger._settle(entry, L, EngineConfig())
        texts = {str(x.canonical()) for s in verdict.certificate for x in _systems_in(s)}
        assert system in texts
        altered = dataclasses.replace(entry, midpoints=[{"systems": [system]}])
        (failure,) = verify_entry(altered).failures
        assert failure.note == f"missing expected intermediate {system}"


def _systems_in(step):
    """The systems a step names, those of its nested certificate included."""
    for x in (step.before, step.after, *step.params.get("chain", ())):
        if isinstance(x, LinearSystem):
            yield x
    for inner in step.params.get("certificate", ()):
        yield from _systems_in(inner)


class TestCoverage:
    def test_every_cell_is_covered(self):
        # each combination of tail multiplicity t in 7..10, degree excess
        # k in 0..40 and anchor multiplicity m in 12..20 must be handled
        # either by a family record or by a concrete record of shape
        # L(m+k; m, t^r)
        family = defaultdict(set)
        concrete = set()
        for e in entries():
            if e.concrete:
                L = parse_system(e.system).canonical()
                ms = L.mults
                if len(ms) >= 2 and all(x == ms[1] for x in ms[1:]):
                    concrete.add((ms[1], L.degree - ms[0], ms[0]))
                continue
            for params, _ in iter_instances(e, m_max=20, k_max=40, r_max=16):
                family[(e.tail, params["k"])].add(params["m"])
        for t in (7, 8, 9, 10):
            for k in range(41):
                for m in range(12, 21):
                    assert m in family[(t, k)] or (t, k, m) in concrete, \
                        f"uncovered cell t={t} k={k} m={m}"

    def test_method_exclusions_are_flagged(self):
        flagged = {}
        for e in entries():
            if e.concrete:
                continue
            _, excluded = _m_values(e, 12, 20)
            for m in excluded:
                flagged[(e.id, e.tail, tuple(e.k) if
                         isinstance(e.k, list) else e.k, m)] = True
        assert ("CREMONA_EVEN_GLUE_CREMONAS", 10, (19,), 17) in flagged
        assert ("CREMONA_ODD_GLUE_CREMONAS", 10, (19,), 16) in flagged


class TestExecute:
    def test_glue_bookkeeping_identity(self):
        L = parse_system("L(29;12,7^9)")
        steps, _ = execute_method(L, EngineConfig())
        glues = [s for s in steps if s.op == "glue"]
        assert glues
        for g in glues:
            small = g.params["small"]
            assert vdim(g.after) - vdim(g.before) == -(vdim(small) + 1)

    def test_chain_starts_at_input(self):
        L = parse_system("L(29;12,7^9)")
        steps, _ = execute_method(L, EngineConfig())
        assert steps[0].before == L

    def test_max_glues_zero_forbids_glueing(self):
        L = parse_system("L(29;12,7^9)")
        steps, _ = execute_method(L, EngineConfig(), max_glues=0)
        assert all(s.op != "glue" for s in steps)


class TestVerify:
    def test_negative_glue_entry(self):
        matches = [e for e in entries()
                   if e.id == "NEGATIVE_GLUE"
                   and e.concrete and "L(32;13,9^11)" in e.system]
        assert matches
        rep = verify_entry(matches[0], cfg=EngineConfig())
        assert not rep.failures

    def test_adhoc_entries(self):
        for e in entries():
            if e.anchor != "additional":
                continue
            rep = verify_entry(e, cfg=EngineConfig())
            assert not rep.failures, (e.system, rep.failures)

    def test_run_ledger_single_entry(self):
        rep = run_ledger(m_max=14, k_max=30, entry_id="GLUE")
        assert rep.entries >= 1
        assert not rep.failures

    def test_run_ledger_unknown_id(self):
        with pytest.raises(ValueError, match="no ledger record has id 'NOPE'"):
            run_ledger(entry_id="NOPE")

    def test_report_retains_almost_nothing(self):
        # the report keeps the counts, failures and skips it prints, not
        # the result of every instance: dropping it frees under 64 KiB
        tracemalloc.start()
        try:
            rep = run_ledger(m_max=20, k_max=40, r_max=16)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            assert rep.instantiations > 0 and not rep.failures
            del rep
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    def test_instance_fails_when_its_method_does_not_settle_it(self, monkeypatch):
        # the system is settled when classified directly, but a record
        # passes only when its declared method settles it
        L = parse_system("L(29;12,7^9)")
        assert classify(L).conclusive

        def stalled(L, cfg, **kwargs):
            return (), Verdict(INCONCLUSIVE, reason="stalled")

        monkeypatch.setattr("fatpoints.ledger.execute_method", stalled)
        entry = next(
            e for e in entries()
            if not e.concrete and e.expect == "auto"
            and any(x.same_as(L) for _, x in iter_instances(e, 12, 17, 9))
        )
        rep = verify_entry(entry, m_max=12, k_max=17, r_max=9)
        (result,) = rep.results
        assert result.system == str(L)
        assert not result.ok and result.kind == INCONCLUSIVE

    def test_glue3_endpoint_the_axioms_leave_unsettled(self, monkeypatch):
        monkeypatch.setattr("fatpoints.ledger.classify_by_axioms", lambda L: None)
        entry = next(e for e in entries() if e.script == "glue3-8")
        (result,) = verify_entry(entry).results
        assert not result.ok and result.kind == "error"
        assert "axioms leave the glued system" in result.note

    def test_broken_glue_identity_is_an_error_without_asserts(self):
        # python -O strips assert statements; glue raises on a broken
        # vdim identity, and the instance fails as an error: the method
        # does not take it for a failed precondition and fall back to the
        # engine
        script = (
            "from fatpoints import systems\n"
            "from fatpoints.ledger import load_entries, verify_entry\n"
            "real = systems.vdim\n"
            "systems.vdim = lambda L: real(L) + (L.mults == (9, 9, 9, 9))\n"
            "entry = next(e for e in load_entries() if e.system == 'L(32;13,9^11)')\n"
            "(result,) = verify_entry(entry).results\n"
            "print(result.ok, result.kind, result.note)\n"
        )
        src = str(Path(fatpoints.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("False error glue broke vdim L2 - vdim L"), \
            proc.stdout

    def test_degree_drop_below_vdim_minus_one(self):
        with pytest.raises(ValueError, match="degree drop needs"):
            _script_degree_drop(parse_system("L(13;5,4^9)"), EngineConfig())


@pytest.fixture(scope="module")
def grid():
    """run_ledger(20, 40, 16), with the (system, verdict) pair of every
    instance in the order the replay settles them."""
    settled = []
    settle = ledger._settle

    def recording(entry, L, cfg):
        steps, verdict = settle(entry, L, cfg)
        settled.append((L, verdict))
        return steps, verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ledger, "_settle", recording)
        report = run_ledger(20, 40, 16)
    return report, settled


def test_engine_agrees_with_every_ledger_method(grid):
    # a differential oracle: classify settles each instance on its own,
    # with the kind its declared method gives and dim edim (the dim every
    # passing instance has); a disagreement is a bug in one of the two
    report, settled = grid
    assert not report.failures, report.failures[:3]
    instances = [(e.id, params, L) for e in entries()
                 for params, L in iter_instances(e, 20, 40, 16)]
    assert len(instances) == len(settled) == report.instantiations
    kinds = defaultdict(int)
    for (eid, params, L), (settled_L, verdict) in zip(instances, settled):
        assert settled_L == L
        direct = classify(L)
        assert (direct.kind, direct.dim) == (verdict.kind, edim(L)), (eid, params)
        kinds[verdict.kind] += 1
    assert dict(kinds) == {EMPTY: 3694, NON_SPECIAL: 3102}


def test_certificates_start_at_the_instance(grid):
    # a ledger verdict's certificate is the method's own steps, then the
    # endpoint's: its first system is the instance, and where no step
    # names a system (a rank or reduction certificate) the first step is
    # on the instance's own triangle
    for L, verdict in grid[1]:
        assert verdict.certificate, str(L)
        named = [x for s in verdict.certificate for x in (s.before, s.after)
                 if isinstance(x, LinearSystem)]
        if named:
            assert named[0].same_as(L), (str(L), str(named[0]))
        else:
            assert verdict.certificate[0].before == triangle(L.degree + 1), str(L)
        for g in (s for s in verdict.certificate if s.op == "glue"):
            assert vdim(g.after) - vdim(g.before) == -(vdim(g.params["small"]) + 1)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_bytes_are_pinned(grid):
    # the family and ledger reports, and every ledger certificate on the
    # (20, 40, 16) grid, byte for byte
    family = run_initial_cases(FamilySpec(5, 10, 1)).to_json()
    assert _sha256(family) == (
        "347d0c65b92021a4e966a5dd900d410ade073fcb5ea254b9159538a9ee9d6c54")
    report, settled = grid
    assert _sha256(json.dumps(report.to_dict(), sort_keys=True)) == (
        "af11bb44d27459c5ceab12164eb7880fc79a16bb523f295726b75e4451afa70d")
    lines = sorted(f"{L} {v.kind} {v.dim} "
                   f"{json.dumps([s.to_dict() for s in v.certificate], sort_keys=True)}"
                   for L, v in settled)
    assert _sha256("\n".join(lines)) == (
        "587a2c125303a8e85e23cd288232601d69fc8206233e09ac32ddf3e534302d3c")


class TestDegreeDrop:
    def test_applicable(self):
        L = parse_system("L(31;13,9^9)")
        cand = dim_lower_bound_step(L)
        assert cand is not None and cand.degree == 30

    def test_inapplicable_when_vdim_too_low(self):
        assert dim_lower_bound_step(parse_system("L(13;5,4^9)")) is None
