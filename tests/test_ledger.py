from __future__ import annotations

import dataclasses
import gc
import re
import tracemalloc
from collections import defaultdict

import pytest

from fatpoints.engine import EngineConfig, classify
from fatpoints.ledger import (
    ADHOC_SCRIPTS,
    Execution,
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
from fatpoints.systems import EMPTY, INCONCLUSIVE, NON_SPECIAL, Verdict, edim, vdim
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
            id="GLUE", anchor="glueing", index=4, tail=7, k_spec=[22],
            r_spec=[9], m_spec={"ge": 13}, max_glues=2,
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
    ])
    def test_bad_record_names_its_line(self, rec, message):
        with pytest.raises(ValueError,
                           match=re.escape(f"cases.jsonl line 5: {message}")):
            _entry_from_record(rec, 4)

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
                flagged[(e.id, e.tail, tuple(e.k_spec) if
                         isinstance(e.k_spec, list) else e.k_spec, m)] = True
        assert ("CREMONA_EVEN_GLUE_CREMONAS", 10, (19,), 17) in flagged
        assert ("CREMONA_ODD_GLUE_CREMONAS", 10, (19,), 16) in flagged


class TestExecute:
    def test_glue_bookkeeping_identity(self):
        L = parse_system("L(29;12,7^9)")
        ex = execute_method(L, EngineConfig())
        assert ex.glue_steps
        for g in ex.glue_steps:
            small = parse_system(f"L({g['k']};{g['m']}^{g['s']})")
            assert g["vdim_after"] - g["vdim_before"] == -(vdim(small) + 1)

    def test_chain_starts_at_input(self):
        L = parse_system("L(29;12,7^9)")
        ex = execute_method(L, EngineConfig())
        assert ex.chain[0] == L

    def test_max_glues_zero_forbids_glueing(self):
        L = parse_system("L(29;12,7^9)")
        ex = execute_method(L, EngineConfig(), max_glues=0)
        assert ex.glue_steps == []


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
            return Execution(verdict=Verdict(INCONCLUSIVE, reason="stalled"),
                             chain=[L], glue_steps=[])

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

    def test_degree_drop_below_vdim_minus_one(self):
        with pytest.raises(ValueError, match="degree drop needs"):
            _script_degree_drop(parse_system("L(13;5,4^9)"), EngineConfig())


def test_engine_agrees_with_every_ledger_method():
    # a differential oracle: classify settles each instance on its own,
    # with the kind its declared method gives and dim edim (the dim every
    # passing instance has); a disagreement is a bug in one of the two
    kinds = defaultdict(int)
    for e in entries():
        rep = verify_entry(e, 20, 40, 16)
        instances = list(iter_instances(e, 20, 40, 16))
        assert len(instances) == len(rep.results)
        for (params, L), res in zip(instances, rep.results):
            assert res.ok and res.system == str(L), (e.id, params, res.note)
            direct = classify(L)
            assert (direct.kind, direct.dim) == (res.kind, edim(L)), (e.id, params)
            kinds[res.kind] += 1
    assert dict(kinds) == {EMPTY: 3694, NON_SPECIAL: 3102}


class TestDegreeDrop:
    def test_applicable(self):
        L = parse_system("L(31;13,9^9)")
        cand = dim_lower_bound_step(L)
        assert cand is not None and cand.degree == 30

    def test_inapplicable_when_vdim_too_low(self):
        assert dim_lower_bound_step(parse_system("L(13;5,4^9)")) is None
