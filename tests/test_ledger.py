from __future__ import annotations

from collections import defaultdict

from fatpoints.engine import EngineConfig
from fatpoints.ledger import (
    ADHOC_SCRIPTS,
    _m_values,
    dim_lower_bound_step,
    execute_method,
    iter_instances,
    load_entries,
    run_ledger,
    verify_entry,
)
from fatpoints.systems import vdim
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


class TestDegreeDrop:
    def test_applicable(self):
        L = parse_system("L(31;13,9^9)")
        cand = dim_lower_bound_step(L)
        assert cand is not None and cand.degree == 30

    def test_inapplicable_when_vdim_too_low(self):
        assert dim_lower_bound_step(parse_system("L(13;5,4^9)")) is None
