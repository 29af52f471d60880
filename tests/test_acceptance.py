"""Acceptance gate: one pass/fail line per criterion on the terminal."""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fatpoints.diagrams import (
    Diagram,
    bar,
    reduce_chain,
    reduce_m,
    triangle,
)
from fatpoints.engine import EngineConfig, classify, classify_space
from fatpoints.fplinalg import PrimeFieldConfig
from fatpoints.initial_cases import (
    RESULTS_TABLE,
    FamilySpec,
    count_family,
    count_surviving,
    max_p_plus_1,
    run_initial_cases,
)
from fatpoints.ledger import execute_method, load_entries, run_ledger, verify_entry
from fatpoints.systems import (
    EMPTY,
    NON_SPECIAL,
    LinearSystem,
    cremona,
    format_system,
    standard_form,
    vdim,
)
from fatpoints.textio import format_diagram, parse_diagram, parse_system


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_to_terminal(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _say(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(n: int, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _say(f"ACCEPTANCE {n}: FAIL")
        raise
    dt = time.perf_counter() - t0
    if dt > limit_s:
        _say(f"ACCEPTANCE {n}: FAIL (took {dt:.2f}s, limit {limit_s}s)")
        raise AssertionError(f"criterion {n} exceeded {limit_s}s ({dt:.2f}s)")
    _say(f"ACCEPTANCE {n}: PASS ({dt:.2f}s)")


def test_criterion_1_worked_example():
    """Full reduction of the running example, replayed in under 10 ms."""
    with criterion(1, 10.0):
        t0 = time.perf_counter()
        trace = reduce_chain(triangle(32), (12,) + (9,) * 9)
        elapsed = time.perf_counter() - t0
        assert trace.initial.cells == 528
        assert trace.steps[0].result == bar(19, *[20] * 13)
        assert trace.steps[0].result.cells == 450
        assert trace.steps[4].result == bar(19, 18, 17, 16, 14, 10, 5)
        assert trace.steps[4].result.cells == 270
        assert trace.consumed_all
        assert trace.final == bar(6, 6, 6, 5, 5, 2)
        assert trace.final.cells == 45
        assert elapsed < 0.010


def test_criterion_2_rank_certificate():
    """L(13;5,4^9) goes empty by a single 105x105 full-rank check."""
    with criterion(2, 1.0):
        cfg = EngineConfig(stages=("standard_form", "rank"))
        v = classify(parse_system("L(13;5,4^9)"), cfg)
        assert v.kind == EMPTY
        step = v.certificate[-1]
        assert step.op == "rank"
        assert step.params["rows"] == step.params["cols"] == 105
        assert step.params["rank"] == 105
        assert step.params["attempt"] == 1


def test_criterion_3_standard_form_identities():
    """A battery of verified Cremona standard-form identities."""
    identities = [
        ("L(22;9,7^4,6,1)", "L(20;7,6^5,1)"),
        ("L(22;9,7^5,6,1)", "L(20;7^2,6^5,1)"),
        ("L(23;8^4,5^2,1)", "L(22;8,7^3,5^2,1)"),
        ("L(22;8^4,5^2)", "L(20;8,6^3,5^2)"),
        ("L(32;17,12,8^8)", "L(24;9,8,7^7,3)"),
        ("L(24;15,9,8,7^3,3)", "L(10;6,2^3,1^2)"),
        ("L(20;8,7^5,5)", "L(14;5^2,4^5)"),
        ("L(21;8,7^5,6)", "L(19;7,6^6)"),
        ("L(30;13,9^9)", "L(26;9^2,8^8)"),
        ("L(28;16,12,8^6)", "L(4;4)"),
        ("L(34;20,12,10^6)", "L(4;2)"),
        ("L(35;20,15,10^6)", "L(5;5)"),
        ("L(35;16,10^9)", "L(31;12,10,9^8)"),
        ("L(30;12,10,9^8)", "L(29;11,9^8,8)"),
    ]
    memberships = [
        ("L(32;18,13,9^7)", "L(0;2^3,1,-1^3,-2,-4)"),
        ("L(46;37,7^10)", "L(21;12,2^10)"),
    ]
    with criterion(3, 1.0):
        for src, expected in identities:
            res, chain = standard_form(parse_system(src))
            assert res.same_as(parse_system(expected)), (src, str(res))
            assert len({vdim(x) for x in chain}) == 1
        for src, mid in memberships:
            _, chain = standard_form(parse_system(src))
            tgt = parse_system(mid)
            assert any(x.same_as(tgt) for x in chain), (src, mid)


def test_criterion_4_enumeration_counts():
    """The family (m=6, a=16, k=0): 27896 members, 12799 after throwout."""
    with criterion(4, 10.0):
        spec = FamilySpec(6, 16, 0)
        assert count_family(spec) == 27896
        assert count_surviving(spec) == 12799


def test_criterion_5_initial_cases_table():
    """Three family rows certified end to end, every row enumerated."""
    with criterion(5, 3 * 900.0 + 300.0):
        for m, a, k in [(7, 13, 5), (7, 14, 4), (8, 15, 6)]:
            t0 = time.perf_counter()
            report = run_initial_cases(FamilySpec(m, a, k), s=2, jobs=4,
                                       cfg=PrimeFieldConfig())
            assert report.result == "OK", (m, a, k, report.counterexample)
            assert report.max_p_plus_1 == 9
            assert time.perf_counter() - t0 < 900.0
        t0 = time.perf_counter()
        for m, a, k, expected_p in RESULTS_TABLE:
            spec = FamilySpec(m, a, k)
            report = run_initial_cases(spec, s=2, jobs=1,
                                       cfg=PrimeFieldConfig(),
                                       enumeration_only=True)
            assert report.result == "OK"
            assert report.max_p_plus_1 == expected_p == max_p_plus_1(spec)
        assert time.perf_counter() - t0 < 300.0


def test_criterion_6_two_empty_systems():
    """Two emptiness proofs: reduction-with-enlargement and glueing."""
    with criterion(6, 2.0):
        t0 = time.perf_counter()
        v = classify(parse_system("L(32;12,10^9)"))
        assert v.kind == EMPTY
        enlarges = [s for s in v.certificate if s.op == "enlarge"]
        assert enlarges and str(enlarges[0].params["to"]) == "(~10)"
        assert time.perf_counter() - t0 < 1.0

        t0 = time.perf_counter()
        matches = [e for e in load_entries()
                   if e.id == "NEGATIVE_GLUE" and e.concrete
                   and "L(32;13,9^11)" in e.system]
        assert matches
        rep = verify_entry(matches[0], cfg=EngineConfig())
        assert not rep.failures
        assert rep.results and rep.results[0].kind == EMPTY
        assert time.perf_counter() - t0 < 1.0


def test_criterion_7_full_ledger():
    """Every ledger record replays with zero failures over the full grid."""
    with criterion(7, 1800.0):
        report = run_ledger(m_max=20, k_max=40, r_max=16, cfg=EngineConfig())
        assert report.entries == 143
        assert not report.failures, report.failures[:3]
        skipped = {(s["entry"], s["m"]) for s in report.skipped}
        assert ("CREMONA_EVEN_GLUE_CREMONAS", 17) in skipped
        assert ("CREMONA_ODD_GLUE_CREMONAS", 16) in skipped


def _random_system(rng) -> LinearSystem:
    d = int(rng.integers(-5, 41))
    n = int(rng.integers(3, 13))
    mults = tuple(int(x) for x in rng.integers(-4, 13, size=n))
    return LinearSystem(d, mults)


def _random_diagram(rng, max_layers=10) -> Diagram:
    n = int(rng.integers(1, max_layers + 1))
    layers = [1]
    for j in range(2, n + 1):
        layers.append(int(rng.integers(1, j + 1)))
    return Diagram(tuple(layers))


def test_criterion_8_property_suites():
    """Randomized cross-checks of the core invariants."""
    with criterion(8, 120.0):
        rng = np.random.default_rng(0)
        # Cremona is an involution and preserves the virtual dimension
        for _ in range(10_000):
            x = _random_system(rng)
            y = cremona(x)
            assert vdim(y) == vdim(x)
            assert cremona(y).same_as(x)
        # one reduction step removes exactly C(m+1,2) cells via a valid
        # step vector
        checked = 0
        while checked < 10_000:
            D = _random_diagram(rng, max_layers=12)
            m = int(rng.integers(1, 7))
            try:
                res = reduce_m(D, m)
            except Exception:
                continue
            if res is None:
                continue
            D2, v = res
            assert len(v) == m
            assert sum(v) == m * (m + 1) // 2
            assert D2.cells == D.cells - m * (m + 1) // 2
            checked += 1
        # reduction and the rank certificate agree whenever both conclude
        agreements = 0
        while agreements < 200:
            D = _random_diagram(rng, max_layers=8)
            if D.cells > 60:
                continue
            n = int(rng.integers(1, 5))
            mults = tuple(int(x) for x in rng.integers(1, 5, size=n))
            red = classify_space(D, mults, EngineConfig(stages=("reduction",)))
            rnk = classify_space(D, mults, EngineConfig(stages=("rank",)))
            if red.kind == NON_SPECIAL and rnk.kind == NON_SPECIAL:
                assert red.dim == rnk.dim, (str(D), mults)
                agreements += 1
        # glue steps executed by the ledger method honour the dimension
        # bookkeeping identity
        L = parse_system("L(29;12,7^9)")
        steps, _ = execute_method(L, EngineConfig())
        glues = [s for s in steps if s.op == "glue"]
        assert glues
        for g in glues:
            assert vdim(g.after) - vdim(g.before) == -(vdim(g.params["small"]) + 1)
        # the plain-text grammars round-trip
        for _ in range(2_000):
            x = _random_system(rng).canonical()
            assert parse_system(format_system(x)) == x
            D = _random_diagram(rng)
            assert parse_diagram(format_diagram(D)) == D


def test_criterion_9_parallel_determinism():
    """Reports are byte-identical regardless of the worker count."""
    with criterion(9, 120.0):
        spec = FamilySpec(7, 14, 4)
        a = run_initial_cases(spec, s=2, jobs=1, cfg=PrimeFieldConfig())
        b = run_initial_cases(spec, s=2, jobs=2, cfg=PrimeFieldConfig())
        assert a.result == b.result == "OK"
        assert a.to_json() == b.to_json()
