from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import fatpoints
from fatpoints import initial_cases
from fatpoints.diagrams import reduce_chain
from fatpoints.fplinalg import PrimeFieldConfig
from fatpoints.initial_cases import (
    RESULTS_TABLE,
    FamilySpec,
    count_family,
    count_surviving,
    max_p_plus_1,
    run_initial_cases,
    tail_diagram,
    tails,
)

# (m, a, k, count_family, count_surviving) for every RESULTS_TABLE row
TABLE_COUNTS = [
    (7, 18, 0, 190051, 67709),
    (7, 17, 1, 100947, 13114),
    (7, 16, 2, 74613, 9467),
    (7, 15, 3, 54264, 6768),
    (7, 14, 4, 38760, 4792),
    (7, 13, 5, 27132, 3361),
    (7, 12, 11, 18564, 2335),
    (7, 11, 13, 12376, 1612),
    (7, 10, 24, 8008, 1090),
    (8, 21, 0, 1683218, 450394),
    (8, 20, 1, 888030, 63999),
    (8, 19, 2, 657800, 49656),
    (8, 18, 3, 480700, 35313),
    (8, 17, 5, 346104, 24898),
    (8, 16, 5, 245157, 17407),
    (8, 15, 6, 170544, 12070),
    (8, 14, 7, 116280, 8304),
    (8, 13, 13, 77520, 5666),
    (8, 12, 19, 50388, 3853),
    (8, 11, 41, 31824, 2562),
    (9, 24, 0, 15033173, 2896798),
    (9, 23, 1, 7888725, 315393),
    (9, 22, 2, 5852925, 239295),
    (9, 21, 3, 4292145, 184416),
    (9, 20, 4, 3108105, 129537),
    (9, 19, 5, 2220075, 90296),
    (9, 18, 6, 1562275, 62474),
    (9, 17, 7, 1081575, 42913),
    (9, 16, 8, 735471, 29272),
    (9, 15, 14, 490314, 19840),
    (9, 14, 17, 319770, 13349),
    (9, 13, 29, 203490, 8974),
    (9, 12, 62, 125970, 5890),
    (10, 26, 0, 102875128, 14911515),
    (10, 25, 1, 52451256, 1169260),
    (10, 24, 2, 38567100, 880215),
    (10, 23, 3, 28048800, 674580),
    (10, 22, 4, 20160075, 468945),
    (10, 21, 5, 14307150, 323770),
    (10, 20, 6, 10015005, 222055),
    (10, 19, 7, 6906900, 151320),
    (10, 18, 13, 4686825, 102487),
    (10, 17, 15, 3124550, 69006),
    (10, 16, 17, 2042975, 46225),
    (10, 15, 26, 1307504, 30760),
    (10, 14, 41, 817190, 20495),
    (10, 13, 79, 497420, 13314),
]


class TestFamilySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(0, 5, 1)
        with pytest.raises(ValueError):
            FamilySpec(3, 2, 1)  # a < m
        with pytest.raises(ValueError):
            FamilySpec(3, 5, 0)  # k = 0 needs a >= 2m

    def test_accepts_table_rows(self):
        for m, a, k, _ in RESULTS_TABLE:
            FamilySpec(m, a, k)


def reference_enumeration(spec: FamilySpec) -> tuple[int, list[tuple[int, ...]]]:
    """Brute force over every value vector: the family's size under its
    successor rule, and the tails of it that pass the throwout inequality
    on each consecutive pair of tail layers (the pair against the source
    layer is left out, as it always passes)."""
    m, a, k = spec.m, spec.a, spec.k
    n = m - 1

    def source(pos):
        return a if k > 0 else a + pos

    def step_ok(pos, x, y):
        # k > 0: non-increasing; k = 0: a rise by one only on the staircase
        return y <= x or (k == 0 and y == x + 1 and x == source(pos))

    def throwout_ok(pos, x, y):
        sx, sy = source(pos), source(pos + 1)
        return y <= 0 or x + (x - y + sy - sx) * m >= sx

    family = [
        tail for tail in product(range(source(n) + 1), repeat=n)
        if all(step_ok(pos, x, y)
               for pos, (x, y) in enumerate(zip((a,) + tail, tail)))
    ]
    kept = [
        tail for tail in family
        if all(throwout_ok(pos, x, y)
               for pos, (x, y) in enumerate(zip(tail, tail[1:]), start=1))
    ]
    return len(family), kept


class TestEnumeration:
    def test_tiny_family(self):
        spec = FamilySpec(2, 2, 1)
        got = sorted(tails(spec))
        assert got == [(0,), (1,), (2,)]
        assert count_family(spec) == 3

    def test_dp_matches_explicit_enumeration(self):
        for spec in [FamilySpec(3, 4, 2), FamilySpec(4, 8, 0),
                     FamilySpec(4, 5, 1), FamilySpec(5, 10, 0)]:
            size, kept = reference_enumeration(spec)
            assert list(tails(spec)) == kept
            assert count_surviving(spec) == len(kept)
            assert count_family(spec) == size

    def test_lexicographic_order(self):
        listed = list(tails(FamilySpec(3, 4, 1)))
        assert listed == sorted(listed)

    def test_layers_are_valid_diagrams(self):
        spec = FamilySpec(4, 8, 0)
        for D in (tail_diagram(spec, t) for t in tails(spec)):
            assert D.layers[-1] > 0

    def test_known_counts(self):
        spec = FamilySpec(6, 16, 0)
        assert count_family(spec) == 27896
        assert count_surviving(spec) == 12799

    def test_lists_only_surviving_tails(self):
        # 27,132 tails in the family, 3,361 of them pass the throwout
        assert len(list(tails(FamilySpec(7, 13, 5)))) == 3361
        for m, a, k, _, surviving in TABLE_COUNTS:
            if m == 7:
                assert sum(1 for _ in tails(FamilySpec(m, a, k))) == surviving

    def test_table_counts_pinned(self):
        got = [(m, a, k, count_family(FamilySpec(m, a, k)),
                count_surviving(FamilySpec(m, a, k)))
               for m, a, k, _ in RESULTS_TABLE]
        assert got == TABLE_COUNTS


class TestThrowout:
    def test_kept_tails_satisfy_every_pair(self):
        spec = FamilySpec(4, 8, 0)
        from fatpoints.initial_cases import _star_ok

        listed = list(tails(spec))
        assert len(listed) < count_family(spec)  # the inequality cuts here
        for tail in listed:
            layers = (spec.a,) + tail
            assert all(_star_ok(spec, pos, layers[pos], layers[pos + 1])
                       for pos in range(len(tail)))

    def test_non_rising_pairs_kept_when_k_positive(self):
        # k > 0 tails never rise; the inequality cuts some of them, but
        # never all
        spec = FamilySpec(4, 5, 2)
        assert 0 < len(list(tails(spec))) < count_family(spec)


class TestResultsTable:
    def test_max_p_matches_table(self):
        for m, a, k, expected in RESULTS_TABLE:
            assert max_p_plus_1(FamilySpec(m, a, k)) == expected

    def test_spot_rows_present(self):
        assert (8, 17, 5, 10) in RESULTS_TABLE
        assert (8, 16, 5, 10) in RESULTS_TABLE
        assert len(RESULTS_TABLE) == 47


class TestRun:
    def test_enumeration_only_report(self):
        report = run_initial_cases(FamilySpec(6, 16, 0), s=2, jobs=1,
                                   cfg=PrimeFieldConfig(),
                                   enumeration_only=True)
        assert report.result == "OK"
        assert report.total_diagrams == 27896
        assert report.total_diagrams - report.filtered_out == 12799

    def test_small_m_family_reports_lex_min_counterexample(self):
        # families this small contain genuinely special members, so the
        # run must fail and must name the lexicographically smallest one
        report = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=1,
                                   cfg=PrimeFieldConfig())
        assert report.result == "NOT_OK"
        assert report.counterexample == "(~10,10,8)"

    def test_s_zero_matches_s_two(self):
        a = run_initial_cases(FamilySpec(5, 10, 1), s=0, jobs=1,
                              cfg=PrimeFieldConfig())
        b = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=1,
                              cfg=PrimeFieldConfig())
        assert a.result == b.result == "NOT_OK"
        assert a.counterexample == b.counterexample

    def test_levels_start_at_the_most_reductions_a_member_has(self):
        # no member reduces more than max p(D) times, so a larger s runs
        # the same levels; one level per unit of s would not finish here
        spec = FamilySpec(5, 10, 1)
        top = max_p_plus_1(spec) - 1
        a = run_initial_cases(spec, s=10**9, jobs=1, cfg=PrimeFieldConfig())
        b = run_initial_cases(spec, s=top, jobs=1, cfg=PrimeFieldConfig())
        assert (a.s, b.s) == (10**9, top)
        assert a.levels[0].level == top
        assert a.counterexample == b.counterexample == "(~10,10,8)"
        assert {**a.to_dict(), "s": top} == b.to_dict()

    def test_checked_counts_certificates_run(self, monkeypatch):
        # a group whose first certificate fails never runs its second
        calls = []
        real = initial_cases.certify_nonspecial_rank

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(initial_cases, "certify_nonspecial_rank", counting)
        report = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=1,
                                   cfg=PrimeFieldConfig())
        assert report.result == "NOT_OK"
        assert report.checked == len(calls)
        groups = sum(lv.distinct_reduced for lv in report.levels)
        assert report.checked < 2 * groups

    def test_listing_against_count_raises(self, monkeypatch):
        spec = FamilySpec(5, 10, 1)
        n = count_surviving(spec)
        monkeypatch.setattr(initial_cases, "count_surviving", lambda spec: n + 1)
        with pytest.raises(RuntimeError, match=(
                f"tails lists {n} diagrams, count_surviving counts {n + 1}")):
            run_initial_cases(spec)

    def test_listing_against_count_raises_without_asserts(self):
        script = (
            "from fatpoints import initial_cases as ic\n"
            "real = ic.count_surviving\n"
            "ic.count_surviving = lambda spec: real(spec) + 1\n"
            "ic.run_initial_cases(ic.FamilySpec(5, 10, 1))\n"
        )
        src = str(Path(fatpoints.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        n = count_surviving(FamilySpec(5, 10, 1))
        assert proc.returncode == 1
        assert (f"RuntimeError: tails lists {n} diagrams, "
                f"count_surviving counts {n + 1}") in proc.stderr

    @pytest.mark.parametrize("kwargs, message", [
        ({"s": -1}, "s must be >= 0"),
        ({"jobs": 0}, "jobs must be >= 1"),
        ({"jobs": -3}, "jobs must be >= 1"),
    ])
    def test_rejects_bad_s_and_jobs(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_initial_cases(FamilySpec(5, 10, 1), enumeration_only=True, **kwargs)

    @pytest.mark.parametrize("jobs, cpus, pools", [
        (100000, 2, [2]),
        (3, 8, [3]),
        (2, 1, []),
        (1, 8, []),
    ])
    def test_one_pool_of_at_most_the_available_cpus(self, monkeypatch, jobs, cpus, pools):
        # the pool is faked, so no process is started; three levels certify
        # more than one group each, and they all share the one pool
        import multiprocessing

        opened = []

        class FakePool:
            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        monkeypatch.setattr(initial_cases, "_available_cpus", lambda: cpus)
        report = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=jobs,
                                   cfg=PrimeFieldConfig())
        assert opened == pools
        assert [lv.distinct_reduced for lv in report.levels] == [168, 49, 40]
        assert report.counterexample == "(~10,10,8)"

    def test_jobs_byte_identical(self):
        # the whole report is pinned, counterexample (~10,10,8) included
        a = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=1,
                              cfg=PrimeFieldConfig())
        b = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=2,
                              cfg=PrimeFieldConfig())
        assert a.to_json() == b.to_json()
        assert hashlib.sha256(a.to_json().encode()).hexdigest() == (
            "347d0c65b92021a4e966a5dd900d410ade073fcb5ea254b9159538a9ee9d6c54")
