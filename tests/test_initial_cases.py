from __future__ import annotations

import pytest

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
    throwout_tail,
)


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


class TestEnumeration:
    def test_tiny_family(self):
        spec = FamilySpec(2, 2, 1)
        got = sorted(tails(spec))
        assert got == [(0,), (1,), (2,)]
        assert count_family(spec) == 3

    def test_dp_matches_explicit_enumeration(self):
        for spec in [FamilySpec(3, 4, 2), FamilySpec(4, 8, 0),
                     FamilySpec(4, 5, 1), FamilySpec(5, 10, 0)]:
            listed = list(tails(spec))
            assert len(listed) == count_family(spec)
            survivors = [t for t in listed if throwout_tail(spec, t)]
            assert len(survivors) == count_surviving(spec)

    def test_lexicographic_order(self):
        listed = list(tails(FamilySpec(3, 4, 1)))
        assert listed == sorted(listed)

    def test_layers_are_valid_diagrams(self):
        spec = FamilySpec(4, 8, 0)
        for D in (tail_diagram(spec, t) for t in tails(spec)):
            assert D.canonical() is not None

    def test_known_counts(self):
        spec = FamilySpec(6, 16, 0)
        assert count_family(spec) == 27896
        assert count_surviving(spec) == 12799


class TestThrowout:
    def test_kept_tails_satisfy_every_pair(self):
        spec = FamilySpec(4, 8, 0)
        from fatpoints.initial_cases import _star_ok

        for tail in tails(spec):
            kept = throwout_tail(spec, tail)
            pairs_ok = all(
                _star_ok(spec, pos + 1, tail[pos], tail[pos + 1])
                for pos in range(len(tail) - 1)
            )
            assert kept == pairs_ok

    def test_non_rising_pairs_kept_when_k_positive(self):
        # k > 0 tails are non-increasing and the inequality involves
        # equal source layers, so it can only cut rising configurations
        spec = FamilySpec(4, 5, 2)
        survivors = [t for t in tails(spec) if throwout_tail(spec, t)]
        assert survivors  # never empties the family


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

    def test_jobs_byte_identical(self):
        a = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=1,
                              cfg=PrimeFieldConfig())
        b = run_initial_cases(FamilySpec(5, 10, 1), s=2, jobs=2,
                              cfg=PrimeFieldConfig())
        assert a.to_json() == b.to_json()
