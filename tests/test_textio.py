from __future__ import annotations

import tracemalloc

import pytest

from fatpoints.diagrams import bar, triangle
from fatpoints.systems import LinearSystem
from fatpoints.textio import (
    MAX_ENTRIES,
    ParseError,
    format_diagram,
    format_system,
    parse_diagram,
    parse_system,
)


class TestParseSystem:
    def test_basic(self):
        assert parse_system("L(32;12,8^12)") == LinearSystem(32, (12,) + (8,) * 12)

    def test_negatives_and_runs(self):
        L = parse_system("L(0;2^3,1,-1^5,-2,-4)")
        assert L.mults == (2, 2, 2, 1, -1, -1, -1, -1, -1, -2, -4)

    def test_empty_mult_list(self):
        assert parse_system("L(5;)") == LinearSystem(5, ())

    def test_whitespace(self):
        assert parse_system(" L( 13 ; 5 , 4^9 ) ") == \
            parse_system("L(13;5,4^9)")

    def test_errors(self):
        for bad in ["L(32;12,", "32;12", "L(32)", "L(32;12)x", "L(32;^3)"]:
            with pytest.raises(ParseError):
                parse_system(bad)

    def test_round_trip(self):
        for text in ["L(32;12,8^12)", "L(4;4)", "L(0;2^3,1,-1^3,-2,-4)",
                     "L(-2;3^2)"]:
            L = parse_system(text)
            assert parse_system(format_system(L)) == L.canonical()


class TestParseDiagram:
    def test_staircase_only(self):
        assert parse_diagram("(~32)") == triangle(32)

    def test_staircase_with_tail(self):
        assert parse_diagram("(~19,18,17,16,14,10,5)") == \
            bar(19, 18, 17, 16, 14, 10, 5)
        assert parse_diagram("(~19,20^13)") == bar(19, *[20] * 13)

    def test_explicit_layers(self):
        assert parse_diagram("(1,2,2)").layers == (1, 2, 2)

    def test_errors(self):
        for bad in ["(2,1)", "(~19,", "(1,-2)", "1,2)"]:
            with pytest.raises((ParseError, ValueError)):
                parse_diagram(bad)

    def test_round_trip(self):
        for D in [triangle(6), bar(6, 6, 6, 5, 5, 2),
                  bar(19, 18, 17, 16, 14, 10, 5)]:
            assert parse_diagram(format_diagram(D)) == D.canonical()


class TestEntryBound:
    @pytest.mark.parametrize("parse, text, pos", [
        (parse_system, "L(1;1^99999999999)", 6),
        (parse_system, "L(1;2^5000, 1 ^ 5001)", 16),
        (parse_diagram, "(~99999999999)", 2),
        (parse_diagram, "(~5000,3^5001)", 9),
    ])
    def test_rejected_before_allocating(self, parse, text, pos):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="more than 10000 entries") as exc:
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.pos == pos
        assert peak < 1_000_000

    def test_bound_itself_parses(self):
        assert MAX_ENTRIES == 10_000
        assert parse_system("L(1;1^10000)").mults == (1,) * 10_000
        assert parse_diagram("(~10000)") == triangle(10_000)
