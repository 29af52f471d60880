from __future__ import annotations

import json
import random
import tracemalloc
from pathlib import Path

import pytest

from fatpoints.diagrams import bar, triangle
from fatpoints.systems import LinearSystem
from fatpoints.textio import (
    MAX_ENTRIES,
    ParseError,
    _flat_mults,
    format_diagram,
    format_system,
    parse_diagram,
    parse_mults,
    parse_system,
)

CORPUS = Path(__file__).parent / "data" / "parse_corpus.jsonl"


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

    def test_flat_and_spaced_texts_agree(self):
        """A text without whitespace takes the one-pass path; the same text
        spaced out goes to the scanner.  Both give the generated system."""
        rng = random.Random(12)

        def gap():
            return rng.choice(["", " ", "\t", "\n "])

        for _ in range(2000):
            d = rng.randint(-20, 60)
            items, mults = [], []
            for _ in range(rng.choice([0, 1, 3, 9, 30])):
                v, n = rng.randint(-3, 12), rng.choice([1, 1, 1, 0, 2, 5])
                if n == 1 and rng.random() < 0.7:
                    items.append(f"{v}")
                else:  # a run, also of length 0 or 1
                    items.append(f"{v}^{n:0{rng.randint(1, 3)}d}")
                mults += [v] * n
            flat = f"L({d};{','.join(items)})"
            spaced = (" L(" + gap() + str(d) + gap() + ";"
                      + ",".join(gap() + x.replace("^", gap() + "^" + gap()) + gap()
                                 for x in items) + ")" + gap())
            want = LinearSystem(d, tuple(mults))
            got = parse_system(flat)
            assert got == want, flat
            assert type(got.degree) is int and all(type(m) is int for m in got.mults)
            assert parse_system(spaced) == want, spaced

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

    @pytest.mark.parametrize("text, pos", [
        ("(2,1)", 1), ("(~3, 5)", 5), ("(1,2,4^3)", 5),
    ])
    def test_oversized_layer_names_its_position(self, text, pos):
        with pytest.raises(ParseError, match="has size") as exc:
            parse_diagram(text)
        assert exc.value.pos == pos

    def test_round_trip(self):
        for D in [triangle(6), bar(6, 6, 6, 5, 5, 2),
                  bar(19, 18, 17, 16, 14, 10, 5)]:
            assert parse_diagram(format_diagram(D)) == D


class TestEntryBound:
    @pytest.mark.parametrize("parse, text, pos", [
        (parse_system, "L(1;1^99999999999)", 6),
        (parse_system, "L(1;2^5000, 1 ^ 5001)", 16),
        (parse_system, "L(1;2^5000,1^5001)", 13),
        (parse_system, "L(1;1^10001)", 6),
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


class TestFlatMults:
    """The one-pass reader of a MultList the flat pattern matched gives
    what the scanner gives, and None exactly where the scanner reports
    more than MAX_ENTRIES entries."""

    def scanned(self, items):
        try:
            return parse_mults(items)
        except ParseError as exc:
            assert "more than 10000 entries" in str(exc)
            return None

    def test_agrees_with_the_scanner(self):
        rng = random.Random(25)
        n_runs = 0
        for _ in range(3000):
            r = rng.choice([1, 2, 3, 9, 10, 14, 30])
            runs = rng.random() < 0.5
            items = []
            for _ in range(r):
                v = rng.choice([-3, -2, -1, 0, 1, 1, 2, 5, 11]) if rng.random() < 0.9 \
                    else rng.randint(12, 40)
                if runs and rng.random() < 0.4:
                    items.append(f"{v}^{rng.choice([0, 1, 2, 5, 12])}")
                else:
                    items.append(str(v))
            text = ",".join(items)
            n_runs += "^" in text
            got = _flat_mults(text)
            assert got == self.scanned(text), text
            assert all(type(m) is int for m in got)
        assert 1000 < n_runs < 2000

    @pytest.mark.parametrize("items", [
        "1^10000", "1^10000,1", "1,1^10000", "1^9999,1", "1^9999,1,1",
        "2^5000,1^5000", "2^5000,1^5001", "1^10001", "3,1^0,2^10000",
    ])
    def test_entry_cap(self, items):
        want = self.scanned(items)
        assert _flat_mults(items) == want
        if want is None:
            with pytest.raises(ParseError, match="more than 10000 entries"):
                parse_system(f"L(1;{items})")
        else:
            assert parse_system(f"L(1;{items})").mults == want

    def test_plain_item_past_a_full_run_is_refused(self):
        with pytest.raises(ParseError, match="more than 10000 entries") as exc:
            parse_system("L(1;1^10000,1)")
        assert exc.value.pos == 12


class TestIntegerLength:
    @pytest.mark.parametrize("parse, text, pos", [
        (parse_system, "L(" + "9" * 5000 + ";1)", 2),
        (parse_system, "L(3; 2^" + "9" * 5000 + ")", 7),
        (parse_system, "L(3;2^" + "9" * 5000 + ")", 6),
        (parse_system, "L(3;1,-" + "9" * 5000 + ")", 6),
        (parse_diagram, "(~" + "9" * 5000 + ")", 2),
        (parse_mults, "1, -" + "9" * 5000, 3),
    ])
    def test_too_long_integer_is_a_parse_error(self, parse, text, pos):
        with pytest.raises(ParseError, match="integer too long") as exc:
            parse(text)
        assert exc.value.pos == pos


class TestParseMults:
    def test_lists(self):
        assert parse_mults("") == ()
        assert parse_mults(" 3, -1 ,2^3") == (3, -1, 2, 2, 2)

    def test_error_position_is_in_the_given_text(self):
        with pytest.raises(ParseError) as exc:
            parse_mults("1,2)")
        assert exc.value.pos == 3


class TestPinnedCorpus:
    """Every line of parse_corpus.jsonl is [parser, text, "ok", value] or
    [parser, text, message, pos], recorded from the scanner that read one
    character at a time.  The corpus puts ASCII and Unicode whitespace
    (and a zero-width space, which is not whitespace) at every gap of
    valid and malformed inputs: "^" with no count, "^-1", trailing and
    doubled commas, "L(;)", "L(1;)x", empty diagram items and oversized
    counts among them."""

    PARSERS = {"system": parse_system, "mults": parse_mults, "diagram": parse_diagram}

    def test_results_messages_and_positions_are_unchanged(self):
        rows = [json.loads(line) for line in CORPUS.read_text().splitlines()]
        assert len(rows) > 1000
        for kind, text, outcome, expected in rows:
            parse = self.PARSERS[kind]
            if outcome == "ok":
                v = parse(text)
                got = (format_system(v) if kind == "system" else
                       format_diagram(v) if kind == "diagram" else list(v))
                assert got == expected, (kind, text)
                continue
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert (str(exc.value), exc.value.pos) == \
                (f"{outcome} at position {expected} in {text!r}", expected), (kind, text)

    def test_systems_skip_the_constructor_coercion(self, monkeypatch):
        # both parse paths read Python ints, so coercing them again in the
        # public constructor would be wasted
        calls = []
        post_init = LinearSystem.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(LinearSystem, "__post_init__", counting)
        rows = [json.loads(line) for line in CORPUS.read_text().splitlines()]
        texts = [text for kind, text, outcome, _ in rows
                 if kind == "system" and outcome == "ok"]
        assert len(texts) > 100
        for text in texts:
            L = parse_system(text)
            assert type(L.degree) is int and all(type(m) is int for m in L.mults)
        assert calls == []
