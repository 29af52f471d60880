"""Plain-text grammars for systems and diagrams.

System  := "L(" INT ";" MultList ")"        MultList := Mult ("," Mult)* or empty
Mult    := INT ("^" COUNT)?
Diagram := "(" ("~" INT ",")? Item ("," Item)* ")"   or just "(~a)"
Item    := INT ("^" COUNT)?

"~a" abbreviates the staircase prefix 1,2,...,a.  Whitespace is
ignored.  Negative integers are allowed in systems only.  A system or
diagram has at most MAX_ENTRIES entries; a COUNT or "~a" that would
exceed it is rejected before anything is allocated.

``parse_system`` reads a well-formed system in one regular-expression
pass when it has no whitespace, fewer than MAX_ENTRIES items, integers
and counts of at most 640 digits and at most MAX_ENTRIES entries.  Every
other text, well-formed or not, goes to the scanner, which is the only
code that reports a ParseError: both paths give the same system, and
every message and position comes from one place.
"""
from __future__ import annotations

import re

from .diagrams import Diagram, format_diagram
from .systems import LinearSystem, _derived, format_system


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.pos = pos


_WS = re.compile(r"\s*")
_INT = re.compile(r"\s*(-?\d+)")
_COUNT = re.compile(r"\s*(\d+)")
# An item and the comma after it, whitespace anywhere: (space)(INT)^(COUNT)(,).
# Every part is optional, so the match always succeeds, and a part the
# grammar needs but the text lacks is an empty group that marks the error.
_MULT_ITEM = re.compile(r"(\s*)(-?\d+)?(?:\s*\^\s*(\d*))?\s*(,?)")
_LAYER_ITEM = re.compile(r"(\s*)(\d+)?(?:\s*\^\s*(\d*))?\s*(,?)")
MAX_ENTRIES = 10_000  # multiplicities of a system, layers of a diagram
# A system with no whitespace, in one pass: (degree), then (the items).  640
# digits is the lowest int-string digit limit the interpreter accepts, so
# int() cannot fail on a match.
_D = r"\d{1,640}"
_FLAT_ITEM = rf"-?{_D}(?:\^{_D})?"
_FLAT_SYSTEM = re.compile(rf"L\((-?{_D});((?:{_FLAT_ITEM},)*{_FLAT_ITEM})?\)")


def _int(text: str, pos: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-string digit limit
        raise ParseError(text, pos, "integer too long") from None


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.start = 0  # where the last integer began

    def skip_ws(self) -> int:
        self.pos = _WS.match(self.text, self.pos).end()
        return self.pos

    def expect(self, lit: str) -> None:
        if not self.text.startswith(lit, self.skip_ws()):
            raise ParseError(self.text, self.pos, f"expected {lit!r}")
        self.pos += len(lit)

    def peek(self, lit: str) -> bool:
        return self.text.startswith(lit, self.skip_ws())

    def take(self, lit: str) -> bool:
        if self.peek(lit):
            self.pos += len(lit)
            return True
        return False

    def integer(self, pattern: re.Pattern = _INT) -> int:
        m = pattern.match(self.text, self.pos)
        if not m:
            raise ParseError(self.text, self.skip_ws(), "expected an integer")
        self.start, self.pos = m.start(1), m.end()
        return _int(self.text, self.start, m.group(1))

    def done(self) -> None:
        if self.skip_ws() != len(self.text):
            raise ParseError(self.text, self.pos, "unexpected trailing input")


def _check_room(text: str, pos: int, used: int, n: int) -> None:
    """Raise ParseError at pos if `used` + n entries would pass MAX_ENTRIES."""
    if used + n > MAX_ENTRIES:
        raise ParseError(text, pos, f"more than {MAX_ENTRIES} entries")


def _items(sc: _Scanner, layers: bool, out: list[int]) -> None:
    """Read Item ("," Item)* into out, one match per item.  Diagram layers
    are non-negative and layer j holds at most j cells; multiplicities may
    be negative."""
    text, item = sc.text, _LAYER_ITEM if layers else _MULT_ITEM
    while True:
        m = item.match(text, sc.pos)
        _, value, count, comma = m.groups()
        if value is None:
            raise ParseError(text, m.end(1), "expected an integer")
        at = m.start(2)
        v = _int(text, at, value)
        if layers and v > len(out) + 1:
            j = len(out) + 1
            raise ParseError(text, at, f"layer {j} has size {v}, allowed 0..{j}")
        n = 1
        if count is not None:
            at = m.start(3)
            if not count:
                raise ParseError(text, at, "expected an integer")
            n = _int(text, at, count)
        _check_room(text, at, len(out), n)
        out.extend([v] * n)
        sc.pos = m.end()
        if not comma:
            return


def _flat_mults(items: str) -> tuple[int, ...] | None:
    """The entries of a MultList that _FLAT_SYSTEM matched, or None when
    they would pass MAX_ENTRIES (the scanner then reports where)."""
    if "^" not in items:  # one entry an item: the caller's comma count bounds them
        # through a list: a tuple built from an iterator is resized as it
        # fills, which raised peak RSS by 2.5 MB over 60,000 stream calls
        return tuple(list(map(int, items.split(","))))
    mults: list[int] = []
    for item in items.split(","):
        value, hat, count = item.partition("^")
        n = int(count) if hat else 1
        if len(mults) + n > MAX_ENTRIES:
            return None
        mults.extend([int(value)] * n)
    return tuple(mults)


def parse_system(text: str) -> LinearSystem:
    # Fewer commas than MAX_ENTRIES bound the match's work, like the
    # scanner's, and the number of items split off.
    m = _FLAT_SYSTEM.fullmatch(text) if text.count(",") < MAX_ENTRIES else None
    if m is not None:
        degree, items = m.groups()
        flat = _flat_mults(items) if items else ()
        if flat is not None:
            return _derived(int(degree), flat)
    sc = _Scanner(text)
    sc.expect("L(")
    d = sc.integer()
    sc.expect(";")
    mults: list[int] = []
    if not sc.peek(")"):
        _items(sc, False, mults)
    sc.expect(")")
    sc.done()
    return _derived(d, tuple(mults))


def parse_mults(text: str) -> tuple[int, ...]:
    """A bare MultList, such as the multiplicities of a system."""
    sc = _Scanner(text)
    mults: list[int] = []
    if text.strip():
        _items(sc, False, mults)
    sc.done()
    return tuple(mults)


def parse_diagram(text: str) -> Diagram:
    sc = _Scanner(text)
    sc.expect("(")
    layers: list[int] = []
    if sc.take("~"):
        a = sc.integer(_COUNT)
        _check_room(sc.text, sc.start, 0, a)
        layers.extend(range(1, a + 1))
        if not sc.take(","):
            sc.expect(")")
            sc.done()
            return Diagram(layers)
    if not sc.peek(")"):
        _items(sc, True, layers)
    sc.expect(")")
    sc.done()
    return Diagram(layers)


__all__ = [
    "ParseError",
    "parse_system",
    "parse_mults",
    "parse_diagram",
    "format_system",
    "format_diagram",
]
