"""Plain-text grammars for systems and diagrams.

System  := "L(" INT ";" MultList ")"        MultList := Mult ("," Mult)*
Mult    := INT ("^" COUNT)?
Diagram := "(" ("~" INT ",")? Item ("," Item)* ")"   or just "(~a)"
Item    := INT ("^" COUNT)?

"~a" abbreviates the staircase prefix 1,2,...,a.  Whitespace is
ignored.  Negative integers are allowed in systems only.  A system or
diagram has at most MAX_ENTRIES entries; a COUNT or "~a" that would
exceed it is rejected before anything is allocated.
"""
from __future__ import annotations

import re

from .diagrams import Diagram, format_diagram
from .systems import LinearSystem, format_system


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.pos = pos


_INT = re.compile(r"-?\d+")
_COUNT = re.compile(r"\d+")
MAX_ENTRIES = 10_000  # multiplicities of a system, layers of a diagram


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.start = 0  # where the last integer began

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, lit: str) -> None:
        self.skip_ws()
        if not self.text.startswith(lit, self.pos):
            raise ParseError(self.text, self.pos, f"expected {lit!r}")
        self.pos += len(lit)

    def peek(self, lit: str) -> bool:
        self.skip_ws()
        return self.text.startswith(lit, self.pos)

    def take(self, lit: str) -> bool:
        if self.peek(lit):
            self.pos += len(lit)
            return True
        return False

    def integer(self, pattern: re.Pattern = _INT) -> int:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            raise ParseError(self.text, self.pos, "expected an integer")
        self.start, self.pos = self.pos, m.end()
        return int(m.group())

    def done(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(self.text, self.pos, "unexpected trailing input")


def _check_room(sc: _Scanner, used: int, n: int) -> None:
    """Raise ParseError at the integer just read if `used` + n entries
    would pass MAX_ENTRIES."""
    if used + n > MAX_ENTRIES:
        raise ParseError(sc.text, sc.start, f"more than {MAX_ENTRIES} entries")


def _items(sc: _Scanner, allow_negative: bool, out: list[int]) -> None:
    while True:
        v = sc.integer(_INT if allow_negative else _COUNT)
        n = sc.integer(_COUNT) if sc.take("^") else 1
        _check_room(sc, len(out), n)
        out.extend([v] * n)
        if not sc.take(","):
            return


def parse_system(text: str) -> LinearSystem:
    sc = _Scanner(text)
    sc.expect("L(")
    d = sc.integer()
    sc.expect(";")
    mults: list[int] = []
    if not sc.peek(")"):
        _items(sc, True, mults)
    sc.expect(")")
    sc.done()
    return LinearSystem(d, tuple(mults))


def parse_diagram(text: str) -> Diagram:
    sc = _Scanner(text)
    sc.expect("(")
    layers: list[int] = []
    if sc.take("~"):
        a = sc.integer(_COUNT)
        _check_room(sc, 0, a)
        layers.extend(range(1, a + 1))
        if not sc.take(","):
            sc.expect(")")
            sc.done()
            return Diagram(tuple(layers)).canonical()
    if not sc.peek(")"):
        _items(sc, False, layers)
    sc.expect(")")
    sc.done()
    return Diagram(tuple(layers)).canonical()


__all__ = [
    "ParseError",
    "parse_system",
    "parse_diagram",
    "format_system",
    "format_diagram",
]
