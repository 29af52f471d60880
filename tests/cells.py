"""The cells of a diagram as exponent pairs, for tests that check matrices
and diagrams cell by cell."""
from __future__ import annotations


def monomials(D) -> list[tuple[int, int]]:
    """Cells x^a y^b of D as pairs (a, b), layer by layer."""
    return [(j - b, b) for j, c in enumerate(D.layers) for b in range(c)]
