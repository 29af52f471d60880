"""Staircase diagrams of monomials and the m-reduction algorithm.

A diagram is a list of layer sizes (c1,...,cn) with cj <= j; the j-th
layer is the set of monomials of total degree j-1 with y-exponent below
cj.  Trailing zero layers hold no monomial and are trimmed when a
diagram is built, so two diagrams with the same monomials are equal.
Reduction removes exactly C(m+1,2) cells from the last m layers and is
sound for non-specialty: if the reduced space is non-special, so is the
original one.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import index


class InvalidLayerError(ValueError):
    """A layer size exceeds its index."""


@dataclass(frozen=True)
class Diagram:
    """Ordered layer sizes, with trailing zero layers trimmed on
    construction: every Diagram is canonical, and == compares the
    monomial sets.  Layer sizes are coerced with ``operator.index``:
    integers, numpy ones included, pass and anything else is a TypeError."""

    layers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        layers = tuple(map(index, self.layers))
        n = len(layers)
        while n and layers[n - 1] == 0:
            n -= 1
        layers = layers[:n]
        object.__setattr__(self, "layers", layers)
        for j, c in enumerate(layers, start=1):
            if c < 0 or c > j:
                raise InvalidLayerError(f"layer {j} has size {c}, allowed 0..{j}")

    @property
    def cells(self) -> int:
        return sum(self.layers)

    @property
    def nlayers(self) -> int:
        return len(self.layers)

    @property
    def down_closed(self) -> bool:
        """Whether dividing a monomial of D by x or by y stays in D.

        Layer j holds x^(j-1-b) y^b for b < c_j.  Dividing by x or y lands
        in layer j-1 at b or b-1, so D is down-closed exactly when c_1 = 1
        and min(c_j, j-1) <= c_(j-1) for j >= 2; the empty diagram is not.
        """
        c = self.layers
        return c[:1] == (1,) and all(min(c[i], i) <= c[i - 1] for i in range(1, len(c)))

    def __str__(self) -> str:
        return format_diagram(self)


def triangle(a: int) -> Diagram:
    """The full triangle (1, 2, ..., a): all monomials of degree < a."""
    return Diagram(tuple(range(1, a + 1)))


def bar(a: int, *rest: int) -> Diagram:
    """The diagram (1, 2, ..., a, rest...)."""
    return Diagram(tuple(range(1, a + 1)) + rest)


def format_diagram(D: Diagram) -> str:
    """Render using the ``~a`` shorthand for a leading staircase."""
    layers = D.layers
    a = 0
    while a < len(layers) and layers[a] == a + 1:
        a += 1
    rest = layers[a:]
    parts: list[str] = []
    if a > 0:
        parts.append(f"~{a}")
    i = 0
    while i < len(rest):
        j = i
        while j < len(rest) and rest[j] == rest[i]:
            j += 1
        n = j - i
        parts.append(f"{rest[i]}^{n}" if n > 1 else f"{rest[i]}")
        i = j
    return f"({','.join(parts)})"


def vdim_space(D: Diagram, mults) -> int:
    """Virtual dimension of V(D; mults): cell count minus conditions."""
    if any(m < 0 for m in mults):
        raise ValueError("vdim_space needs non-negative multiplicities")
    return D.cells - sum(comb(m + 1, 2) for m in mults)


def p_of(D: Diagram, m: int) -> int:
    """Number of multiplicity-m points the diagram can virtually absorb."""
    if m < 1:
        raise ValueError("p_of needs m >= 1")
    return D.cells // comb(m + 1, 2)


def reduce_m(D: Diagram, m: int) -> tuple[Diagram, tuple[int, ...]] | None:
    """One m-reduction of the last m layers, or None if irreducible.

    A diagram with fewer than m layers is irreducible.  Otherwise, going
    down from j = m to 1 over the last m layers (a1,...,am):
    vj = aj when aj < m and max Vj >= aj, else vj = max Vj, with
    Vm = {1,...,m} and V(j-1) = Vj minus {vj}.  The reduction exists iff
    every vj can actually be removed from its Vj, and then removes
    exactly C(m+1,2) cells.
    """
    if m < 1:
        raise ValueError("reduce_m needs m >= 1")
    if D.nlayers < m:
        return None
    tail = list(D.layers[-m:])
    avail = set(range(1, m + 1))
    v = [0] * m
    for j in range(m, 0, -1):
        aj = tail[j - 1]
        top = max(avail)
        vj = aj if (aj < m and top >= aj) else top
        if vj not in avail:
            return None
        v[j - 1] = vj
        avail.discard(vj)
    new_tail = [tail[i] - v[i] for i in range(m)]
    assert all(x >= 0 for x in new_tail)
    reduced = Diagram(D.layers[:-m] + tuple(new_tail))
    assert reduced.cells == D.cells - comb(m + 1, 2)
    return reduced, tuple(v)


@dataclass(frozen=True)
class ReductionStep:
    m: int
    v: tuple[int, ...]
    result: Diagram


@dataclass(frozen=True)
class ReductionTrace:
    """A maximal run of reductions with the unconsumed multiplicities."""

    initial: Diagram
    steps: tuple[ReductionStep, ...] = ()
    residual_mults: tuple[int, ...] = ()

    @property
    def final(self) -> Diagram:
        return self.steps[-1].result if self.steps else self.initial

    @property
    def consumed_all(self) -> bool:
        return not self.residual_mults


def reduce_chain(D: Diagram, mults) -> ReductionTrace:
    """Apply reduce_m for each multiplicity in order, stopping when stuck.

    Callers put the distinguished multiplicity first.  Zero
    multiplicities impose no condition and are consumed for free.
    Irreducibility is a normal outcome: the remaining multiplicities are
    reported as residual.
    """
    seq = list(mults)
    if any(m < 0 for m in seq):
        raise ValueError("reduce_chain needs non-negative multiplicities")
    cur = D
    steps: list[ReductionStep] = []
    for i, m in enumerate(seq):
        if m == 0:
            continue
        res = reduce_m(cur, m)
        if res is None:
            return ReductionTrace(D, tuple(steps), tuple(seq[i:]))
        cur, v = res
        steps.append(ReductionStep(m, v, cur))
    return ReductionTrace(D, tuple(steps), ())


def subset(D: Diagram, D2: Diagram) -> bool:
    """Layerwise comparison D <= D2 (missing layers count as zero)."""
    a, b = D.layers, D2.layers
    return len(a) <= len(b) and all(x <= y for x, y in zip(a, b))


def try_empty_by_enlarge(D: Diagram, mults) -> ReductionTrace | None:
    """Search minimal containing triangles certifying V(D; mults) = 0.

    If D fits in a triangle (~t) whose reduction chain with the given
    multiplicities consumes every condition and empties the diagram,
    then dim V((~t); mults) = 0 and by subset monotonicity V(D; mults)
    is the zero space.  Returns that chain's trace, whose ``initial`` is
    the triangle, or None.
    """
    mults = [m for m in mults if m > 0]
    conditions = sum(comb(m + 1, 2) for m in mults)
    if D.cells > conditions:
        return None
    # The final diagram is empty with all conditions consumed only when
    # the triangle has exactly `conditions` cells.
    t = D.nlayers
    while comb(t + 1, 2) < conditions:
        t += 1
    if comb(t + 1, 2) != conditions:
        return None
    tri = triangle(t)
    if not subset(D, tri):
        return None
    trace = reduce_chain(tri, mults)
    if trace.consumed_all and trace.final.cells == 0:
        return trace
    return None
