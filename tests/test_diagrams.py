from __future__ import annotations

from math import comb

import pytest

from cells import monomials
from fatpoints.diagrams import (
    Diagram,
    InvalidLayerError,
    bar,
    format_diagram,
    p_of,
    reduce_chain,
    reduce_m,
    subset,
    triangle,
    try_empty_by_enlarge,
    vdim_space,
)


class TestDiagram:
    def test_layer_validity(self):
        with pytest.raises(InvalidLayerError):
            Diagram((2,))
        with pytest.raises(InvalidLayerError):
            Diagram((1, 3))

    def test_cells_and_canonical(self):
        assert triangle(4).cells == 10
        assert Diagram((1, 2, 0, 0)) == Diagram((1, 2))

    def test_trailing_zero_layers_trimmed_on_construction(self):
        assert Diagram((1, 2, 0, 0)).layers == (1, 2)
        assert Diagram((0, 0)).layers == ()
        assert Diagram((1, 0, 2)).layers == (1, 0, 2)

    def test_monomials(self):
        assert monomials(triangle(2)) == [(0, 0), (1, 0), (0, 1)]
        D = Diagram((1, 2, 2))
        assert monomials(D) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]

    def test_bar(self):
        assert bar(3, 3, 2).layers == (1, 2, 3, 3, 2)

    def test_format_staircase_prefix(self):
        assert format_diagram(triangle(32)) == "(~32)"
        assert format_diagram(bar(19, 18, 17, 16, 14, 10, 5)) == \
            "(~19,18,17,16,14,10,5)"
        assert format_diagram(bar(6, 6, 6, 5, 5, 2)) == "(~6,6^2,5^2,2)"

    def test_vdim_space_and_p(self):
        D = triangle(32)
        assert vdim_space(D, [12] + [9] * 9) == 45
        assert p_of(triangle(6), 6) == 21 // 21
        assert p_of(bar(13, *[13] * 5), 7) == (91 + 65) // 28


class TestReduceM:
    def test_worked_example_first_step(self):
        res = reduce_m(triangle(32), 12)
        assert res is not None
        D, v = res
        assert v == tuple(range(1, 13))
        assert D == bar(19, *[20] * 13)
        assert D.cells == 450

    def test_worked_example_v_vectors(self):
        trace = reduce_chain(triangle(32), (12,) + (9,) * 9)
        assert trace.consumed_all
        vs = [s.v for s in trace.steps]
        assert vs[0] == tuple(range(1, 13))
        assert vs[1] == tuple(range(1, 10))
        assert vs[2] == tuple(range(1, 10))
        assert vs[3] == (1, 3, 5, 7, 9, 8, 6, 4, 2)
        assert vs[4] == (2, 3, 4, 6, 7, 8, 9, 5, 1)
        assert trace.final == bar(6, 6, 6, 5, 5, 2)
        assert trace.consumed_all and trace.final.cells == 45

    def test_removes_exact_cell_count(self):
        D = bar(10, *[10] * 4)
        res = reduce_m(D, 7)
        assert res is not None
        assert res[0].cells == D.cells - comb(8, 2)

    def test_irreducible_returns_none(self):
        assert reduce_m(Diagram((1, 1)), 2) is None

    def test_too_short(self):
        assert reduce_m(triangle(3), 5) is None

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            reduce_m(triangle(3), 0)


class TestReduceChain:
    def test_zero_mults_consumed_free(self):
        trace = reduce_chain(triangle(4), (2, 0, 0))
        assert trace.consumed_all

    def test_residual_reported(self):
        trace = reduce_chain(Diagram((1, 1)), (2, 3))
        assert not trace.consumed_all
        assert trace.residual_mults == (2, 3)
        assert trace.final == Diagram((1, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            reduce_chain(triangle(3), (-1,))


class TestSubsetAndEnlarge:
    def test_subset(self):
        assert subset(Diagram((1, 2, 2)), triangle(3))
        assert not subset(triangle(4), triangle(3))
        assert subset(Diagram((1, 2, 0, 0)), Diagram((1, 2)))

    def test_enlarge_success(self):
        trace = try_empty_by_enlarge(Diagram((1, 2)), (2,))
        assert trace is not None
        assert trace.initial == triangle(2)
        assert trace.consumed_all and trace.final.cells == 0

    def test_enlarge_fails_when_conditions_below_cells(self):
        assert try_empty_by_enlarge(triangle(3), (2,)) is None

    def test_enlarge_fails_without_exact_triangle(self):
        # 7 conditions fit no triangle exactly
        assert try_empty_by_enlarge(Diagram((1, 2)), (3, 1)) is None
