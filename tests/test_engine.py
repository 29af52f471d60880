from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import pytest

from fatpoints import fplinalg, systems
from fatpoints.diagrams import triangle
from fatpoints.engine import (
    ALL_STAGES,
    DEFAULT_CONFIG,
    EngineConfig,
    classify,
    classify_space,
)
from fatpoints.fplinalg import PrimeFieldConfig
from fatpoints.systems import (
    EMPTY,
    INCONCLUSIVE,
    MINUS_ONE_SPECIAL,
    NON_SPECIAL,
    LinearSystem,
    Verdict,
    edim,
    format_system,
    vdim,
)
from fatpoints.textio import parse_system


class TestClassify:
    def test_minus_one_special(self):
        v = classify(parse_system("L(4;2^5)"))
        assert v.kind == MINUS_ONE_SPECIAL and v.dim == 0

    def test_minus_one_special_needs_standard_form_chain(self):
        # without the Cremona stage the negative rules never trigger
        cfg = EngineConfig(stages=("rank",))
        v = classify(parse_system("L(4;2^5)"), cfg)
        assert v.kind == INCONCLUSIVE

    def test_empty_by_rank_after_standard_form(self):
        cfg = EngineConfig(stages=("standard_form", "rank"))
        v = classify(parse_system("L(13;5,4^9)"), cfg)
        assert v.kind == EMPTY
        step = v.certificate[-1]
        assert step.op == "rank"
        assert step.params["rows"] == step.params["cols"] == 105
        assert step.params["rank"] == 105

    def test_nonspecial_by_axioms(self):
        L = parse_system("L(28;12,8^9)")
        v = classify(L)
        assert v.kind == NON_SPECIAL and v.dim == edim(L)

    def test_empty_by_reduction_and_enlarge(self):
        v = classify(parse_system("L(32;12,10^9)"))
        assert v.kind == EMPTY
        ops = [s.op for s in v.certificate]
        assert "enlarge" in ops

    def test_empty_by_rank_of_an_emptied_diagram(self):
        # the reduction empties triangle(2) and leaves two simple points;
        # 2 is no triangular number, so the rank stage gets a matrix with
        # two rows and no columns
        cfg = EngineConfig(stages=("reduction", "rank"))
        v = classify(parse_system("L(1;2,1,1)"), cfg)
        assert v.kind == EMPTY
        step = v.certificate[-1]
        assert step.op == "rank"
        assert (step.params["rows"], step.params["cols"]) == (2, 0)
        assert step.params["rank"] == 0

    @pytest.mark.parametrize("text, rows", [
        ("L(10;5000)", 12_502_500),
        ("L(10;5000,5000)", 25_005_000),
    ])
    def test_rank_of_a_point_heavier_than_the_degree(self, text, rows):
        # the whole matrix would be rows x 66 (6.6 GB for one point); with
        # the heavy point at the origin, no row or no column is left
        cfg = EngineConfig(stages=("rank",))
        classify(parse_system("L(4;2^5)"), cfg)  # numpy loads outside the trace
        tracemalloc.start()
        try:
            v = classify(parse_system(text), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.kind == EMPTY
        step = v.certificate[-1]
        assert step.op == "rank"
        assert (step.params["rows"], step.params["cols"], step.params["rank"]) == (rows, 66, 66)
        assert peak < 1_000_000

    def test_negative_degree(self):
        v = classify(LinearSystem(-2, (3,)))
        assert v.kind == EMPTY

    def test_recursion_depth_guard(self):
        # one strip-negative round per unit of degree: a huge degree ends
        # in Inconclusive, not in RecursionError
        v = classify(parse_system("L(1200;1201,-1)"))
        assert v.kind == INCONCLUSIVE and v.reason == "recursion depth exceeded"

    @pytest.mark.parametrize("text", ["L(10;11,-1,0)", "L(10;0,-2,11,-1)",
                                      "L(13;14,-1,-2)"])
    def test_point_above_degree_with_negative_points_is_empty(self, text):
        v = classify(parse_system(text))
        assert v.kind == EMPTY and v.dim == -1

    @pytest.mark.parametrize("text", ["L(3;1^10,-2)", "L(3;1^10,-1)", "L(3;1^10)"])
    def test_axioms_used_come_from_the_certificate(self, text):
        # the -2 entry strips to the same Empty system as the other two
        v = classify(parse_system(text))
        assert v.kind == EMPTY and v.axioms_used == ("MULT_LE_11",)

    @pytest.mark.parametrize("stages", [
        s for n in range(1, len(ALL_STAGES) + 1)
        for s in combinations(ALL_STAGES, n)], ids=",".join)
    def test_every_stage_subset_returns_a_verdict(self, stages):
        cfg = EngineConfig(stages=stages)
        for text in ["L(5;-2,3)", "L(-1;-2)", "L(-2;3,-1)", "L(4;4,-3,4,-3,1)",
                     "L(6;1,3,2)", "L(8;2,3,-3,1,-1,0,-3,1,-2)"]:
            assert isinstance(classify(parse_system(text), cfg), Verdict)

    def test_unknown_stage_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown stages: rnak"):
            EngineConfig(stages=("standard_form", "rnak"))

    @pytest.mark.parametrize("max_cols", [0, -1])
    def test_column_cap_below_one_is_rejected_at_construction(self, max_cols):
        with pytest.raises(ValueError, match="max_cols must be >= 1"):
            EngineConfig(max_cols=max_cols)

    def test_column_cap(self):
        cfg = EngineConfig(stages=("rank",), max_cols=10)
        v = classify(parse_system("L(9;1)"), cfg)
        assert v.kind == INCONCLUSIVE and "cap" in v.reason


    def test_oversized_rank_matrix_is_inconclusive(self, monkeypatch):
        # with the heaviest point at the origin, 1,000 points of
        # multiplicity 12 on degree 61 leave a matrix of up to
        # 77,922 x 1,875 (1.2 GB of int64); the stage ends before building it
        def trap(*args, **kwargs):
            raise AssertionError("build_matrix was called")

        monkeypatch.setattr(fplinalg, "build_matrix", trap)
        v = classify(parse_system("L(61;12^1000)"), EngineConfig(stages=("rank",)))
        assert v.kind == INCONCLUSIVE
        assert v.reason == "matrix would be 77922x1875 (cap 2000^2 entries)"

    def test_entry_cap_applies_to_each_candidate(self):
        # the whole matrix of L(61;12^60) is over the cap; the reduced
        # matrix, 2,808 rows by 81 columns, is tried first and settles it
        v = classify(parse_system("L(61;12^60)"))
        assert v.kind == EMPTY
        step = v.certificate[-1]
        assert (step.op, step.params["rows"], step.params["cols"]) == ("rank", 2808, 81)


# The 16 systems of the m = 10 box (L(d; m0, 10^r), r, m0 <= 30,
# vdim <= 40) whose triangle has more than 2,000 cells
OVER_CAP_SETTLED = ["L(62;29,10^28)", "L(62;30,10^29)", "L(62;25,10^30)",
                    "L(62;28,10^30)", "L(62;29,10^30)", "L(62;30,10^30)",
                    "L(63;30,10^30)"]
OVER_CAP_INCONCLUSIVE = [
    ("L(62;26,10^30)", 2016), ("L(62;27,10^30)", 2016), ("L(62;28,10^29)", 2016),
    ("L(63;28,10^30)", 2080), ("L(62;29,10^29)", 2016), ("L(63;29,10^30)", 2080),
    ("L(62;30,10^28)", 2016), ("L(63;30,10^29)", 2080), ("L(64;30,10^30)", 2145),
]


class TestRankTargets:
    """Each rank target, the chain end and then the whole triangle, is
    checked against the caps before its matrix is built."""

    @pytest.mark.parametrize("text", OVER_CAP_SETTLED)
    def test_chain_end_settles_a_system_whose_triangle_is_over_the_cap(self, text):
        L = parse_system(text)
        v = classify(L)
        assert v.conclusive and v.dim == edim(L)
        reduction, rank = v.certificate[-2:]
        assert (reduction.op, rank.op) == ("reduce_chain", "rank")
        assert reduction.after.cells <= DEFAULT_CONFIG.max_cols

    @pytest.mark.parametrize("text, cells", OVER_CAP_INCONCLUSIVE)
    def test_triangle_over_the_cap_after_a_special_chain_end(self, text, cells):
        v = classify(parse_system(text))
        assert v.kind == INCONCLUSIVE
        assert v.reason == f"matrix would have {cells} columns (cap 2000)"

    @staticmethod
    def recorded_builds(monkeypatch):
        built = []
        real = fplinalg.build_matrix

        def recording(*args, **kwargs):
            A = real(*args, **kwargs)
            built.append(A.shape)
            return A

        monkeypatch.setattr(fplinalg, "build_matrix", recording)
        return built

    # under ("reduction", "rank") the chain on triangle(5) ends at a
    # 3-cell diagram for L(4;2^5) and L(4;2^6)
    def test_chain_end_within_a_small_cap_settles(self, monkeypatch):
        built = self.recorded_builds(monkeypatch)
        cfg = EngineConfig(stages=("reduction", "rank"), max_cols=3)
        v = classify(parse_system("L(4;2^6)"), cfg)
        assert v.kind == EMPTY
        assert [s.op for s in v.certificate] == ["reduce_chain", "rank"]
        assert built and all(cols <= 3 for _, cols in built)

    def test_special_chain_end_then_triangle_over_a_small_cap(self, monkeypatch):
        # L(4;2^5) is -1-special, so no rank settles its chain end
        built = self.recorded_builds(monkeypatch)
        cfg = EngineConfig(stages=("reduction", "rank"), max_cols=4)
        v = classify(parse_system("L(4;2^5)"), cfg)
        assert v.kind == INCONCLUSIVE
        assert v.reason == "matrix would have 15 columns (cap 4)"
        assert built and all(cols <= 4 for _, cols in built)

    def test_chain_end_over_a_small_cap(self, monkeypatch):
        built = self.recorded_builds(monkeypatch)
        cfg = EngineConfig(stages=("reduction", "rank"), max_cols=2)
        v = classify(parse_system("L(4;2^5)"), cfg)
        assert v.kind == INCONCLUSIVE
        assert v.reason == "matrix would have 3 columns (cap 2)"
        assert built == []


class TestClassifySpace:
    def test_worked_example_dimension(self):
        v = classify_space(triangle(32), [12] + [9] * 9)
        assert v.kind == NON_SPECIAL and v.dim == 45

    def test_rejects_negative_mults(self):
        with pytest.raises(ValueError):
            classify_space(triangle(3), [-1])

    def test_rank_fallback(self):
        cfg = EngineConfig(stages=("rank",))
        v = classify_space(triangle(5), [2] * 4 + [1] * 3, cfg)
        assert v.kind == NON_SPECIAL and v.dim == 0


class TestDefaultConfig:
    TEXTS = ["L(4;2^5)", "L(28;12,8^9)", "L(32;12,10^9)", "L(-2;3)", "L(8;2,3,-3,1,-1)"]

    def test_calls_without_a_config_build_no_field_config(self, monkeypatch):
        built = []
        post_init = PrimeFieldConfig.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PrimeFieldConfig, "__post_init__", counting)
        for text in self.TEXTS:
            classify(parse_system(text))
        classify_space(triangle(5), [2] * 4 + [1] * 3)
        assert built == []
        EngineConfig()
        assert len(built) == 1  # the hook itself counts constructions

    def test_default_is_the_plain_config(self):
        assert DEFAULT_CONFIG == EngineConfig()
        for text in self.TEXTS:
            L = parse_system(text)
            assert classify(L) == classify(L, EngineConfig())
        with pytest.raises(AttributeError):
            DEFAULT_CONFIG.max_cols = 1


class TestDeferredText:
    """Steps hold systems, not text: classify formats no system, and only
    serializing a certificate does."""

    @staticmethod
    def no_matrix_systems(n: int, seed: int):
        """n systems on 3-14 points with multiplicities in -2..11 and
        degrees within a few steps of the expected-dimension boundary;
        with every multiplicity at most 11, the axioms settle them all."""
        rng = random.Random(seed)
        for _ in range(n):
            mults = [rng.randint(-2, 11) for _ in range(rng.randint(3, 14))]
            d = 0
            while vdim(LinearSystem(d, mults)) < -1:
                d += 1
            yield LinearSystem(d + rng.randint(-2, 3), mults)

    def test_classify_formats_no_system(self, monkeypatch):
        calls = []

        def counting(L):
            calls.append(L)
            return format_system(L)

        monkeypatch.setattr(systems, "format_system", counting)
        verdicts = [classify(L) for L in self.no_matrix_systems(2000, seed=5)]
        steps = [s for v in verdicts for s in v.certificate]
        assert all(v.conclusive for v in verdicts)
        assert "rank" not in {s.op for s in steps}
        assert len(steps) > 2000 and calls == []
        texts = [s.to_dict() for s in steps]
        assert len(calls) > 2000
        assert all(t["before"] == format_system(s.before) for s, t in zip(steps, texts))
