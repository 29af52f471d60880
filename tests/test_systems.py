from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import numpy as np
import pytest

from fatpoints.diagrams import Diagram, triangle
from fatpoints.engine import classify
from fatpoints.textio import parse_system
from fatpoints.systems import (
    EMPTY,
    MINUS_ONE_SPECIAL,
    MULT_LE_11,
    NON_SPECIAL,
    POINTS_LE_9,
    SIMPLE_POINTS,
    GlueError,
    LinearSystem,
    Step,
    Verdict,
    classify_by_axioms,
    cremona,
    edim,
    format_system,
    glue,
    is_standard_form,
    standard_form,
    strip_negative_mults,
    vdim,
)


def L(text_d, *mults):
    return LinearSystem(text_d, tuple(mults))


class TestDimensions:
    def test_vdim_examples(self):
        assert vdim(L(13, 5, *[4] * 9)) == -1
        assert edim(L(13, 5, *[4] * 9)) == -1
        assert vdim(L(4, 4)) == 4
        assert vdim(L(0)) == 0

    def test_negative_mults_contribute_through_binomial(self):
        # -1 contributes 0 conditions, -2 contributes +1
        assert vdim(L(0, -1)) == vdim(L(0))
        assert vdim(L(0, -2)) == vdim(L(0)) - 1

    def test_edim_floor(self):
        assert edim(L(1, 2, 2)) == -1


class TestCremona:
    def test_definition(self):
        got = cremona(L(32, 18, 13, 9, 9, 9, 9, 9, 9, 9))
        assert got == L(24, 10, 5, 1, 9, 9, 9, 9, 9, 9)

    def test_involution(self):
        x = L(10, 7, 5, 3, 2)
        assert cremona(cremona(x)) == x

    def test_pads_with_zeros(self):
        assert cremona(L(5, 7)).same_as(L(3, 5, -2, -2))

    def test_preserves_vdim(self):
        x = L(17, 9, 9, 9, 9)
        assert vdim(cremona(x)) == vdim(x)


class TestStandardForm:
    def test_already_standard(self):
        x = L(28, 12, *[8] * 12)
        assert is_standard_form(x)
        res, chain = standard_form(x)
        assert res == x and chain == (x,)

    def test_negative_degree_is_standard(self):
        assert is_standard_form(L(-3, 5, 5))

    def test_unsorted_not_standard(self):
        assert not is_standard_form(L(20, 3, 5))

    def test_known_identity(self):
        res, _ = standard_form(L(30, 13, *[9] * 9))
        assert res.same_as(L(26, 9, 9, *[8] * 8))

    def test_chain_starts_and_ends_correctly(self):
        x = L(30, 13, *[9] * 9)
        res, chain = standard_form(x)
        assert chain[0] == x and chain[-1] == res

    def test_chain_preserves_vdim(self):
        _, chain = standard_form(L(32, 18, 13, *[9] * 7))
        assert len({vdim(s) for s in chain}) == 1

    def test_terminates_below_zero(self):
        res, _ = standard_form(L(2, 9, 9, 9))
        assert res.degree < 0


class TestNegativeRules:
    def test_minus_one_changes_nothing(self):
        stripped, components = strip_negative_mults(L(7, 9, -1, -1, -1))
        assert stripped.same_as(L(7, 9))
        assert components == ()

    def test_multiple_components_recorded(self):
        stripped, components = strip_negative_mults(L(5, 7, -2, -4))
        assert components == (2, 4)
        assert stripped.same_as(L(5, 7))

    def test_vdim_shift_identity(self):
        x = L(5, 7, -2, -4)
        stripped, components = strip_negative_mults(x)
        assert vdim(x) == vdim(stripped) + sum((k - k * k) // 2 for k in components)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            strip_negative_mults(L(-1, 2))
        with pytest.raises(ValueError):
            strip_negative_mults(L(5, -1, 3))


class TestAxioms:
    def test_points_le_9(self):
        v = classify_by_axioms(L(26, 10, 8, 8, 8, 8, 8))
        assert v.kind == NON_SPECIAL and "POINTS_LE_9" in v.axioms_used

    def test_mult_le_11_empty(self):
        v = classify_by_axioms(L(26, 9, 9, *[8] * 8))
        assert v.kind == EMPTY and v.dim == -1
        assert "MULT_LE_11" in v.axioms_used

    def test_inapplicable(self):
        assert classify_by_axioms(L(50, 12, *[12] * 10)) is None

    def test_nonspecial_of_dimension_minus_one_is_empty(self):
        assert Verdict.nonspecial(-1, ()) == Verdict(EMPTY, -1)
        assert Verdict.nonspecial(0, ()) == Verdict(NON_SPECIAL, 0)

    def test_requires_standard_form(self):
        with pytest.raises(ValueError):
            classify_by_axioms(L(4, 2, 2, 2, 2, 2))

    def test_simple_points(self):
        v = classify_by_axioms(L(22, 12, 5, 5, *[1] * 10))
        assert v.kind == NON_SPECIAL and "SIMPLE_POINTS" in v.axioms_used
        assert classify_by_axioms(L(50, 12, *[2] * 10)) is None
        # the bound is at most 9 multiplicities >= 2
        v = classify_by_axioms(L(40, 12, *[2] * 8, 1))
        assert v.axioms_used == ("SIMPLE_POINTS", "POINTS_LE_9")
        assert classify_by_axioms(L(40, 12, *[2] * 9)) is None


class TestGlue:
    def _cert(self):
        return Verdict(NON_SPECIAL, dim=7)

    def test_bookkeeping_identity(self):
        x = L(29, 12, *[7] * 9)
        g = glue(x, 4, 7, 14, self._cert())
        assert g.same_as(L(29, 12, *[7] * 5, 15))
        small = L(14, 7, 7, 7, 7)
        assert vdim(g) - vdim(x) == -(vdim(small) + 1)

    def test_requires_certificate(self):
        with pytest.raises(GlueError) as e:
            glue(L(29, 12, *[7] * 9), 4, 7, 14,
                 Verdict("Inconclusive"))
        assert str(e.value) == "UNCERTIFIED: small system verdict is Inconclusive"

    def test_requires_enough_points(self):
        with pytest.raises(GlueError) as e:
            glue(L(29, 12, 7, 7), 4, 7, 14, self._cert())
        assert str(e.value) == "MISSING_POINTS: L(29;12,7^2) lacks 4 entries equal to 7"

    def test_sandwich_violation(self):
        # vdim drops from 3 to -5: fits neither ordering
        x = L(15, *[7] * 4, *[1] * 20)
        assert vdim(x) == 3
        with pytest.raises(GlueError) as e:
            glue(x, 4, 7, 14, self._cert())
        assert str(e.value) == "SANDWICH_VIOLATED: vdim 3 -> -5 fits neither ordering"

    def test_empty_certificate_is_accepted(self):
        cert = Verdict(EMPTY, dim=-1)
        g = glue(L(32, 13, *[9] * 11), 4, 9, 17, cert)
        assert g.same_as(L(32, 18, 13, *[9] * 7))


class TestFormatting:
    def test_run_grouping(self):
        assert format_system(L(32, 12, *[8] * 12)) == "L(32;12,8^12)"
        assert str(L(4, 4)) == "L(4;4)"

    def test_canonical_sorts_and_drops_zeros(self):
        assert L(9, 0, 3, 5, 0).canonical() == L(9, 5, 3)

    def test_same_as(self):
        assert L(9, 3, 5).same_as(L(9, 5, 3, 0))
        assert not L(9, 3, 5).same_as(L(8, 5, 3))

    def test_empty_and_single_entries(self):
        assert format_system(L(0)) == "L(0;)"
        assert format_system(L(-3, -1)) == "L(-3;-1)"
        assert L(2).sorted_desc() == L(2)


def _sorted_desc_by_index(ms):
    """The index sort sorted_desc used before: stable on (-m, i)."""
    return tuple(ms[i] for i in sorted(range(len(ms)), key=lambda i: (-ms[i], i)))


def _format_by_index(d, ms):
    """The two-index run scan format_system used before."""
    parts, i = [], 0
    while i < len(ms):
        j = i
        while j < len(ms) and ms[j] == ms[i]:
            j += 1
        n = j - i
        parts.append(f"{ms[i]}^{n}" if n > 1 else f"{ms[i]}")
        i = j
    return f"L({d};{','.join(parts)})"


class TestAgainstIndexScans:
    """sorted_desc and format_system agree with the index-based code they
    replaced, on random signed tuples with zeros and long runs."""

    def cases(self):
        rng = random.Random(20)
        for _ in range(3000):
            width = rng.choice([1, 3, 15])
            ms = [rng.randint(-width, width) for _ in range(rng.randint(0, 14))]
            if ms and rng.random() < 0.5:  # repeat entries into runs
                ms = [m for m in ms for _ in range(rng.randint(1, 4))]
            yield rng.randint(-5, 40), tuple(ms)

    def test_sorted_desc(self):
        for d, ms in self.cases():
            assert L(d, *ms).sorted_desc() == LinearSystem(d, _sorted_desc_by_index(ms))

    def test_format_system(self):
        for d, ms in self.cases():
            assert format_system(L(d, *ms)) == _format_by_index(d, ms)
            srt = _sorted_desc_by_index(ms)
            assert format_system(L(d, *srt)) == _format_by_index(d, srt)

    def test_entries_are_coerced_to_int(self):
        x = LinearSystem(np.int64(7), np.array([3, 0, -2], dtype=np.int64))
        assert x.mults == (3, 0, -2) and all(type(m) is int for m in x.mults)
        assert type(x.degree) is int
        assert format_system(x) == "L(7;3,0,-2)"
        v = classify(LinearSystem(np.int64(7), np.array([3, 2])))
        assert v.dim == 26 and type(v.dim) is int
        assert json.dumps([v.dim, v.certificate[-1].params]) == \
            '[26, {"axioms": ["POINTS_LE_9"], "edim": 26}]'


class TestIntegralInputs:
    """The constructors take integers, numpy ones included, and refuse
    what is not one instead of truncating or parsing it."""

    def test_float_multiplicities_raise(self):
        with pytest.raises(TypeError):
            LinearSystem(3.7, (2.9, 1))
        with pytest.raises(TypeError):
            LinearSystem(3, (2.0, 1))

    def test_string_entries_raise(self):
        with pytest.raises(TypeError):
            LinearSystem("5", ("2", "2"))
        with pytest.raises(TypeError):
            LinearSystem(5, ("2", "2"))

    def test_float_layers_raise(self):
        with pytest.raises(TypeError):
            Diagram((1, 2.5))
        d = Diagram(np.array([1, 2, 2], dtype=np.int32))
        assert d.layers == (1, 2, 2) and all(type(c) is int for c in d.layers)


def _vdim_loop(d, ms):
    """The loop vdim used before: one binomial subtracted per entry."""
    total = (d + 2) * (d + 1) // 2
    for m in ms:
        total -= m * (m + 1) // 2
    return total - 1


def _strip_loop(ms):
    """The two full scans strip_negative_mults used before."""
    return tuple(0 if m < 0 else m for m in ms), tuple(-m for m in ms if m <= -2)


def _axiom_branch_loop(L):
    """The branch choice classify_by_axioms made before, from a list of
    the positive entries; None where no axiom applies."""
    positive = [m for m in L.mults if m > 0]
    if len(positive) <= 9:
        return (POINTS_LE_9,)
    if max(positive) <= 11:
        return (MULT_LE_11,)
    if sum(1 for m in positive if m >= 2) <= 9:
        return (SIMPLE_POINTS, POINTS_LE_9)
    return None


def loop_corpus(seed=25, n=4000):
    """Random signed systems: zeros, negatives, runs of equal entries, and
    often ten or more points with one of multiplicity 12 or more."""
    rng = random.Random(seed)
    for _ in range(n):
        r = rng.choice([0, 1, 2, 3, 9, 10, 11, 13, 16])
        ms = [rng.choice([-3, -2, -1, 0, 0, 1, 1, 1, 2, 3, 5, 8, 11])
              for _ in range(r)]
        if ms and rng.random() < 0.4:
            ms[rng.randrange(r)] = rng.randint(12, 20)
        if ms and rng.random() < 0.4:  # repeat entries into runs
            ms = [m for m in ms for _ in range(rng.randint(1, 3))]
        rng.shuffle(ms)
        yield rng.randint(-3, 70), tuple(ms)


class TestAgainstLoopForms:
    """vdim, canonical, count, strip_negative_mults and the axiom branch
    choice agree with the loops they replaced."""

    def test_vdim_canonical_count(self):
        for d, ms in loop_corpus():
            x = L(d, *ms)
            assert vdim(x) == _vdim_loop(d, ms)
            canon = x.canonical()
            assert canon == L(d, *sorted((m for m in ms if m != 0), reverse=True))
            assert all(type(m) is int for m in canon.mults)
            for m in (-2, 0, 1, 12, 99):
                assert x.count(m) == sum(1 for y in ms if y == m)

    def test_strip_negative_mults(self):
        n_negative = 0
        for d, ms in loop_corpus():
            x = L(abs(d), *ms).sorted_desc()
            new, comps = _strip_loop(x.mults)
            assert strip_negative_mults(x) == (L(x.degree, *new), comps)
            n_negative += bool(comps)
        assert n_negative > 100

    def test_axiom_branch_choice(self):
        seen = set()
        for d, ms in loop_corpus():
            x = L(d, *ms)
            if d < 0 or not is_standard_form(x) or min(ms, default=0) < 0:
                with pytest.raises(ValueError):
                    classify_by_axioms(x)
                # the same system made admissible: sorted, no negatives,
                # and a degree at least its three largest entries
                srt = sorted((max(m, 0) for m in ms), reverse=True)
                x = L(max(d, sum(srt[:3])), *srt)
            want = _axiom_branch_loop(x)
            v = classify_by_axioms(x)
            assert (v.axioms_used if v else None) == want, x
            if v is not None:
                assert v.dim == max(_vdim_loop(x.degree, x.mults), -1)
            seen.add(want)
        assert seen == {(POINTS_LE_9,), (MULT_LE_11,), (SIMPLE_POINTS, POINTS_LE_9), None}


class TestDerivedSystems:
    """The systems derived from another system's fields skip the public
    coercion; from numpy input they still hold Python ints and compare and
    hash like the systems the public constructor builds."""

    X = LinearSystem(np.int64(10), np.array([3, 0, 7, -2, 5, 0, 5], dtype=np.int64))

    def assert_public(self, got: LinearSystem, degree: int, mults) -> None:
        want = LinearSystem(degree, tuple(mults))
        assert type(got.degree) is int and all(type(m) is int for m in got.mults)
        assert got == want and hash(got) == hash(want)

    def test_sorted_canonical_cremona_strip(self):
        srt = self.X.sorted_desc()
        self.assert_public(srt, 10, [7, 5, 5, 3, 0, 0, -2])
        self.assert_public(self.X.canonical(), 10, [7, 5, 5, 3, -2])
        self.assert_public(cremona(srt), 3, [0, -2, -2, 3, 0, 0, -2])
        self.assert_public(cremona(LinearSystem(np.int64(5), np.array([7]))),
                           3, [5, -2, -2])
        stripped, components = strip_negative_mults(srt)
        self.assert_public(stripped, 10, [7, 5, 5, 3, 0, 0, 0])
        assert components == (2,)

    def test_standard_form_chain(self):
        res, chain = standard_form(LinearSystem(np.int64(30), np.array([13] + [9] * 9)))
        _, plain = standard_form(L(30, 13, *[9] * 9))
        assert len(chain) == len(plain) > 2
        for got, want in zip(chain, plain):
            self.assert_public(got, want.degree, want.mults)
        assert res is chain[-1]


class TestVerdictHash:
    def test_equal_verdicts_hash_equal(self):
        a = classify(parse_system("L(13;5,4^9)"))
        b = classify(parse_system("L(13;5,4^9)"))
        assert a.certificate[0].params and a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b, classify(parse_system("L(10;4^4)"))}) == 2

    def test_steps_holding_diagrams_hash_equal(self):
        a = classify(parse_system("L(32;12,10^9)"))
        b = classify(parse_system("L(32;12,10^9)"))
        assert any(isinstance(s.before, Diagram) for s in a.certificate)
        assert a == b and hash(a) == hash(b)
        others = [classify(parse_system(t)) for t in ("L(13;5,4^9)", "L(10;4^4)")]
        assert len({a, b, *others}) == 3

    def test_params_hash_in_any_key_order(self):
        one = Step("rank", {"rows": 3, "cols": 4}, before="D")
        two = Step("rank", {"cols": 4, "rows": 3}, before="D")
        assert one == two and hash(one) == hash(two)
        assert repr(one) == ("Step(op='rank', params={'rows': 3, 'cols': 4}, "
                             "before='D', after=None)")


class TestReadOnlyParams:
    """A returned certificate cannot be rewritten through a step's params."""

    def test_writes_raise(self):
        v = classify(parse_system("L(10;4^4)"))
        step = v.certificate[-1]
        text, h = json.dumps([s.to_dict() for s in v.certificate]), hash(v)
        writes = [lambda p: p.__setitem__("edim", 99), lambda p: p.__delitem__("edim"),
                  lambda p: p.update(edim=99), lambda p: p.__ior__({"edim": 99}),
                  lambda p: p.setdefault("new", 1), lambda p: p.pop("edim"),
                  lambda p: p.popitem(), lambda p: p.clear()]
        for write in writes:
            with pytest.raises(TypeError, match="read-only"):
                write(step.params)
        assert step.params["edim"] != 99 and isinstance(step.params["axioms"], tuple)
        assert json.dumps([s.to_dict() for s in v.certificate]) == text
        assert hash(v) == h

    def test_params_are_a_copy_of_the_mapping_given(self):
        given = {"rows": 3}
        step = Step("rank", given)
        given["rows"] = 4
        assert step.params == {"rows": 3}

    def test_verdicts_stay_frozen(self):
        v = Verdict(NON_SPECIAL, dim=3)
        assert (v.kind, v.dim, v.certificate, v.reason) == (NON_SPECIAL, 3, (), None)
        assert repr(v) == "Verdict(kind='NonSpecial', dim=3, certificate=(), reason=None)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.dim = 4

    def test_verdicts_pickle_and_copy(self):
        v = classify(parse_system("L(32;12,10^9)"))
        assert pickle.loads(pickle.dumps(v)) == v
        assert copy.deepcopy(v) == v and copy.copy(v.certificate[0]) == v.certificate[0]


class TestStepText:
    CHAIN = (L(5, 3, 3, 2), L(3, 1, 1, 2), L(3, 2, 1, 1))

    def test_to_dict_gives_text_and_lists(self):
        step = Step("standard_form", {"chain": self.CHAIN},
                    before=self.CHAIN[0], after=self.CHAIN[-1])
        assert step.to_dict() == {
            "op": "standard_form",
            "params": {"chain": ["L(5;3^2,2)", "L(3;1^2,2)", "L(3;2,1^2)"]},
            "before": "L(5;3^2,2)",
            "after": "L(3;2,1^2)",
        }
        enlarge = Step("enlarge", {"to": triangle(10)}, before=Diagram((1, 2, 3, 1)))
        assert enlarge.to_dict() == {"op": "enlarge", "params": {"to": "(~10)"},
                                     "before": "(~3,1)", "after": None}

    def test_to_dict_gives_a_nested_certificate_as_steps(self):
        cert = classify(parse_system("L(17;9^4)")).certificate
        step = Step("glue", {"small": L(17, 9, 9, 9, 9), "certificate": cert})
        assert step.to_dict()["params"] == {
            "small": "L(17;9^4)", "certificate": [s.to_dict() for s in cert]}

    def test_to_dict_returns_fresh_containers(self):
        step = Step("reduce_chain", {"mults": [4, 4], "residual": (3,),
                                     "chain": self.CHAIN})
        first = step.to_dict()
        first["params"]["mults"].append(9)
        first["params"]["residual"].clear()
        first["params"]["chain"][0] = "L(0;)"
        first["params"]["new"] = 1
        assert step.params == {"mults": [4, 4], "residual": (3,), "chain": self.CHAIN}
        assert step.to_dict() != first
        assert step.to_dict()["params"]["chain"][0] == "L(5;3^2,2)"

    def test_equal_steps_hash_equal(self):
        one = Step("enlarge", {"to": triangle(10)}, before=Diagram((1, 2, 3, 1, 0)))
        two = Step("enlarge", {"to": triangle(10)}, before=Diagram((1, 2, 3, 1)))
        assert one == two and hash(one) == hash(two)
        assert hash(one) != hash(Step("enlarge", {"to": triangle(9)}, before=two.before))
