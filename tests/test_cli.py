from __future__ import annotations

import inspect
import json
import tracemalloc

import pytest
from click.testing import CliRunner

from fatpoints.cli import main
from fatpoints.initial_cases import run_initial_cases
from fatpoints.ledger import run_ledger


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestBasics:
    def test_vdim(self):
        r = run("vdim", "L(13;5,4^9)")
        assert r.exit_code == 0 and r.output.strip() == "-1"

    def test_edim_json(self):
        r = run("--json", "edim", "L(1;2,2)")
        assert r.exit_code == 0
        assert json.loads(r.output) == {"edim": -1, "input": "L(1;2^2)"}

    def test_crst(self):
        r = run("crst", "L(30;13,9^9)")
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0] == "L(30;13,9^9)"
        assert lines[-1] == "L(26;9^2,8^8)"

    def test_parse_error(self):
        r = run("vdim", "L(30;13,")
        assert r.exit_code != 0


class TestUsageErrors:
    @pytest.mark.parametrize("args, pos", [
        (["vdim", "L(30;13,"], 8),
        (["edim", "L(1;2"], 5),
        (["crst", "L(30;13 9)"], 8),
        (["classify", "L(32;12,"], 8),
        (["classify", "L(" + "9" * 5000 + ";1)"], 2),
        (["reduce", "--diagram", "(~3,x)", "--mults", "2"], 4),
        (["reduce", "--diagram", "(~3)", "--mults", "2,,1"], 2),
        (["reduce", "--diagram", "(~3)", "--mults", "1)"], 1),
        (["rank", "L(4;2^)"], 6),
        (["rank", "--diagram", "(1, 5)", "--mults", "2"], 4),
        (["rank", "--diagram", "(~3)", "--mults", "a"], 0),
    ])
    def test_parse_error_names_its_position(self, args, pos):
        r = run(*args)
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert f"at position {pos} in" in r.output

    @pytest.mark.parametrize("args, message", [
        (["reduce", "--diagram", "(~3)", "--mults", "-1"], "reduce needs mults >= 0"),
        (["reduce", "--diagram", "(~3)", "--mults", "2,-1"], "reduce needs mults >= 0"),
        (["rank", "--diagram", "(~3)", "--mults", "-2"],
         "rank needs d >= 0 and mults >= 0"),
        (["rank", "--diagram", "(~3)", "--mults", "2,0,-1"],
         "rank needs d >= 0 and mults >= 0"),
        (["rank", "L(-1;)"], "rank needs d >= 0 and mults >= 0"),
        (["initial-cases", "--m", "0", "--a", "0", "--k", "0", "--enumeration-only"],
         "need m >= 1 and k >= 0"),
        (["initial-cases", "--m", "3", "--a", "4", "--k", "0", "--enumeration-only"],
         "family (3,4,0) violates a >= m (and a >= 2m when k = 0)"),
        (["initial-cases", "--m", "7", "--a", "13", "--k", "5", "--enumeration-only",
          "--jobs", "0"], "0 is not in the range x>=1"),
        (["initial-cases", "--m", "7", "--a", "13", "--k", "5", "--enumeration-only",
          "--s", "-1"], "-1 is not in the range x>=0"),
        (["rank", "L(4;2^5)", "--mults", "2"], "give SYSTEM or --diagram/--mults, not both"),
        (["rank", "L(4;2^5)", "--diagram", "(~3)", "--mults", "2"],
         "give SYSTEM or --diagram/--mults, not both"),
        (["classify", "--max-cols", "-1", "--stages", "rank", "L(5;2^3)"],
         "max_cols must be >= 1"),
    ])
    def test_bad_values(self, args, message):
        r = run(*args)
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output
        assert message in r.output

    @pytest.mark.parametrize("args, shape", [
        (["rank", "L(100000;1)"], "1x5000150001"),
        (["rank", "--diagram", "(~3)", "--mults", "100000"], "5000050000x6"),
        (["rank", "L(62;)"], "0x2016"),
        (["rank", "--diagram", "(1)", "--mults", "63"], "2016x1"),
    ])
    def test_rank_matrix_capped_before_allocating(self, args, shape):
        tracemalloc.start()
        try:
            r = run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output
        assert f"rank matrix would be {shape}" in r.output
        assert "capped at 2000" in r.output
        assert peak < 1_000_000

    @pytest.mark.parametrize("args, shape", [
        (["rank", "L(61;)"], (0, 1953)),
        (["rank", "--diagram", "(1)", "--mults", "62"], (1953, 1)),
    ])
    def test_rank_matrix_at_the_cap(self, args, shape):
        r = run("--json", *args)
        assert r.exit_code == 0, r.output
        out = json.loads(r.output)
        assert (out["rows"], out["cols"]) == shape

    @pytest.mark.parametrize("prime", ["2305843009213693951", "1000000", "1048577"])
    def test_bad_prime(self, prime):
        r = run("rank", "--prime", prime, "L(4;2^5)")
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output


class TestClassify:
    def test_nonspecial(self):
        r = run("--json", "classify", "L(28;12,8^9)")
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["verdict"]["kind"] == "NonSpecial"

    def test_minus_one_special(self):
        r = run("classify", "L(4;2^5)")
        assert r.exit_code == 0 and "MinusOneSpecial" in r.output

    def test_stage_restriction(self):
        r = run("--json", "classify", "--stages", "standard_form,rank",
                "L(13;5,4^9)")
        out = json.loads(r.output)
        assert out["verdict"]["kind"] == "Empty"
        assert any(s["op"] == "rank" for s in out["verdict"]["steps"])

    def test_unknown_stage(self):
        r = run("classify", "--stages", "nosuch", "L(4;4)")
        assert r.exit_code == 2 and "unknown stages: nosuch" in r.output

    def test_inconclusive_exit_code(self):
        r = run("classify", "--stages", "rank", "L(4;2^5)")
        assert r.exit_code == 2

    def test_max_cols_cap_is_inconclusive(self):
        args = ("classify", "--stages", "rank")
        capped = run(*args, "--max-cols", "10", "L(9;1)")
        assert capped.exit_code == 2 and "cap 10" in capped.output
        r = run("--json", *args, "L(9;1)")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"]["kind"] == "NonSpecial"

    @pytest.mark.parametrize("option", [["--cache", "x"], ["--no-cache"]])
    def test_no_result_cache(self, option):
        r = run(*option, "classify", "L(28;12,8^9)")
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output
        assert "No such option" in r.output


class TestReduceAndRank:
    def test_reduce(self):
        r = run("--json", "reduce", "--diagram", "(~32)",
                "--mults", "12,9^9")
        out = json.loads(r.output)
        assert out["consumed_all"] is True and out["final_cells"] == 45

    def test_rank_system(self):
        r = run("--json", "rank", "L(13;5,4^9)")
        out = json.loads(r.output)
        assert out["rows"] == out["cols"] == out["rank"] == 105
        assert out["full_rank"] is True

    def test_rank_diagram(self):
        r = run("--json", "rank", "--diagram", "(~5)", "--mults", "2^4,1^3")
        out = json.loads(r.output)
        assert out["full_rank"] is True

    def test_rank_diagram_drops_zero_mults(self):
        r = run("--json", "rank", "--diagram", "(~5)", "--mults", "2^4,0,1^3,0")
        assert r.exit_code == 0
        assert json.loads(r.output)["input"] == "(~5); 2,2,2,2,1,1,1"

    def test_rank_diagram_with_no_mults(self):
        r = run("--json", "rank", "--diagram", "(~3)", "--mults", "")
        out = json.loads(r.output)
        assert r.exit_code == 0
        assert (out["rows"], out["cols"], out["rank"]) == (0, 6, 0)

    def test_rank_needs_input(self):
        assert run("rank").exit_code != 0


class TestInitialCasesAndLedger:
    def test_enumeration_only(self):
        r = run("--json", "initial-cases", "--m", "6", "--a", "16",
                "--k", "0", "--enumeration-only")
        out = json.loads(r.output)
        assert out["total_diagrams"] == 27896
        assert out["total_diagrams"] - out["filtered_out"] == 12799
        assert r.exit_code == 0

    def test_not_ok_exit_code(self):
        r = run("initial-cases", "--m", "5", "--a", "10", "--k", "1")
        assert r.exit_code == 1

    @pytest.mark.parametrize("command, option, fn, name", [
        (("ledger", "verify"), "m_max", run_ledger, "m_max"),
        (("ledger", "verify"), "k_max", run_ledger, "k_max"),
        (("ledger", "verify"), "r_max", run_ledger, "r_max"),
        (("initial-cases",), "s_", run_initial_cases, "s"),
    ])
    def test_option_defaults_are_the_library_defaults(self, command, option, fn, name):
        cmd = main
        for word in command:
            cmd = cmd.commands[word]
        default = next(o.default for o in cmd.params if o.name == option)
        assert default == inspect.signature(fn).parameters[name].default

    def test_ledger_verify_entry(self):
        r = run("--json", "ledger", "verify", "--entry", "ADHOC")
        out = json.loads(r.output)
        assert r.exit_code == 0 and out["failures"] == []

    def test_ledger_verify_unknown_entry(self):
        r = run("ledger", "verify", "--entry", "NOPE")
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output
        assert "no ledger record has id 'NOPE'" in r.output
