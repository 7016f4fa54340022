"""CLI contract: verdict lines, exit codes, determinism of traces."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

import trigsat.cdcl
from trigsat.cli import main
from trigsat.terms import match_literal

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
CORPORA = ROOT / "corpora"


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "trigsat", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120)


class TestSolveCommand:
    def test_successor_example_is_sat(self):
        proc = run_cli(["solve", "problems/ex1.p"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "sat"

    def test_unsaturated_trap_exits_2(self):
        proc = run_cli(["solve", "problems/goodsel_trig2_unsat_trap.p"])
        assert proc.returncode == 2
        assert "not saturated" in proc.stderr or "not valid" in proc.stderr

    def test_emit_model_stdout(self):
        proc = run_cli(["solve", "problems/goodsel_trig1.p",
                        "--emit-model", "-"])
        lines = proc.stdout.splitlines()
        assert lines[0] == "sat"
        assert "~p(f(a), f(b))" in lines[1:]

    def test_parse_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.p"
        bad.write_text("p(X,\n")
        proc = run_cli(["solve", str(bad)])
        assert proc.returncode == 1
        assert "parse error" in proc.stderr

    def test_usage_error_exits_1(self):
        proc = run_cli(["solve", "problems/ex1.p", "--order", "bogus"])
        assert proc.returncode == 1

    def test_missing_file_exits_1(self):
        proc = run_cli(["solve", "no_such_file.p"])
        assert proc.returncode == 1

    def test_unknown_budget_diagnostic(self):
        proc = run_cli(["solve", "problems/allneg_divergent.p",
                        "--max-instantiations", "30"])
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "unknown"
        assert "budget" in lines[1]


class TestCheckCommands:
    def test_subsumption_corpus_saturated(self):
        proc = run_cli(["check-saturation", "corpora/subsumption.p"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "saturated"

    def test_settheory_corpus_saturated(self):
        proc = run_cli(["check-saturation", "corpora/settheory.p",
                        "--weights", "distinct=3"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "saturated"

    def test_countersel_not_saturated(self):
        proc = run_cli(["check-saturation", "problems/countersel.p",
                        "--precedence", "r>q>p", "--precedence-dominant"])
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "not-saturated"
        assert any("violating resolution" in l for l in lines[1:])

    def test_check_selection_reports_witness(self, tmp_path):
        bad = tmp_path / "sel1.p"
        bad.write_text("p(X4) | q(X4) | *~r(Y4)\n")
        proc = run_cli(["check-selection", str(bad),
                        "--precedence", "r>q>p", "--precedence-dominant"])
        assert proc.returncode == 2
        assert "invalid" in proc.stdout

    def test_check_selection_reports_oversized_selection(self, tmp_path):
        big = tmp_path / "big.p"
        big.write_text(" | ".join(f"*~p(X{i})" for i in range(1, 10)) + "\n")
        proc = run_cli(["check-selection", str(big)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        line = proc.stdout.splitlines()[0]
        assert line.startswith("invalid: ")
        assert line.endswith(
            " -- selection of 9 literals exceeds the cap of 8")

    def test_check_selection_all_valid(self):
        proc = run_cli(["check-selection", "problems/countersel.p",
                        "--precedence", "r>q>p", "--precedence-dominant"])
        assert proc.returncode == 0
        assert all(l.startswith("valid") for l in proc.stdout.splitlines())


class TestVerifyModel:
    def test_verify_after_solve(self, tmp_path):
        model = tmp_path / "model.lits"
        proc = run_cli(["solve", "problems/ex1.p",
                        "--emit-model", str(model)])
        assert proc.returncode == 0
        proc = run_cli(["verify-model", "problems/ex1.p",
                        "--model", str(model), "--verify-depth", "3"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "ok"

    def test_verify_catches_bad_model(self, tmp_path):
        model = tmp_path / "model.lits"
        model.write_text("g(a, a)\n")
        proc = run_cli(["verify-model", "problems/ex1.p",
                        "--model", str(model), "--verify-depth", "1"])
        assert proc.returncode == 2
        assert proc.stdout.splitlines()[0] == "falsified"

    def test_verify_rejects_arity_drift(self, tmp_path):
        model = tmp_path / "model.lits"
        model.write_text("g(a)\n")  # g is binary in the problem
        proc = run_cli(["verify-model", "problems/ex1.p",
                        "--model", str(model), "--verify-depth", "1"])
        assert proc.returncode == 1
        assert "arity" in proc.stderr

    def test_verify_goodsel_run_at_depth_two(self, tmp_path):
        model = tmp_path / "model.lits"
        proc = run_cli(["solve", "problems/goodsel_trig1.p",
                        "--emit-model", str(model)])
        assert proc.returncode == 0
        proc = run_cli(["verify-model", "problems/goodsel_trig1.p",
                        "--model", str(model), "--verify-depth", "2"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "ok"


    def test_verify_repair_model_after_saturation(self, tmp_path):
        # The model is certified only with the derived p-chain clause, so
        # verification must build its candidate from the saturated theory.
        model = tmp_path / "model.lits"
        flags = ["--extend-select", "max"]
        proc = run_cli(["solve", "problems/goodsel_trig2_repair.p", *flags,
                        "--emit-model", str(model)])
        assert proc.stdout.splitlines()[0] == "sat"
        for depth in ("1", "2", "3"):
            proc = run_cli(["verify-model", "problems/goodsel_trig2_repair.p",
                            *flags, "--model", str(model),
                            "--verify-depth", depth])
            assert proc.returncode == 0, depth
            assert proc.stdout.splitlines()[0] == "ok", depth

    def test_verify_subterm_order_on_a_chain(self, tmp_path):
        chain = chain_file(tmp_path, 5)
        model = tmp_path / "model.lits"
        proc = run_cli(["solve", str(chain), "--order", "subterm",
                        "--emit-model", str(model)])
        assert proc.stdout.splitlines()[0] == "sat"
        for depth in ("1", "2"):
            proc = run_cli(["verify-model", str(chain), "--order", "subterm",
                            "--model", str(model), "--verify-depth", depth])
            assert proc.returncode == 0, depth
            assert proc.stdout.splitlines()[0] == "ok", depth

    def test_verify_subterm_order_on_a_satisfied_instance(self, tmp_path):
        # The model satisfies the only instance, so no clause is left to
        # produce from.
        problem = tmp_path / "pq.p"
        problem.write_text("*~p(X) | q(X)\np(a)\n")
        model = tmp_path / "model.lits"
        model.write_text("p(a)\nq(a)\n")
        proc = run_cli(["verify-model", str(problem), "--order", "subterm",
                        "--model", str(model), "--verify-depth", "1"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "ok"

    def test_verify_bottom_theory_is_contract_error(self, tmp_path):
        problem = tmp_path / "bottom.p"
        problem.write_text("*p(X1)\n*~p(X2)\ng(a, b)\n")
        model = tmp_path / "model.lits"
        model.write_text("g(a, b)\n")
        proc = run_cli(["verify-model", str(problem), "--model", str(model)])
        assert proc.returncode == 2
        assert "empty clause" in proc.stderr


def chain_file(tmp_path, k):
    """The two-clause p/q chain theory with the ground unit ~p(f^k(a), f^k(b))."""
    def nest(leaf):
        return "f(" * k + leaf + ")" * k

    path = tmp_path / f"chain-k{k}.p"
    path.write_text("~p(X1, Y1) | *q(f(X1), Y1)\n"
                    "~q(X2, Y2) | *p(X2, f(Y2))\n"
                    f"~p({nest('a')}, {nest('b')})\n")
    return path


class TestDeepChains:
    def test_chain_k100_is_sat_with_200_instantiations(self, tmp_path):
        proc = run_cli(["solve", str(chain_file(tmp_path, 100)),
                        "--order", "subterm", "--trace"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "sat"
        trace = proc.stderr.splitlines()
        assert sum(line.startswith("instantiate ") for line in trace) == 200

    def test_chain_k1000_gives_a_verdict_without_traceback(self, tmp_path):
        proc = run_cli(["solve", str(chain_file(tmp_path, 1000)),
                        "--order", "subterm", "--timeout", "2"])
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] in ("sat", "unknown")
        if lines[0] == "unknown":
            assert lines[1] == "reason: timeout exceeded"


class TestLongClauses:
    def test_two_copies_of_a_1201_literal_clause(self, tmp_path):
        # Backward subsumption matches one copy onto the other, literal by
        # literal.
        text = " | ".join(f"~p{i}(X)" for i in range(1200)) + " | *q(X)\n"
        path = tmp_path / "long.p"
        path.write_text(text + text)
        proc = run_cli(["solve", str(path)])
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[0] == "sat"


class TestEmitModelFile:
    def test_unwritable_model_path_fails_before_the_run(self, tmp_path):
        proc = run_cli(["solve", "problems/ex1.p", "--emit-model",
                        str(tmp_path / "no_such_dir" / "m.lits")])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, verdict", [
        (["problems/countersel.p", "--precedence", "r>q>p",
          "--precedence-dominant", "--extend-select", "auto"], "unsat"),
        (["problems/allneg_divergent.p", "--max-instantiations", "30"],
         "unknown"),
    ])
    def test_model_file_is_empty_after_a_non_sat_verdict(self, tmp_path,
                                                         args, verdict):
        model = tmp_path / "m.lits"
        model.write_text("stale\n")
        proc = run_cli(["solve", *args, "--emit-model", str(model)])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == verdict
        assert model.read_text() == ""


class TestDeterminism:
    def test_traces_are_byte_identical_across_processes(self):
        args = ["solve", "problems/goodsel_trig1.p", "--trace"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        assert first.stderr  # the trace went to stderr

    def test_conflicting_run_is_equally_deterministic(self):
        # A run that decides, conflicts, backjumps, learns, and
        # instantiates must still replay byte-for-byte.
        args = ["solve", "problems/countersel.p", "--precedence", "r>q>p",
                "--precedence-dominant", "--extend-select", "auto",
                "--trace"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.stdout.splitlines()[0] == "unsat"
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


class TestInProcessEntry:
    def test_main_returns_exit_status(self, capsys):
        status = main(["solve", str(PROBLEMS / "ex1.p")])
        assert status == 0
        assert capsys.readouterr().out.splitlines()[0] == "sat"

    def test_monitor_violations_print_as_warnings(self, monkeypatch, capsys):
        def step(monitors):
            monitors._note("step-count monitor: forced")

        monkeypatch.setattr(trigsat.cdcl._Monitors, "step", step)
        assert main(["solve", str(PROBLEMS / "ex1.p")]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "sat"
        assert err.splitlines() == ["warning: step-count monitor: forced"]


WIDE = ("*~p(X1) | *~p(X2) | *~p(X3) | *~p(X4) | *~p(X5) "
        "| *~r(X1, X2, X3, X4, X5)\n"
        + "".join(f"p(c{i})\n" for i in range(1, 15)))


class TestSearchTimeout:
    def test_timeout_holds_inside_one_instantiation_search(self, tmp_path):
        # 14^5 matches of five triggers against fourteen facts, each then
        # failing on the one r fact: one search runs for seconds unless it
        # checks the deadline itself.
        path = tmp_path / "wide.p"
        path.write_text(WIDE + "r(d, d, d, d, d)\n")
        proc = run_cli(["solve", str(path), "--timeout", "0.2"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["unknown",
                                            "reason: timeout exceeded"]

    def test_trigger_without_candidates_ends_the_search(self, tmp_path,
                                                        monkeypatch, capsys):
        # No r literal is ever on the trail, so no pattern enumeration is
        # needed; matching the p patterns first made 8.1M calls.
        calls = []

        def counting(*args):
            calls.append(None)
            return match_literal(*args)

        monkeypatch.setattr(trigsat.cdcl, "match_literal", counting)
        path = tmp_path / "wide.p"
        path.write_text(WIDE)
        assert main(["solve", str(path), "--timeout", "60"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "sat"
        assert len(calls) < 100


# An 8-cycle of selected p literals, and the 435 edges of a complete DAG
# on 30 constants in one clause: backward subsumption of the DAG clause by
# the cycle clause is one match that runs for minutes.
CYCLE_AND_DAG = (
    " | ".join(f"*~p(X{i}, X{i % 8 + 1})" for i in range(1, 9)) + "\n"
    + " | ".join(f"~p(a{i}, a{j})" for i in range(30)
                 for j in range(i + 1, 30)) + " | *~q(Y)\n")


class TestOneDeadline:
    # --timeout bounds saturation and search together, also inside one
    # subsumption.  The 1.5 s include the interpreter's start; a run that
    # ignores the deadline is killed after 10 s.
    @pytest.mark.parametrize("waiver, code, out", [
        ([], 2, []),
        (["--allow-unsaturated"], 0, ["unknown", "reason: timeout exceeded"]),
    ])
    def test_timeout_holds_inside_subsumption(self, tmp_path, waiver, code,
                                              out):
        path = tmp_path / "cycle_dag.p"
        path.write_text(CYCLE_AND_DAG)
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "trigsat", "solve", str(path),
             "--timeout", "0.5", *waiver],
            capture_output=True, text=True, cwd=ROOT, timeout=10)
        elapsed = time.monotonic() - started
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == out
        if code == 2:
            assert "saturation budget exceeded" in proc.stderr
        assert elapsed < 1.5


# Resolving the two clauses derives p(Y0) | ... | p(Y8): nine maximal
# literals, one over the selection cap.
NINE_MAXIMAL = (
    "*~s(" + ",".join(f"X{i}" for i in range(9)) + ") | "
    + " | ".join(f"p(X{i})" for i in range(9)) + "\n"
    "*s(" + ",".join(f"Y{i}" for i in range(9)) + ")\n")


class TestOversizedMaximalSelection:
    def test_auto_extension_moves_past_maximal(self, tmp_path, capsys):
        path = tmp_path / "nine.p"
        path.write_text(NINE_MAXIMAL)
        assert main(["solve", str(path), "--extend-select", "auto"]) == 0
        assert capsys.readouterr().out.splitlines() == ["sat"]

    def test_maximal_extension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nine.p"
        path.write_text(NINE_MAXIMAL)
        assert main(["solve", str(path), "--extend-select", "maximal"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: theory not saturated")
        assert "exceeds the cap of 8" in err


BAD_INPUTS = {
    "zero-weight": ["solve", "problems/ex1.p", "--weights", "f=0"],
    "negative-verify-depth": ["verify-model", "problems/ex1.p", "--model",
                              "{tmp}/ex1.model", "--verify-depth", "-1"],
    "directory-as-problem": ["solve", "problems"],
    "non-utf8-problem": ["solve", "{tmp}/binary.p"],
    "directory-as-emit-model": ["solve", "problems/ex1.p",
                                "--emit-model", "{tmp}"],
    "negative-timeout": ["solve", "problems/ex1.p", "--timeout", "-1"],
    "repeated-precedence": ["solve", "problems/ex1.p", "--precedence",
                            "g>s>g"],
    "negative-max-instantiations": ["solve", "problems/ex1.p",
                                    "--max-instantiations", "-1"],
    "negative-max-clauses": ["solve", "problems/ex1.p",
                             "--max-clauses", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_without_traceback(case, tmp_path):
    (tmp_path / "ex1.model").write_text("g(a, b)\n")
    (tmp_path / "binary.p").write_bytes(b"\xff\xfe")
    args = [arg.format(tmp=tmp_path) for arg in BAD_INPUTS[case]]
    proc = run_cli(args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("usage error:", "error:"))
