"""End-to-end flow: selection setup, saturation gate, waivers."""

import pytest

from trigsat.cdcl import Budget
from trigsat.ordering import OrderingSpec
from trigsat.parser import parse_problem
from trigsat.pipeline import (
    ContractError,
    SolveOptions,
    build_selection,
    solve_problem,
)
from trigsat.saturation import SaturationOutcome


class TestSelectionSetup:
    def test_annotated_missing_annotation(self):
        problem = parse_problem("p(X) | ~q(X)\n")
        with pytest.raises(ContractError, match="no selection annotation"):
            build_selection(problem, SolveOptions())

    def test_annotated_invalid_selection(self):
        problem = parse_problem("*p(X) | q(X)\n")
        order = OrderingSpec(kind="weight", precedence=("q", "p"))
        with pytest.raises(ContractError, match="selection not valid"):
            build_selection(problem, SolveOptions(ordering=order))

    def test_auto_mode_ignores_markers(self):
        problem = parse_problem("*~p(X1, Y1) | q(f(X1), Y1)\n")
        selection = build_selection(problem, SolveOptions(select="max"))
        c = problem.theory[0]
        assert selection[c.cid] == frozenset({1})

    def test_auto_mode_failure_is_contract_error(self):
        # Negative strategy cannot cover the positive-only clause.
        problem = parse_problem("p(X) | q(X)\n")
        with pytest.raises(ContractError, match="selection not valid"):
            build_selection(problem, SolveOptions(select="neg"))

    def test_oversized_selection_is_contract_error(self):
        lits = " | ".join(f"*~p(X{i})" for i in range(1, 10))
        problem = parse_problem(lits + "\n")
        with pytest.raises(ContractError, match="cap"):
            build_selection(problem, SolveOptions())


class TestSelectionChecks:
    def test_each_selection_is_checked_once_per_command(self, monkeypatch):
        import trigsat.pipeline
        import trigsat.saturation
        from trigsat.pipeline import check_problem_saturated
        from trigsat.selection import check_selection

        checked = []

        def counting(c, sel, o):
            checked.append(c.cid)
            return check_selection(c, sel, o)

        for module in (trigsat.pipeline, trigsat.saturation):
            monkeypatch.setattr(module, "check_selection", counting)
        problem = parse_problem("~p(X1, Y1) | *q(f(X1), Y1)\n"
                                "~q(X2, Y2) | *p(X2, f(Y2))\n"
                                "~p(f(a), f(b))\n")
        theory = [c.cid for c in problem.theory]
        assert solve_problem(problem, SolveOptions()).verdict_line == "sat"
        assert checked == theory
        check_problem_saturated(problem, SolveOptions())
        assert checked == theory * 2


class TestSaturationGate:
    def test_theory_bottom_is_unsat_without_running_cdcl(self):
        problem = parse_problem("*p(X1)\n*~p(X2)\ng(a, b)\n")
        result = solve_problem(problem, SolveOptions())
        assert result.verdict_line == "unsat"
        assert result.run is None
        assert result.saturation.outcome is SaturationOutcome.DERIVED_BOTTOM

    def growing_theory(self):
        return parse_problem("p(X) | *~p(g(X))\n*p(g(Y)) | q(Y)\n")

    def test_saturation_over_budget_without_waiver_refuses(self):
        options = SolveOptions(
            extend_select="all",
            budget=Budget(max_saturation_clauses=5))
        with pytest.raises(ContractError, match="not saturated"):
            solve_problem(self.growing_theory(), options)

    def test_saturation_over_budget_with_waiver_warns(self):
        options = SolveOptions(
            extend_select="all", allow_unsaturated=True,
            budget=Budget(max_saturation_clauses=5))
        result = solve_problem(self.growing_theory(), options)
        assert result.warnings
        assert "not certified" in result.warnings[0]
        assert result.verdict_line in ("sat", "unknown")

    def test_verify_refuses_saturation_over_budget(self):
        from trigsat.pipeline import verify_model

        options = SolveOptions(
            extend_select="all",
            budget=Budget(max_saturation_clauses=5))
        with pytest.raises(ContractError, match="not saturated"):
            verify_model(self.growing_theory(), [], options, depth=1)

    def test_extension_error_mode_is_contract_error(self):
        problem = parse_problem("~p(X1, Y1) | *q(f(X1), Y1)\n"
                                "*~q(X2, Y2) | p(X2, f(Y2))\n"
                                "p(a, b)\n")
        with pytest.raises(ContractError, match="cannot be extended"):
            solve_problem(problem, SolveOptions())


class TestExtendDefaults:
    def test_annotated_defaults_to_error(self):
        assert SolveOptions().resolved_extend() == "error"

    def test_auto_modes_default_to_their_strategy(self):
        assert SolveOptions(select="max").resolved_extend() == "max"
        assert SolveOptions(select="neg",
                            extend_select="auto").resolved_extend() == "auto"
