"""End-to-end solving: selection setup, saturation preprocessing, CDCL run.

A `sat` answer is only certified when the non-ground clauses are saturated
under a valid selection, so `solve_problem` saturates first and refuses to
continue otherwise unless explicitly allowed.  Saturating an annotated
problem may derive new clauses; how those get a selection is controlled by
`extend_select` (`error` refuses, which keeps annotated trigger choices
honest).  `verify_model` goes through the same preparation, so the
candidate model it builds comes from the theory the certificate is about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .cdcl import Budget, RunResult, Solver
from .models import (
    Interpretation,
    VerifyReport,
    combine,
    filtered_ground_instances,
    produce_model,
    verify_no_falsified,
)
from .ordering import OrderingSpec
from .parser import Problem
from .saturation import (
    SaturationOutcome,
    SaturationReport,
    check_saturated,
    saturate,
)
from .selection import (
    CheckedSelection,
    SelectionError,
    ValidationResult,
    auto_select,
    check_selection,
)
from .terms import Clause, Literal


class ContractError(Exception):
    """Precondition violations that map to exit status 2."""


@dataclass(frozen=True)
class SolveOptions:
    ordering: OrderingSpec = OrderingSpec()
    select: str = "annotated"  # annotated | max | maximal | neg
    extend_select: Optional[str] = None  # default: error for annotated,
    # otherwise the active auto strategy
    instantiate: str = "lazy"
    allow_unsaturated: bool = False
    budget: Budget = Budget()
    trace: bool = False

    def resolved_extend(self) -> str:
        if self.extend_select is not None:
            return self.extend_select
        return "error" if self.select == "annotated" else self.select


@dataclass
class SolveResult:
    verdict_line: str  # "sat" | "unsat" | "unknown"
    run: Optional[RunResult] = None
    saturation: Optional[SaturationReport] = None
    warnings: list[str] = field(default_factory=list)
    theory: list[Clause] = field(default_factory=list)
    selection: dict[int, frozenset[int]] = field(default_factory=dict)

    @property
    def model(self) -> tuple[Literal, ...]:
        return self.run.verdict.model if self.run else ()


def clause_selection(problem: Problem, options: SolveOptions, c: Clause
                     ) -> tuple[frozenset[int], ValidationResult]:
    """Pick c's selection (its annotation or the --select strategy) and
    validate it; every failure comes back as an invalid result."""
    o = options.ordering
    if options.select != "annotated":
        try:
            sel = auto_select(c, o, options.select)
        except SelectionError as exc:
            return frozenset(), ValidationResult(False, None, str(exc))
    elif c.cid in problem.selection:
        sel = problem.selection[c.cid]
    else:
        return frozenset(), ValidationResult(
            False, None, "clause has no selection annotation (use --select "
                         "to pick an automatic strategy)")
    return sel, check_selection(c, sel, o)


def build_selection(problem: Problem,
                    options: SolveOptions) -> CheckedSelection:
    """Selection for every theory clause, validated under the ordering."""
    out = CheckedSelection()
    for c in problem.theory:
        out[c.cid], result = clause_selection(problem, options, c)
        if not result:
            raise ContractError(
                f"selection not valid for clause '{c}': {result.describe()}")
    return out


def prepare_theory(problem: Problem, options: SolveOptions,
                   deadline: float) -> SaturationReport:
    """Selection, saturation until `deadline` and the budget gate.

    Both a sat certificate and a candidate model rest on the saturated
    theory under its selection, so `solve` and `verify-model` share this.
    """
    selection = build_selection(problem, options)
    try:
        report = saturate(problem.theory, selection, options.ordering,
                          budget=options.budget,
                          extend=options.resolved_extend(),
                          deadline=deadline)
    except SelectionError as exc:
        raise ContractError(
            f"theory not saturated: saturation derived a clause the "
            f"selection cannot be extended to ({exc})") from exc
    if (report.outcome is SaturationOutcome.BUDGET_EXCEEDED
            and not options.allow_unsaturated):
        raise ContractError(
            "theory not saturated: saturation budget exceeded; a sat "
            "answer would be uncertified (pass --allow-unsaturated to "
            "run anyway)")
    return report


def solve_problem(problem: Problem, options: SolveOptions) -> SolveResult:
    deadline = time.monotonic() + options.budget.timeout
    report = prepare_theory(problem, options, deadline)
    result = SolveResult("unknown", saturation=report)
    if report.outcome is SaturationOutcome.DERIVED_BOTTOM:
        # The theory alone is contradictory; no ground part can rescue it.
        result.verdict_line = "unsat"
        return result
    if report.outcome is SaturationOutcome.BUDGET_EXCEEDED:
        result.warnings.append(
            "running on an unsaturated theory: sat answers are not certified")
    theory = [c for c in report.clauses if not c.is_ground]
    derived_ground = [c for c in report.clauses if c.is_ground and not c.is_empty]
    result.theory = theory
    result.selection = report.selection
    solver = Solver(
        ground=list(problem.ground) + derived_ground,
        theory=theory,
        selection=report.selection,
        ordering=options.ordering,
        instantiate_mode=options.instantiate,
        budget=options.budget,
        deadline=deadline,
        trace=options.trace,
    )
    run = solver.run()
    result.warnings.extend(run.stats.monitor_violations)
    result.run = run
    result.verdict_line = run.verdict.kind
    return result


@dataclass
class VerifyOutcome:
    report: VerifyReport
    constructed: Interpretation
    combined: Interpretation


def verify_model(problem: Problem, model_literals: list[Literal],
                 options: SolveOptions, depth: int) -> VerifyOutcome:
    """Desk-scale check that a ground model extends to the full theory.

    Saturates as `solve` does, builds the candidate interpretation over the
    depth-bounded filtered grounding of the saturated non-ground clauses
    under their selection, combines it with the given ground model, and
    reports any instance of the input theory the combination falsifies.
    """
    saturation = prepare_theory(
        problem, options, time.monotonic() + options.budget.timeout)
    if saturation.outcome is SaturationOutcome.DERIVED_BOTTOM:
        raise ContractError("theory unsatisfiable: saturation derived the "
                            "empty clause, so no model can be verified")
    ground_model = Interpretation(model_literals)
    # Input clauses first, in file order, then derived ones: duplicate
    # ground instances keep the selection of the first clause grounded.
    theory = sorted((c for c in saturation.clauses if not c.is_ground),
                    key=lambda c: c.cid)
    entries = [(c, saturation.selection[c.cid]) for c in theory]
    filtered = filtered_ground_instances(entries, ground_model,
                                         problem.signature, depth)
    constructed, _records = produce_model(filtered, options.ordering)
    combined = combine(constructed, ground_model)
    report = verify_no_falsified(combined, problem.theory, problem.ground,
                                 problem.signature, depth)
    return VerifyOutcome(report, constructed, combined)


def check_problem_saturated(problem: Problem,
                            options: SolveOptions) -> SaturationReport:
    selection = build_selection(problem, options)
    return check_saturated(problem.theory, selection, options.ordering)
