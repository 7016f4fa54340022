#!/usr/bin/env python3
"""Replay the bundled worked examples and print their traces, each line
indented, as the runs make them.

Usage: python3 scripts/run_worked_examples.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trigsat.cdcl import Budget
from trigsat.ordering import OrderingSpec
from trigsat.parser import parse_problem
from trigsat.pipeline import ContractError, SolveOptions, solve_problem

ROOT = Path(__file__).resolve().parent.parent


def indented(line: str) -> None:
    print(f"  {line}")


RUNS = [
    ("problems/ex1.p", SolveOptions(trace=indented)),
    ("problems/goodsel_trig1.p", SolveOptions(trace=indented)),
    ("problems/goodsel_trig2_unsat_trap.p", SolveOptions(trace=indented)),
    ("problems/goodsel_trig2_repair.p",
     SolveOptions(trace=indented, extend_select="max")),
    ("problems/countersel.p",
     SolveOptions(trace=indented, extend_select="auto",
                  ordering=OrderingSpec(kind="weight",
                                        precedence=("r", "q", "p"),
                                        precedence_dominant=True))),
    ("problems/allneg_divergent.p",
     SolveOptions(trace=indented, budget=Budget(max_instantiations=12))),
]


def main() -> int:
    for path, options in RUNS:
        print(f"=== {path} ===")
        problem = parse_problem((ROOT / path).read_text())
        try:
            result = solve_problem(problem, options)
        except ContractError as exc:
            print(f"refused: {exc}")
            print()
            continue
        print(f"verdict: {result.verdict_line}")
        if result.verdict_line == "sat":
            print("model:", ", ".join(str(l) for l in result.model) or "{}")
        elif result.verdict_line == "unknown":
            print("reason:", result.run.verdict.reason)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
