"""The CDCL engine replays a matrix of solver runs exactly as recorded.

Every run records its verdict, reason, model, rule counts, learned clause
sizes, monitor violations, final clause set G and trace, so any change to
rule order, clause order, decide order or trace text shows up here.  The
matrix covers eager mode and the subterm order, which the worked-examples
golden does not.

Regenerate the golden file (only for a deliberate behaviour change):

    python3 tests/test_solver_golden.py
"""

import dataclasses
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trigsat.cdcl import Budget  # noqa: E402
from trigsat.corpus import corpus_ordering, schur_problem  # noqa: E402
from trigsat.ordering import OrderingSpec  # noqa: E402
from trigsat.parser import parse_problem  # noqa: E402
from trigsat.pipeline import (  # noqa: E402
    ContractError,
    SolveOptions,
    solve_problem,
)

GOLDEN = ROOT / "tests" / "golden" / "solver_runs.json"
BUDGET = Budget(max_instantiations=40)
MODES = ("lazy", "eager")
ORDERS = ("weight", "subterm")
# (--select, --extend-select); a strategy extended by itself is its default.
SELECTIONS = (
    ("annotated", None), ("annotated", "max"), ("annotated", "auto"),
    ("max", None), ("max", "auto"),
    ("neg", None), ("neg", "max"), ("neg", "auto"),
    ("maximal", None), ("maximal", "max"), ("maximal", "auto"),
)
CHAIN_THEORY = "*~p(f(X)) | p(X)\n"


def chain_problem(k: int, closed: bool):
    text = CHAIN_THEORY + "p(" + "f(" * k + "a" + ")" * k + ")\n"
    if closed:
        text += "~p(a)\n"
    return parse_problem(text)


def matrix():
    """(run id, problem factory, options) for every run of the matrix."""
    for path in sorted((ROOT / "problems").glob("*.p")):
        for mode in MODES:
            for order in ORDERS:
                for select, extend in SELECTIONS:
                    options = SolveOptions(
                        ordering=OrderingSpec(kind=order), select=select,
                        extend_select=extend, instantiate=mode,
                        budget=BUDGET)
                    run_id = (f"{path.name} {mode} {order} select={select} "
                              f"extend={extend}")
                    yield run_id, (lambda p=path: parse_problem(
                        p.read_text(encoding="utf-8"))), options
    for n in (4, 5, 6):
        for mode in MODES:
            options = SolveOptions(ordering=corpus_ordering("settheory"),
                                   instantiate=mode, budget=BUDGET)
            yield f"schur n={n} {mode}", (lambda n=n: schur_problem(n)), \
                options
    for k in (10, 30, 60):
        for closed in (False, True):
            for mode in MODES:
                options = SolveOptions(ordering=OrderingSpec(kind="subterm"),
                                       instantiate=mode, budget=BUDGET)
                run_id = f"chain k={k} closed={closed} {mode}"
                yield run_id, (lambda k=k, c=closed: chain_problem(k, c)), \
                    options


def record(problem_factory, options) -> dict:
    trace = []
    options = dataclasses.replace(options, trace=trace.append)
    try:
        result = solve_problem(problem_factory(), options)
    except ContractError as exc:
        return {"refused": str(exc)}
    out = {"verdict": result.verdict_line}
    run = result.run
    if run is None:
        return out
    stats = run.stats
    out.update({
        "reason": run.verdict.reason,
        "model": [str(lit) for lit in run.verdict.model],
        "counts": {key: getattr(stats, key) for key in (
            "decides", "propagates", "conflicts", "backjumps", "learns",
            "instantiations", "conflicts_above_level0")},
        "learned_sizes": list(stats.learned_sizes),
        "monitor_violations": list(stats.monitor_violations),
        "final_ground": [str(c) for c in run.final_ground],
        "trace": trace,
    })
    return out


RUNS = {run_id: (factory, options) for run_id, factory, options in matrix()}


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_matrix_matches_golden_run_ids():
    assert sorted(RUNS) == sorted(_golden())


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_solver_run_matches_golden(run_id):
    factory, options = RUNS[run_id]
    assert record(factory, options) == _golden()[run_id]


def main() -> int:
    golden = {run_id: record(factory, options)
              for run_id, (factory, options) in RUNS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True,
                                 ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(golden)} runs to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
