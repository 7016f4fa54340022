"""The benchmark's own checks: repeatable counts and sound oracles.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def warm_counts(name: str, seed: int) -> dict:
    bench = run.Run(name, seed)
    bench.warm_up()
    assert bench.tally.failed == 0, bench.tally.errors
    return bench.counts


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(name, seed):
    first = warm_counts(name, seed)
    assert first and all(first.values())
    assert warm_counts(name, seed) == first


def test_only_seeded_operations_depend_on_the_seed(tmp_path):
    a = workloads.build("search", 3, run.ROOT, tmp_path)
    b = workloads.build("search", 11, run.ROOT, tmp_path)
    for op_a, op_b in zip(a.ops, b.ops):
        same = a.files[Path(op_a.argv[1])] == b.files[Path(op_b.argv[1])]
        assert same != op_a.seeded, op_a.name


def test_colouring_oracle_matches_known_schur_numbers():
    # S(2) = 4 and S(3) = 13: 1..4 two-colours, 1..5 does not.
    assert oracles.colouring_exists(4, 2)
    assert not oracles.colouring_exists(5, 2)
    assert oracles.colouring_exists(8, 3)


def test_colouring_error_reports_monochromatic_triple():
    model = {"mem(n1,a)": True, "mem(n2,a)": True}
    assert "triple (1, 1, 2)" in oracles.colouring_error(model, 2, ("a", "b"))
    model = {"mem(n1,a)": True, "mem(n2,b)": True}
    assert oracles.colouring_error(model, 2, ("a", "b")) is None


def test_dpll_on_tiny_formulas():
    p, q = ("p", True), ("q", True)
    np_, nq = ("p", False), ("q", False)
    assert oracles.dpll([frozenset({p, q}), frozenset({np_})])
    assert not oracles.dpll([frozenset({p}), frozenset({np_, q}),
                             frozenset({nq})])


def test_instance_count_by_hand():
    # Universe {a, b, f(a), f(b)} at depth 1; two two-variable clauses
    # and one ground clause: 2 * 4**2 + 1.
    problem = ["~p(X1, Y1) | *q(f(X1), Y1)", "~q(X2, Y2) | *p(X2, f(Y2))",
               "~p(f(a), f(b))"]
    assert oracles.instance_count(problem, [], 1) == 33
    assert oracles.instance_count(problem, [], 2) == 2 * 6 ** 2 + 1


def test_a_sat_model_must_satisfy_the_ground_part():
    check = workloads.solve_check("sat", [(("p(a)", True),)])
    assert check(workloads.Answer(0, "sat\np(a)\n", "")) is None
    assert "falsifies" in check(workloads.Answer(0, "sat\n~p(a)\n", ""))
    assert "oracle says sat" in check(workloads.Answer(0, "unsat\n", ""))
