#!/usr/bin/env python3
"""Distribute 1..n over three sets with no additive triple in one set.

Builds the set-theory fixture plus number/triple facts and solves it,
cross-checking the verdict against an exhaustive three-coloring search
for n <= 10.  With several n it solves each in turn and prints one line
per n; with one, it also prints the sets of a sat answer.

Usage: python3 scripts/triple_sum.py [n ...]    (default: 4)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trigsat.corpus import corpus_ordering, schur_problem, schur_triples
from trigsat.pipeline import SolveOptions, solve_problem


def brute_force(n: int) -> bool:
    import itertools

    triples = schur_triples(n)
    for colors in itertools.product(range(3), repeat=n):
        if all(len({colors[x - 1], colors[y - 1], colors[z - 1]}) > 1
               for x, y, z in triples):
            return True
    return False


def solve(n: int, show_sets: bool) -> None:
    problem = schur_problem(n)
    options = SolveOptions(ordering=corpus_ordering("settheory"))
    started = time.monotonic()
    result = solve_problem(problem, options)
    elapsed = time.monotonic() - started
    stats = result.run.stats
    line = (f"n={n}: {result.verdict_line} in {elapsed:.2f}s "
            f"(instantiations={stats.instantiations}, "
            f"conflicts={stats.conflicts}, decides={stats.decides})")
    if n <= 10:
        expected = "sat" if brute_force(n) else "unsat"
        agree = "agree" if result.verdict_line == expected else "DISAGREE"
        line += f"; three-coloring oracle: {expected} -> {agree}"
    print(line)
    if show_sets and result.verdict_line == "sat":
        members = sorted(str(l) for l in result.model
                         if l.positive and l.atom.pred == "mem"
                         and str(l.atom.args[1]) in ("a", "b", "c"))
        for m in members:
            print(" ", m)


def main() -> int:
    ns = [int(arg) for arg in sys.argv[1:]] or [4]
    for n in ns:
        solve(n, show_sets=len(ns) == 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
