#!/usr/bin/env python3
"""Measure instantiation counts and wall time on growing ground chains.

The two-clause p/q theory walks one chain step per instantiation, so the
count should stay linear in the chain length k (comfortably inside the
quadratic envelope the Horn/2SAT complexity argument promises).  Every
clause is Horn and has two literals, so every run checks both claims
with the solver's Horn and 2SAT monitors, which are on for inputs in
their fragment; a violation lands in `RunStats.monitor_violations`.  The
run column is the CDCL run's own seconds (`RunStats.wall_time`, the time
`--timeout` bounds); the seconds column is the wall time of the whole
solve of one parsed chain: selection, saturation and the run.  The
matches column counts the run's `match_literal` calls, which the script
wraps in `trigsat.cdcl`; a run that matches each pattern once per new
instance makes about two per instantiation.

Usage: python3 scripts/chain_growth.py [max_k] [--ks K,K,...]

Without --ks it runs k = 1 .. max_k (default 10); with --ks, only the
listed lengths, e.g. --ks 10,50,100,200.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import trigsat.cdcl
from trigsat.ordering import OrderingSpec
from trigsat.parser import parse_problem
from trigsat.pipeline import SolveOptions, solve_problem

THEORY = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
          "~q(X2, Y2) | *p(X2, f(Y2))\n")


def chain_problem(k: int):
    s = "f(" * k + "a" + ")" * k
    t = "f(" * k + "b" + ")" * k
    return parse_problem(THEORY + f"~p({s}, {t})\n")


def main() -> int:
    parser = argparse.ArgumentParser(prog="chain_growth.py")
    parser.add_argument("max_k", nargs="?", type=int, default=10)
    parser.add_argument("--ks", help="comma-separated chain lengths")
    args = parser.parse_args()
    ks = ([int(k) for k in args.ks.split(",")] if args.ks
          else range(1, args.max_k + 1))
    options = SolveOptions(ordering=OrderingSpec(kind="subterm"))
    match_literal = trigsat.cdcl.match_literal
    matches = 0

    def counting(*args):
        nonlocal matches
        matches += 1
        return match_literal(*args)

    trigsat.cdcl.match_literal = counting
    print(f"{'k':>4} {'instantiations':>15} {'propagations':>13} "
          f"{'decides':>8} {'matches':>8} {'verdict':>8} {'run':>8} "
          f"{'seconds':>8}")
    for k in ks:
        matches = 0
        start = time.perf_counter()
        result = solve_problem(chain_problem(k), options)
        seconds = time.perf_counter() - start
        stats = result.run.stats
        print(f"{k:>4} {stats.instantiations:>15} {stats.propagates:>13} "
              f"{stats.decides:>8} {matches:>8} {result.verdict_line:>8} "
              f"{stats.wall_time:>8.2f} {seconds:>8.2f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
