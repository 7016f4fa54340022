#!/usr/bin/env python3
"""Apply each standing mutant to a copy of the code and check that its
tests kill it.

Each entry of `MUTANTS` names a file, an exact snippet of that file, the
snippet's replacement and the ids of the tests that must fail once it is
applied.  For one mutant at a time the script copies src/ and tests/ to a
temporary directory (problems/ and corpora/ are linked, not copied),
applies the replacement there, runs `pytest -x -q` on the mutant's tests
and prints killed or survived with the seconds the run took.  Pytest runs
with the `mutants` hypothesis profile of tests/conftest.py, which skips
shrinking: a failing example is enough.

A snippet that does not occur exactly once in its file, or a test id that
names no test, is a table error, not a skip: the table must move with the
code.  `tests/test_mutants.py` checks the table in the tier-1 suite.

Usage: python3 scripts/mutants.py [NAME ...]

With names, only those mutants run.  Exit status 0 when every mutant run
is killed, 1 when one survives, 2 on a table error or a pytest run that
ends in neither passing nor failing tests (a mutant that breaks collection,
say).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the checkout
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the checkout


class TableError(Exception):
    pass


ORDER_LAWS = "tests/test_ordering.py::TestOrderLaws::test_strict_partial_order"
CUTS_AND_REPUSHES = ("tests/test_cdcl.py::TestCandidateListsAgainstReference"
                     "::test_same_first_instance_after_cuts_and_repushes")
WHOLE_RUNS = ("tests/test_cdcl.py::TestWholeRunsAgainstReference"
              "::test_same_run_as_reference")
MONITORS = "tests/test_cdcl.py::TestMonitorsFire::"
PENDING = ("tests/test_cdcl.py::TestPendingAgainstScan"
           "::test_same_first_clauses_as_a_scan")
RESOLVENTS = ("tests/test_saturation.py::TestOnePassConclusions"
              "::test_resolvents_match_reference")


def _silenced(monitor: str, test: str) -> Mutant:
    """The `_Monitors` check named `monitor` notes nothing; the rule it
    sits in still counts and writes its trace line."""
    return Mutant(f"{monitor}-monitor-silenced", "src/trigsat/cdcl.py",
                  f'self._note(f"{monitor} monitor:',
                  f'str(f"{monitor} monitor:', (MONITORS + test,))


def _keeps_step_count(rule: str, snippet: str) -> Mutant:
    """`_Monitors.{rule}` does not reset the step count; `snippet` is the
    reset with a neighbouring line, so that it occurs once."""
    return Mutant(f"{rule}-keeps-the-step-count", "src/trigsat/cdcl.py",
                  snippet, snippet.replace("        self._steps = 0\n", ""),
                  (MONITORS
                   + "test_step_count_resets_on_instantiate_and_learn",))


MUTANTS = [
    Mutant(
        "subterm-ground-tie", "src/trigsat/ordering.py",
        """\
    if a.arity != b.arity:
        return Comparison.INCOMPARABLE
    if a.args == b.args:  # terms are interned: this compares identities
        if a.pred == b.pred:
            raise AssertionError("distinct atoms with identical arguments")
        return o.compare_symbols(a.pred, b.pred)
    if all(is_subterm(s, t) for s, t in zip(a.args, b.args)):
        return Comparison.LT
    if all(is_subterm(t, s) for s, t in zip(a.args, b.args)):
        return Comparison.GT
    return Comparison.INCOMPARABLE
""",
        """\
    if a.arity == b.arity:
        if a.args == b.args:
            if a.pred == b.pred:
                raise AssertionError("distinct atoms with identical arguments")
            return o.compare_symbols(a.pred, b.pred)
        if all(is_subterm(s, t) for s, t in zip(a.args, b.args)):
            return Comparison.LT
        if all(is_subterm(t, s) for s, t in zip(a.args, b.args)):
            return Comparison.GT
    if a.ground and b.ground and (sum(term_weight(o, t) for t in a.args)
                                  == sum(term_weight(o, t) for t in b.args)):
        return o.compare_symbols(a.pred, b.pred)
    return Comparison.INCOMPARABLE
""",
        (ORDER_LAWS,)),
    Mutant(
        "candidate-stamps-reused-after-a-cut", "src/trigsat/cdcl.py",
        """\
        for e in trail.entries[self._taken:]:
            self.newest += 1
""",
        """\
        for self.newest, e in enumerate(trail.entries[self._taken:],
                                        self._taken + 1):
""",
        (CUTS_AND_REPUSHES,)),
    Mutant(
        "memo-read-without-its-stamp", "src/trigsat/cdcl.py",
        "                    if memo.get(longer, -1) >= ends[len(longer)]:\n",
        "                    if longer in memo:\n",
        (CUTS_AND_REPUSHES,)),
    Mutant(
        "cut-leaves-literals-in-candidate-lists", "src/trigsat/cdcl.py",
        """\
            while lst and not trail.defines(lst[-1][1].atom):
                lst.pop()
""",
        "            pass\n",
        (CUTS_AND_REPUSHES,)),
    Mutant(
        "pass-takes-the-last-unit-clause", "src/trigsat/cdcl.py",
        "        free, i = top\n",
        """\
        free, i = top
        if free:  # the largest unit index, not the least
            pending = self._pending
            i = max(j for f, j in pending.heap
                    if f and not pending.true[j] and pending.nonfalse[j] == 1)
""",
        (WHOLE_RUNS,)),
    Mutant(
        "pass-skips-learned-clauses-in-its-conflict-test",
        "src/trigsat/cdcl.py",
        "        top = self._pending.first()\n",
        """\
        pending = self._pending
        top = pending.first()
        while (top is not None and not top[0]
               and self.ground[top[1]].origin == "learned"):
            pending.queued.discard(heapq.heappop(pending.heap))
            top = pending.first()
""",
        (WHOLE_RUNS,)),
    Mutant(
        "cut-forgets-to-requeue-a-unit-clause", "src/trigsat/cdcl.py",
        """\
                nonfalse[i] -= sign
                if nonfalse[i] < 2:
""",
        """\
                nonfalse[i] -= sign
                if nonfalse[i] < 2 and sign > 0:
""",
        (PENDING,)),
    Mutant(
        "unit-heap-not-keyed-by-g-index", "src/trigsat/cdcl.py",
        "            heapq.heappush(self.heap, key)\n",
        """\
            if key[0]:  # units in the order they became units
                self.heap.append(key)
            else:
                heapq.heappush(self.heap, key)
""",
        (PENDING,)),
    Mutant(
        "clause-added-without-its-counts", "src/trigsat/cdcl.py",
        """\
        self.true.append(values.count(True))
        self.nonfalse.append(len(values) - values.count(False))
""",
        """\
        self.true.append(0)
        self.nonfalse.append(len(values))
""",
        (PENDING,)),
    Mutant(
        "cut-keeps-the-last-cut-entrys-counts", "src/trigsat/cdcl.py",
        """\
        for e in cut:
            self._pending.count(e, -1)
""",
        """\
        for e in cut[:-1]:
            self._pending.count(e, -1)
""",
        (PENDING,)),
    Mutant(
        "truncate-keeps-the-last-cut-atom", "src/trigsat/cdcl.py",
        """\
        for e in cut:
            del self._at[e.literal.atom]
""",
        """\
        for e in cut[:-1]:
            del self._at[e.literal.atom]
""",
        (WHOLE_RUNS,)),
    Mutant(
        "image-variables-mapped-again", "src/trigsat/terms.py",
        "                    theta[t] = _rewrite(image, names.get)\n",
        """\
                    theta[t] = _rewrite(_rewrite(
                        image, lambda u: sigma.get(rho.get(u, u),
                                                   rho.get(u, u))),
                        names.get)
""",
        (RESOLVENTS,)),
    Mutant(
        "set-comparison-despite-a-repeated-literal", "src/trigsat/ordering.py",
        "    s1, s2 = c1.distinct, c2.distinct\n",
        "    s1, s2 = frozenset(c1.literals), frozenset(c2.literals)\n",
        ("tests/test_ordering.py::TestCompareClauses"
         "::test_matches_reference_with_repeated_literals",)),
    Mutant(
        "invalid-selection-saturated-anyway", "src/trigsat/saturation.py",
        """\
        if not result:
            raise InvalidSelectionError(
""",
        """\
        if False:
            raise InvalidSelectionError(
""",
        ("tests/test_saturation.py::TestSaturate"
         "::test_invalid_selection_rejected_before_inference",)),
    Mutant(
        "auto-cascade-skips-maximal", "src/trigsat/selection.py",
        """        for cascaded in ("max", "maximal", "neg"):\n""",
        """        for cascaded in ("max", "neg"):\n""",
        ("tests/test_selection.py::TestExtendSelection"
         "::test_auto_takes_maximal_without_a_maximum",)),
    Mutant(
        "resolve-does-not-rename-apart", "src/trigsat/saturation.py",
        "    shared = c2.variables & c1.variables\n",
        "    shared = frozenset()\n",
        (RESOLVENTS,)),
    Mutant(
        "backjump-never-applicable", "src/trigsat/cdcl.py",
        "    def backjump_applicable(self) -> bool:\n",
        "    def backjump_applicable(self) -> bool:\n        return False\n",
        ("tests/test_cdcl.py::TestBackjumpLearn::"
         "test_backjump_applies_when_two_literals_share_the_conflict_level",)),
    Mutant(
        "backjump-always-applicable", "src/trigsat/cdcl.py",
        "    def backjump_applicable(self) -> bool:\n",
        "    def backjump_applicable(self) -> bool:\n        return True\n",
        ("tests/test_cdcl.py::TestBackjumpLearn::"
         "test_backjump_resolves_with_reason",)),
    _silenced("horn", "test_horn_conflict_above_level_zero"),
    _silenced("conflict-level", "test_conflict_level"),
    Mutant(
        "conflict-level-monitor-compares-the-newest-level-with-itself",
        "src/trigsat/cdcl.py",
        "            if levels[0] != levels[1]:\n",
        "            if levels[0] != levels[0]:\n",
        (MONITORS + "test_conflict_level",)),
    _silenced("unit-conflict", "test_unit_conflict"),
    _silenced("propagation-level", "test_propagation_level"),
    _silenced("step-count",
              "test_step_count_resets_on_instantiate_and_learn"),
    _silenced("backjump-count", "test_backjump_count_resets_on_conflict"),
    _silenced("level-zero", "test_level_zero_learned_clause"),
    _silenced("2sat", "test_twosat_learned_clause_of_two_literals"),
    _keeps_step_count("learn", """\
        self._steps = 0
        self._write("learn {} level={}", c, rewound_to)
"""),
    _keeps_step_count("instantiate", """\
        self.stats.instantiations += 1
        self._steps = 0
"""),
    Mutant(
        "fragment-detection-off", "src/trigsat/cdcl.py",
        """\
        self.horn = all(sum(l.positive for l in c.literals) <= 1
                        for c in clauses)
        self.twosat = all(len(c) <= 2 for c in clauses)
""",
        "        self.horn = self.twosat = False\n",
        (MONITORS + "test_fragment_of_the_input_switches_horn_and_twosat",)),
]


def mutated(m: Mutant, root: Path = ROOT) -> str:
    """The text of m's file under `root` with the mutant applied.  Raises
    TableError unless the snippet occurs exactly once and each test id
    names a class or function of an existing test file."""
    text = (root / m.file).read_text()
    count = text.count(m.snippet)
    if count != 1:
        raise TableError(f"{m.name}: snippet occurs {count} times "
                         f"in {m.file}, not once")
    for test in m.tests:
        path, *names = test.split("::")
        if not (root / path).is_file():
            raise TableError(f"{m.name}: no test file {path}")
        source = (root / path).read_text()
        for name in names:
            if f"class {name}" not in source and f"def {name}(" not in source:
                raise TableError(f"{m.name}: {path} has no {name}")
    return text.replace(m.snippet, m.replacement)


def run(m: Mutant, root: Path = ROOT) -> tuple[str, float]:
    """(the id of the test that failed, or "" if none did, seconds) for m,
    run in a temporary copy of `root`."""
    text = mutated(m, root)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(root / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("problems", "corpora"):
            (copy / name).symlink_to(root / name)
        (copy / m.file).write_text(text)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--hypothesis-profile=mutants", *m.tests],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(copy / "src")})
        seconds = time.monotonic() - start
    if proc.returncode not in (0, 1):
        raise TableError(f"{m.name}: pytest exited {proc.returncode}\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return (failed[0] if failed else "?") if proc.returncode else "", seconds


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    try:
        if unknown:
            raise TableError(f"no mutant named {', '.join(sorted(unknown))}")
        for m in chosen:  # the whole table, before any run
            mutated(m)
        survived = 0
        start = time.monotonic()
        for m in chosen:
            killer, seconds = run(m)
            survived += not killer
            print(f"{'killed' if killer else 'SURVIVED':9}{seconds:7.1f} s  "
                  f"{m.name}" + (f"  by {killer}" if killer else ""),
                  flush=True)
    except TableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"{len(chosen) - survived} of {len(chosen)} killed in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
