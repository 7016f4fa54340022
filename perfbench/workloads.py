"""The four workloads: their operations, inputs, oracles and probes.

An operation is one trigsat command line (solve, check-saturation or
verify-model), run in-process through `trigsat.cli.main`.  Its input files
are written before timing starts; its answer is the text the command
prints, which the oracle in `oracles.py` checks without importing trigsat.

Probes are operations that fail today through a known defect.  They run
once per benchmark run, outside the timed passes, and count only in
`error_rate` and `decided_share`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import oracles
from oracles import GroundClause

WORKLOADS = ("search", "chain", "saturate", "verify")

# Random 3-SAT shapes in `search`: (constants, clauses).  Each constant c
# gives the atoms p(c) and q(c), so 6 constants make 12 atoms.
RANDOM_SHAPES = ((6, 50), (6, 56), (6, 62), (6, 68))

CHAIN_THEORY = ("~p(X1, Y1) | *q(f(X1), Y1)",
                "~q(X2, Y2) | *p(X2, f(Y2))")
CHAIN_LENGTHS = (10, 20, 30)
SUBSUMPTION_CAP = 100
SETTHEORY_WEIGHTS = ["--weights", "distinct=3"]
PROBE_TIMEOUT = ["--timeout", "10"]

DECIDED = {"solve": ("sat", "unsat"),
           "check-saturation": ("saturated", "not-saturated"),
           "verify-model": ("ok", "falsified")}


@dataclass
class Answer:
    code: int
    out: str
    err: str

    @property
    def lines(self) -> list[str]:
        return self.out.splitlines()

    @property
    def first(self) -> str:
        return self.lines[0] if self.lines else ""


Check = Callable[[Answer], Optional[str]]
# Called once, on the untimed warm-up pass, with the answer and the
# values the tracer captured; returns an error message or None.
WarmupHook = Callable[[Answer, list], Optional[str]]


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Check
    seeded: bool = False
    warmup: Optional[WarmupHook] = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def decided(self, answer: Answer) -> bool:
        return answer.first in DECIDED[self.command]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    probes: list[Op]
    files: dict[Path, str] = field(default_factory=dict)


# -- problem text ------------------------------------------------------------


def _ground_lines(ground: list[GroundClause]) -> list[str]:
    return [oracles.format_clause(c) for c in ground]


def _text(theory: list[str], ground: list[GroundClause]) -> str:
    return "\n".join(list(theory) + _ground_lines(ground)) + "\n"


def _nest(k: int, name: str) -> str:
    return "f(" * k + name + ")" * k


def _schur_ground(n: int, colours: int) -> list[GroundClause]:
    ground: list[GroundClause] = [((f"number(n{i})", True),)
                                  for i in range(1, n + 1)]
    ground += [((f"triple(n{x},n{y},n{z})", True),)
               for x, y, z in oracles.schur_triples(n)]
    if colours == 2:
        ground += [((f"mem(n{i},c)", False),) for i in range(1, n + 1)]
    return ground


def _random_3sat(rng: random.Random, constants: int,
                 clauses: int) -> list[GroundClause]:
    atoms = [f"{p}(c{i})" for i in range(1, constants + 1) for p in "pq"]
    return [tuple((atom, rng.random() < 0.5)
                  for atom in rng.sample(atoms, 3))
            for _ in range(clauses)]


# -- oracles as checks -------------------------------------------------------


def _expect_code(answer: Answer, code: int) -> Optional[str]:
    if answer.code != code:
        return f"exit status {answer.code}, expected {code}"
    return None


def solve_check(expected: str, ground: list[GroundClause],
                model_check: Optional[Callable[[dict], Optional[str]]] = None
                ) -> Check:
    """Verdict against the oracle; a sat model must satisfy the ground part."""

    def check(answer: Answer) -> Optional[str]:
        bad = _expect_code(answer, 0)
        if bad:
            return bad
        if answer.first != expected:
            return f"answered {answer.first or 'nothing'}, oracle says {expected}"
        if expected != "sat":
            return None
        try:
            model = oracles.parse_model(answer.lines[1:])
        except ValueError as exc:
            return f"unreadable model: {exc}"
        falsified = oracles.falsified_clauses(model, ground)
        if falsified:
            return (f"model falsifies ground clause "
                    f"{oracles.format_clause(falsified[0])}")
        return model_check(model) if model_check else None

    return check


def line_check(expected: str) -> Check:
    def check(answer: Answer) -> Optional[str]:
        bad = _expect_code(answer, 0)
        if bad:
            return bad
        if answer.first != expected:
            return f"answered {answer.first or 'nothing'}, expected {expected}"
        return None

    return check


def verify_check(problem: str, model: Path, depth: int) -> Check:
    """`ok`, over exactly the closed-form number of ground instances."""

    def check(answer: Answer) -> Optional[str]:
        if answer.first != "ok":
            return f"answered {answer.first or 'nothing'}, expected ok"
        bad = _expect_code(answer, 0)
        if bad:
            return bad
        try:
            want = oracles.instance_count(problem.splitlines(),
                                          model.read_text().splitlines(), depth)
        except (ValueError, IndexError) as exc:
            return f"cannot count the instances: {exc!r}"
        m = re.search(r"checked (\d+) instances", answer.out)
        if m is None or int(m.group(1)) != want:
            return f"reported {m.group(0) if m else 'no count'}, expected {want}"
        return None

    return check


def saturation_recorded(outcome: str, clauses: int) -> WarmupHook:
    """The recorded outcome and clause count of the saturation stage."""

    def hook(answer: Answer, captures: list) -> Optional[str]:
        reports = [r for tag, _, r in captures if tag == "saturate"]
        if not reports:
            return None  # not observable from outside any more
        report = reports[-1]
        got = (getattr(report.outcome, "value", report.outcome),
               len(report.clauses))
        if got != (outcome, clauses):
            return (f"saturation ended {got[0]} with {got[1]} clauses, "
                    f"recorded {outcome} with {clauses}")
        return None

    return hook


# -- the workloads -----------------------------------------------------------


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return globals()[f"_{name}"](seed, root, work)


def _search(seed: int, root: Path, work: Path) -> Workload:
    settheory = (root / "corpora" / "settheory.p").read_text().splitlines()
    wl = Workload("search", [], [])

    def add(op_name: str, theory: list[str], ground: list[GroundClause],
            flags: list[str], check: Check, seeded: bool = False) -> None:
        path = work / f"{op_name}.p"
        wl.files[path] = _text(theory, ground)
        wl.ops.append(Op(op_name, ["solve", str(path), *flags,
                                   "--emit-model", "-"], check, seeded))

    eager = ["--instantiate", "eager"]
    for op_name, n, sets, flags in (
            ("schur-n4", 4, ("a", "b", "c"), []),
            ("twocolour-n4-eager", 4, ("a", "b"), eager),
            ("twocolour-n5-eager", 5, ("a", "b"), eager)):
        ground = _schur_ground(n, len(sets))
        expected = "sat" if oracles.colouring_exists(n, len(sets)) else "unsat"
        add(op_name, settheory, ground, SETTHEORY_WEIGHTS + flags,
            solve_check(expected, ground,
                        lambda m, n=n, sets=sets: oracles.colouring_error(
                            m, n, sets)))

    rng = random.Random(seed)
    for i, (constants, clauses) in enumerate(RANDOM_SHAPES, start=1):
        ground = _random_3sat(rng, constants, clauses)
        universe = [f"c{j}" for j in range(1, constants + 1)]
        theory_instances = [frozenset({(f"p({c})", False), (f"q({c})", True)})
                            for c in universe]
        sat = oracles.dpll([frozenset(c) for c in ground] + theory_instances)
        add(f"rand3sat-{i}", ["~p(X) | *q(X)"], ground,
            ["--precedence", "q>p"],
            solve_check("sat" if sat else "unsat", ground), seeded=True)
    return wl


def _chain_ground(k: int, unsat: bool) -> list[GroundClause]:
    ground: list[GroundClause] = [((f"p({_nest(k, 'a')},{_nest(k, 'b')})",
                                    False),)]
    if unsat:
        ground.append((("p(a,b)", True),))
    return ground


def _chain(seed: int, root: Path, work: Path) -> Workload:
    wl = Workload("chain", [], [])
    cases = [(k, unsat, False) for k in CHAIN_LENGTHS for unsat in (False, True)]
    cases += [(400, False, True), (1000, False, True)]
    for k, unsat, probe in cases:
        op_name = f"chain-k{k}-{'unsat' if unsat else 'sat'}"
        path = work / f"{op_name}.p"
        ground = _chain_ground(k, unsat)
        wl.files[path] = _text(list(CHAIN_THEORY), ground)
        flags = ["--order", "subterm"] + (PROBE_TIMEOUT if probe else [])
        op = Op(op_name, ["solve", str(path), *flags, "--emit-model", "-"],
                solve_check("unsat" if unsat else "sat", ground))
        (wl.probes if probe else wl.ops).append(op)
    return wl


def _saturate(seed: int, root: Path, work: Path) -> Workload:
    corpora = root / "corpora"
    closure = work / "settheory-closure.p"

    def write_closure(answer: Answer, captures: list) -> Optional[str]:
        reports = [r for tag, _, r in captures if tag == "saturate"]
        if not reports:
            return "saturation report not observable; no closure to check"
        from trigsat.parser import format_clause

        report = reports[-1]
        closure.write_text("".join(
            format_clause(c, report.selection.get(c.cid)) + "\n"
            for c in report.clauses))
        return saturation_recorded("saturated", 118)(answer, captures)

    ops = [
        Op("saturate-settheory-maximal",
           ["solve", str(corpora / "settheory.p"), "--select", "maximal",
            *SETTHEORY_WEIGHTS],
           line_check("sat"), warmup=write_closure),
        Op(f"saturate-subsumption-cap{SUBSUMPTION_CAP}",
           ["solve", str(corpora / "subsumption.p"), "--select", "maximal",
            "--max-clauses", str(SUBSUMPTION_CAP), "--allow-unsaturated"],
           line_check("sat"), warmup=saturation_recorded("budget", 127)),
        Op("check-settheory-closure",
           ["check-saturation", str(closure), *SETTHEORY_WEIGHTS],
           line_check("saturated")),
        Op("check-settheory",
           ["check-saturation", str(corpora / "settheory.p"),
            *SETTHEORY_WEIGHTS],
           line_check("saturated")),
        Op("check-subsumption",
           ["check-saturation", str(corpora / "subsumption.p")],
           line_check("saturated")),
    ]
    return Workload("saturate", ops, [])


def _verify(seed: int, root: Path, work: Path) -> Workload:
    wl = Workload("verify", [], [])
    problems = root / "problems"
    chain5 = work / "chain-k5.p"
    ground = _chain_ground(5, False)
    wl.files[chain5] = _text(list(CHAIN_THEORY), ground)

    def solve_and_verify(name: str, path: Path, ground: list[GroundClause],
                         depths: tuple[int, ...], flags: list[str]) -> Path:
        model = work / f"{name}.model"

        def keep_model(answer: Answer, captures: list) -> Optional[str]:
            model.write_text("\n".join(answer.lines[1:]) + "\n")
            return None

        wl.ops.append(Op(f"solve-{name}",
                         ["solve", str(path), *flags, "--emit-model", "-"],
                         solve_check("sat", ground), warmup=keep_model))
        problem = wl.files.get(path) or path.read_text()
        for d in depths:
            wl.ops.append(Op(f"verify-{name}-d{d}",
                             ["verify-model", str(path), *flags, "--model",
                              str(model), "--verify-depth", str(d)],
                             verify_check(problem, model, d)))
        return model

    model = solve_and_verify("chain-k5", chain5, ground, (1, 2), [])
    solve_and_verify("ex1", problems / "ex1.p", [(("g(a,b)", True),)],
                     (1, 2, 3, 4), [])
    solve_and_verify("goodsel-trig1", problems / "goodsel_trig1.p",
                     [(("p(f(a),f(b))", False),)], (1, 2), [])
    repair = problems / "goodsel_trig2_repair.p"
    repair_flags = ["--extend-select", "max"]
    repair_model = solve_and_verify("goodsel-trig2-repair", repair,
                                    [(("p(a,b)", True),)], (), repair_flags)
    wl.probes = [
        Op("verify-chain-k5-subterm",
           ["verify-model", str(chain5), "--order", "subterm", "--model",
            str(model), "--verify-depth", "1"],
           verify_check(wl.files[chain5], model, 1)),
        Op("verify-goodsel-trig2-repair-d1",
           ["verify-model", str(repair), *repair_flags, "--model",
            str(repair_model), "--verify-depth", "1"],
           verify_check(repair.read_text(), repair_model, 1)),
    ]
    return wl


def fingerprint(captures: list[tuple[str, Any, Any]]) -> dict[str, Any]:
    """Rule counts, saturation counts and final |G| of one operation."""
    out: dict[str, Any] = {}
    for tag, _, result in captures:
        if tag == "run":
            stats = result.stats
            out["verdict"] = result.verdict.kind
            for key in ("decides", "propagates", "conflicts", "backjumps",
                        "learns", "instantiations"):
                out[key] = getattr(stats, key)
            out["monitor_violations"] = len(stats.monitor_violations)
            out["ground_clauses"] = len(result.final_ground)
        elif tag in ("saturate", "check"):
            out[f"{tag}.outcome"] = getattr(result.outcome, "value",
                                            str(result.outcome))
            out[f"{tag}.clauses"] = len(result.clauses)
            for key, value in sorted(result.counts.items()):
                out[f"{tag}.{key}"] = value
        elif tag == "verify":
            out["verify.checked"] = result.checked
            out["verify.falsified"] = len(result.falsified)
    return out
