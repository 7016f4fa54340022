#!/usr/bin/env python3
"""trigsat benchmark: time to verdict on four workloads, checked by oracles.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run builds the workload's inputs from the seed and runs every
operation once untimed (warm-up: answers checked, rule counts recorded).
With --trace 0 it then repeats passes over the operations in fresh worker
processes until --seconds are spent and reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes in-process and
reports the per-layer metrics.  The last line of stdout is one JSON
object; the lines before it are for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import tracing
import workloads
from workloads import Answer, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
COUNTS_FILE = HERE / "baseline_counts.json"
SETUP_SAMPLES = 5
# Timed passes run in this many fresh processes, one after another.  The
# same passes differ by several percent from one process to the next, so
# one run averages over a few of them.
WORKERS = 4


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-counts", action="store_true",
                   help="store this run's rule counts as the baseline")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- running one operation ---------------------------------------------------


def execute(op: Op) -> Answer:
    """The command line, in-process, with its output captured."""
    import trigsat.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = trigsat.cli.main(list(op.argv))
    return Answer(code, out.getvalue(), err.getvalue())


class Tally:
    """Attempts, failures and undecided answers, per operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.undecided: set[str] = set()

    def record(self, op: Op, answer: Optional[Answer],
               error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.setdefault(op.name, error)
        if answer is None or not op.decided(answer):
            self.undecided.add(op.name)


REFERENCE_S = 0.007  # the reference loop takes about this on a quiet core


@dataclass(frozen=True)
class _Term:
    fn: str
    args: tuple = ()


def reference_loop() -> float:
    """Fixed pure-Python work of the solver's kind, timed: tuples hashed
    into a small dict, and nested frozen dataclasses built and hashed."""
    start = perf_counter()
    table = {}
    for i in range(10000):
        key = (i, (i & 7, "x"), i * 3)
        table[i & 1023] = hash(key) ^ i
    terms = {}
    for _ in range(30):
        t = _Term("a")
        for depth in range(25):
            t = _Term("f", (t, _Term("b" if depth & 1 else "c")))
            terms[t] = depth
        terms.clear()
    return perf_counter() - start


class Clock:
    """Wall time, and wall time scaled to a fixed speed of the machine.

    A shared host can slow a process down by half for seconds at a time.
    The reference loop runs before and after every timed interval; the
    scaled time is the wall time times REFERENCE_S over the mean of the
    two reference times: what the interval would have taken at the speed
    at which the reference loop takes REFERENCE_S.
    """

    def __init__(self) -> None:
        self.last = reference_loop()

    def stop(self, start: float) -> tuple[float, float]:
        wall = perf_counter() - start
        before, self.last = self.last, reference_loop()
        return wall, wall * REFERENCE_S / ((before + self.last) / 2)


def run_op(op: Op, tally: Tally, clock: Clock,
           tracer: Optional[tracing.Tracer] = None
           ) -> tuple[float, float, Optional[Answer]]:
    """Run, time and check one operation: (wall s, scaled s, answer)."""
    answer: Optional[Answer] = None
    start = perf_counter()
    try:
        if tracer is None:
            answer = execute(op)
        else:
            answer = tracer.call(tracing.OP, execute, (op,), {})
        error = None
    except Exception as exc:  # the command crashed: a failed operation
        error = f"raised {type(exc).__name__}: {str(exc)[:120]}"
    wall, scaled = clock.stop(start)
    if answer is not None:
        error = op.check(answer)
    tally.record(op, answer, error)
    return wall, scaled, answer


# -- per-layer figures -------------------------------------------------------


def terms_sample(solver: Any, result: Any, rng: random.Random,
                 acc: dict[str, float]) -> None:
    """Time Clause.key, hash() and compare_atoms over a final G, after
    the run and outside every span."""
    try:
        from trigsat.ordering import compare_atoms

        ground = list(result.final_ground)
        atoms = [lit.atom for c in ground for lit in c.literals]
        if not atoms:
            return
        fresh = [type(c)(c.literals) for c in ground]
        start = perf_counter()
        for c in fresh:
            c.key
        acc["key_s"] += perf_counter() - start
        acc["key_n"] += len(fresh)
        start = perf_counter()
        for a in atoms:
            hash(a)
        acc["hash_s"] += perf_counter() - start
        acc["hash_n"] += len(atoms)
        pairs = [(rng.choice(atoms), rng.choice(atoms)) for _ in range(200)]
        start = perf_counter()
        for a, b in pairs:
            compare_atoms(solver.ordering, a, b)
        acc["cmp_s"] += perf_counter() - start
        acc["cmp_n"] += len(pairs)
    except (AttributeError, ImportError, TypeError):
        acc["skipped"] += 1


def layer_metrics(tracer: tracing.Tracer, captures: list,
                  acc: dict[str, float]) -> dict[str, float]:
    stats = tracer.stats

    def rec(name: str) -> tracing.LayerStats:
        return stats.get(name) or tracing.LayerStats()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("parser", "selection", "saturation", "saturation.check",
                 "saturation.subsume", "saturation.infer", "cdcl",
                 "cdcl.conflict", "cdcl.propagate", "cdcl.decide",
                 "cdcl.backjump", "cdcl.learn", "cdcl.instantiate",
                 "cdcl.match", "cdcl.sort_clause", "models.ground",
                 "models.produce", "models.check"):
        key = name + (".s" if "." not in name else "_s")
        out[key] = rec(name).self
    for name in ("saturation.subsume", "cdcl.conflict", "cdcl.propagate",
                 "cdcl.instantiate", "cdcl.match"):
        out[f"{name}_calls"] = rec(name).calls
        out[f"{name}_hit_ratio"] = ratio(rec(name).hits, rec(name).calls)
    sort = rec("cdcl.sort_clause")
    out["cdcl.sort_clause_us"] = 1e6 * ratio(sort.total, sort.calls)

    runs = [r for tag, _, r in captures if tag == "run"]
    for key in ("decides", "propagates", "conflicts", "backjumps", "learns",
                "instantiations"):
        out[f"cdcl.{key}"] = sum(getattr(r.stats, key) for r in runs)
    out["cdcl.monitor_violations"] = sum(len(r.stats.monitor_violations)
                                         for r in runs)
    out["cdcl.ground_clauses"] = sum(len(r.final_ground) for r in runs)

    sat_counts = [r.counts for tag, _, r in captures if tag == "saturate"]
    check_counts = [r.counts for tag, _, r in captures if tag == "check"]
    conclusions = sum(c.get("resolvents", 0) + c.get("factors", 0)
                      for c in sat_counts)
    out["saturation.inferences"] = conclusions + sum(
        c.get("inferences", 0) for c in check_counts)
    out["saturation.kept_ratio"] = ratio(
        sum(c.get("kept", 0) for c in sat_counts), conclusions)
    out["models.instances"] = sum(r.checked for tag, _, r in captures
                                  if tag == "verify")

    out["terms.clause_key_us"] = 1e6 * ratio(acc["key_s"], acc["key_n"])
    out["terms.hash_us"] = 1e6 * ratio(acc["hash_s"], acc["hash_n"])
    out["ordering.compare_atoms_us"] = 1e6 * ratio(acc["cmp_s"], acc["cmp_n"])
    op = rec(tracing.OP)
    out["trace.remainder_share"] = ratio(op.self, op.total)
    return out


# -- the run -----------------------------------------------------------------


def lib_lines() -> int:
    return sum(1 for path in sorted((SRC / "trigsat").glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


class SetupTimer:
    """A fresh interpreter importing trigsat.cli, as every CLI call does.

    Samples are taken between passes, so that they spread over the run
    like the passes do.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.cmd = [sys.executable, "-c", "import trigsat.cli"]
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self._spawn()  # writes the .pyc files an installed package has

    def _spawn(self) -> None:
        subprocess.run(self.cmd, env=self.env, check=True, timeout=60)

    def sample(self) -> None:
        start = perf_counter()
        self._spawn()
        wall, scaled = self.clock.stop(start)
        self.wall.append(wall)
        self.scaled.append(scaled)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    def __init__(self, name: str, seed: int) -> None:
        # Every trigsat module must be loaded before a tracer patches it:
        # a module imported while patched would keep the wrapper.
        import trigsat.cli  # noqa: F401

        self.name = name
        self.seed = seed
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.wl = workloads.build(name, seed, ROOT, self.work)
        for path, text in self.wl.files.items():
            path.write_text(text)
        self.tally = Tally()
        self.notes: list[str] = []
        self.counts: dict[str, dict] = {}
        self.clock = Clock()
        self.op_times: dict[str, list[float]] = {op.name: []
                                                 for op in self.wl.ops}

    def warm_up(self) -> None:
        """One untimed pass: answers, warm-up checks and rule counts."""
        tracer = tracing.Tracer()
        with tracer.installed():
            for op in self.wl.ops:
                _, _, answer = run_op(op, self.tally, self.clock, tracer)
                captures = tracer.take_captures()
                if answer is not None and op.warmup is not None:
                    error = op.warmup(answer, captures)
                    if error is not None:
                        self.tally.failed += 1
                        self.tally.errors.setdefault(op.name, error)
                self.counts[op.name] = workloads.fingerprint(captures)
        if tracer.missing:
            self.notes.append("not traced (names gone): "
                              + ", ".join(tracer.missing))

    def one_pass(self, tracer: Optional[tracing.Tracer] = None,
                 acc: Optional[dict] = None) -> tuple[float, float, list]:
        """One pass over the operations: (wall s, scaled s, captures)."""
        gc.collect()
        wall = scaled = 0.0
        captures: list = []
        for op in self.wl.ops:
            op_wall, op_scaled, _ = run_op(op, self.tally, self.clock, tracer)
            wall += op_wall
            scaled += op_scaled
            if tracer is None:
                self.op_times[op.name].append(op_scaled)
            else:
                got = tracer.take_captures()
                captures.extend(got)
                rng = random.Random(f"{self.seed}:{op.name}")
                for tag, solver, result in got:
                    if tag == "run":
                        terms_sample(solver, result, rng, acc)
        return wall, scaled, captures

    def passes(self, seconds: float, traced: bool) -> tuple[list, list, list]:
        """Timed passes until `seconds` are spent; traced ones alternate
        with untraced ones when `traced`.  Returns the wall and scaled
        times of the untraced passes and the figures of the traced ones."""
        wall: list[float] = []
        scaled: list[float] = []
        layers: list[dict] = []
        tracer = tracing.Tracer()
        start = perf_counter()
        longest = 0.0
        # Start another pass while it would end, on average, in time.
        while not wall or perf_counter() - start + longest / 2 <= seconds:
            begun = perf_counter()
            w, t, _ = self.one_pass()
            wall.append(w)
            scaled.append(t)
            if traced:
                tracer.reset()
                acc = dict.fromkeys(("key_s", "key_n", "hash_s", "hash_n",
                                     "cmp_s", "cmp_n", "skipped"), 0.0)
                with tracer.installed():
                    _, t, captures = self.one_pass(tracer, acc)
                figures = layer_metrics(tracer, captures, acc)
                figures["trace.verdict_s"] = t
                layers.append(figures)
            longest = max(longest, perf_counter() - begun)
        return wall, scaled, layers

    def worker_report(self, seconds: float) -> dict[str, Any]:
        wall, scaled, _ = self.passes(seconds, traced=False)
        return {"wall": wall, "scaled": scaled, "op_times": self.op_times,
                "attempted": self.tally.attempted,
                "failed": self.tally.failed, "errors": self.tally.errors,
                "undecided": sorted(self.tally.undecided)}

    def in_workers(self, seconds: float,
                   setup: SetupTimer) -> tuple[list, list]:
        """Timed passes in WORKERS fresh processes, with a set-up sample
        before each; their answers count as this run's."""
        deadline = perf_counter() + seconds
        wall: list[float] = []
        scaled: list[float] = []
        for left in range(WORKERS, 0, -1):
            setup.sample()
            share = max(deadline - perf_counter(), 0.0) / left
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", self.name, "--seed", str(self.seed),
                   "--seconds", str(share), "--worker"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True, timeout=170)
            report = json.loads(proc.stdout.splitlines()[-1])
            wall += report["wall"]
            scaled += report["scaled"]
            for name, times in report["op_times"].items():
                self.op_times[name] += times
            self.tally.attempted += report["attempted"]
            self.tally.failed += report["failed"]
            for name, error in report["errors"].items():
                self.tally.errors.setdefault(name, error)
            self.tally.undecided.update(report["undecided"])
        while len(setup.scaled) < SETUP_SAMPLES:
            setup.sample()
        return wall, scaled

    def probes(self) -> list[tuple[Op, Optional[str]]]:
        out = []
        tally = Tally()
        for op in self.wl.probes:
            run_op(op, tally, self.clock)
            out.append((op, tally.errors.get(op.name)))
        self.tally.undecided |= tally.undecided
        return out

    def count_drift(self) -> list[str]:
        try:
            recorded = json.loads(COUNTS_FILE.read_text()).get(self.name, {})
        except FileNotFoundError:
            recorded = {}
        lines = []
        for op in self.wl.ops:
            table = (recorded.get("seeds", {}).get(str(self.seed), {})
                     if op.seeded else recorded.get("ops", {}))
            if op.name not in table:
                lines.append(f"counts: no baseline for {op.name}"
                             + (f" at seed {self.seed}" if op.seeded else ""))
                continue
            old, new = table[op.name], self.counts[op.name]
            for key in sorted(set(old) | set(new)):
                if old.get(key) != new.get(key):
                    lines.append(f"counts: {op.name} {key} "
                                 f"{old.get(key)} -> {new.get(key)}")
        return lines

    def record_counts(self) -> None:
        try:
            data = json.loads(COUNTS_FILE.read_text())
        except FileNotFoundError:
            data = {}
        entry = data.setdefault(self.name, {"ops": {}, "seeds": {}})
        for op in self.wl.ops:
            table = (entry["seeds"].setdefault(str(self.seed), {})
                     if op.seeded else entry["ops"])
            table[op.name] = self.counts[op.name]
        COUNTS_FILE.write_text(json.dumps(data, indent=1, sort_keys=True)
                               + "\n")


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def run_one(args: argparse.Namespace) -> dict[str, Any]:
    run = Run(args.workload, args.seed)
    run.warm_up()
    gc.collect()
    gc.freeze()
    print(f"workload {run.name}, seed {run.seed}: {len(run.wl.ops)} "
          f"operations per pass, {len(run.wl.probes)} probes")
    metrics: dict[str, Any] = {}
    if args.trace:
        _, scaled, layers = run.passes(args.seconds, traced=True)
        # One traced pass, whole, so that its layer times add up: the
        # median one by scaled time.
        layers.sort(key=lambda f: f["trace.verdict_s"])
        metrics.update(layers[(len(layers) - 1) // 2])
        base = statistics.median(scaled)
        metrics["trace.overhead"] = metrics["trace.verdict_s"] / base - 1
        metrics["lib_lines"] = lib_lines()
        print(f"  {len(layers)} traced and {len(scaled)} untraced passes; "
              f"untraced pass {base:.4f} s, traced "
              f"{metrics['trace.verdict_s']:.4f} s scaled "
              f"(overhead {metrics['trace.overhead']:+.1%}); "
              f"{metrics['trace.remainder_share']:.1%} of traced operation "
              f"time is outside every layer span")
        units = {"_s": "s", ".s": "s", "_us": "us", "_ratio": "ratio",
                 "_share": "ratio", "overhead": "ratio", "lib_lines": "lines"}
        result = {}
        for key, value in metrics.items():
            unit = next((u for suffix, u in units.items()
                         if key.endswith(suffix)), "count")
            result[key] = metric(value, unit)
            print(f"  {key:<32} {value:>14.6g} {unit}")
    else:
        timer = SetupTimer(run.clock)
        wall, scaled = run.in_workers(args.seconds, timer)
        setup = statistics.median(timer.scaled)
        probes = run.probes()
        distinct = len(run.wl.ops) + len(probes)
        errors = len(run.tally.errors) + sum(1 for _, e in probes if e)
        decided = distinct - len(run.tally.undecided)
        q1, q3 = quartiles(scaled)
        # A pass with every operation at its median: steadier than the
        # median pass, because a burst of contention rarely spans a pass.
        verdict = sum(statistics.median(t) for t in run.op_times.values())
        rss = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
        result = {"verdict_s": metric(verdict, "s"),
                  "decided_share": metric(decided / distinct, "ratio"),
                  "peak_rss_mb": metric(rss, "MB"),
                  "setup_s": metric(setup, "s")}
        print(f"  verdict_s      {verdict:.4f} s  (scaled, sum of operation "
              f"medians over {len(scaled)} passes; pass median "
              f"{statistics.median(scaled):.4f}, quartiles {q1:.4f} / "
              f"{q3:.4f}; wall median {statistics.median(wall):.4f}, "
              f"fastest {min(wall):.4f})")
        print(f"  error_rate     {errors / distinct:.4f} ratio  "
              f"({errors} of {distinct} operations, probes included)")
        print(f"  decided_share  {decided / distinct:.4f} ratio")
        print(f"  peak_rss_mb    {rss:.1f} MB")
        print(f"  setup_s        {setup:.4f} s  (scaled, median of "
              f"{len(timer.scaled)}; wall median "
              f"{statistics.median(timer.wall):.4f})")
        print(f"  lib_lines      {lib_lines()} lines  (informational)")
        for name, times in run.op_times.items():
            print(f"    {name:<34} {statistics.median(times):.4f} s scaled")
        for op, error in probes:
            print(f"  probe {op.name}: {error or 'answered as the oracle'}")
    for name, error in sorted(run.tally.errors.items()):
        print(f"  FAILED {name}: {error}")
    for line in run.notes + run.count_drift():
        print(f"  {line}")
    if args.record_counts:
        run.record_counts()
    return {"correct": run.tally.failed == 0,
            "attempted": run.tally.attempted,
            "failed": run.tally.failed,
            "metrics": result}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} did not finish", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for key, value in part["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "trigsat" / "__init__.py").is_file():
        print(f"error: no trigsat sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.worker:
        run = Run(args.workload, args.seed)
        gc.collect()
        gc.freeze()
        print(json.dumps(run.worker_report(args.seconds)))
        return 0
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
