"""CDCL SAT solving over ground clauses with interleaved trigger instantiation.

The solver state is a triple <G, M, LC>: a growable set of ground clauses,
a trail of assigned literals, and the current conflict clause (empty or a
singleton).  Rules apply with priority Fail > Conflict > Backjump/Learn >
Propagate > Instantiate (per strategy) > Decide > Succeed.  Decisions
always set an atom false.

Clauses are kept sorted (per trail) in descending assignment recency:
undefined literals first, then the most recently determined.  A literal's
recency is the trail position of whichever polarity determined its value;
the level of a false literal is the level of its complement's assignment.
Backjump resolves the conflict clause against the reason of its newest
falsified literal until a unique literal remains at the conflict level; a
conflict whose newest falsified literal sits at level 0 resolves down to
the empty clause, which is Fail.

Instantiation adds a new ground instance of a theory clause whose selected
literals all have their complements on the trail (one trail literal may
witness several selected literals); the trail then rewinds exactly as for
a learned clause.  Lazy mode instantiates only once every atom is
assigned; eager mode tries after every propagation fixpoint.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Iterable, Optional

from .ordering import Comparison, OrderingSpec, compare_atoms
from .terms import (
    Atom,
    Clause,
    Literal,
    Substitution,
    atom_key,
    match_literal,
)


@dataclass(frozen=True, slots=True)
class TrailEntry:
    literal: Literal
    level: int
    reason: Optional[Clause]  # None for decisions


class Trail:
    """Assignment list, oldest first; exposes recency and level lookups."""

    def __init__(self) -> None:
        self.entries: list[TrailEntry] = []
        self._index: dict[Literal, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def level(self) -> int:
        return self.entries[-1].level if self.entries else 0

    def literals(self) -> list[Literal]:
        return [e.literal for e in self.entries]

    def value(self, lit: Literal) -> Optional[bool]:
        if lit in self._index:
            return True
        if lit.complement() in self._index:
            return False
        return None

    def defines(self, atom: Atom) -> bool:
        return (Literal(atom, True) in self._index
                or Literal(atom, False) in self._index)

    def count(self, lit: Literal) -> float:
        """Trail position (1-based) of the assignment that determined lit's
        truth value; infinity when the atom is unassigned."""
        idx = self._index.get(lit)
        if idx is None:
            idx = self._index.get(lit.complement())
        return math.inf if idx is None else idx + 1

    def level_of(self, lit: Literal) -> float:
        idx = self._index.get(lit)
        if idx is None:
            idx = self._index.get(lit.complement())
        return math.inf if idx is None else self.entries[idx].level

    def entry_for(self, lit: Literal) -> TrailEntry:
        return self.entries[self._index[lit]]

    def push(self, lit: Literal, level: int, reason: Optional[Clause]) -> None:
        assert self.value(lit) is None, f"atom already assigned: {lit.atom}"
        self._index[lit] = len(self.entries)
        self.entries.append(TrailEntry(lit, level, reason))

    def truncate_keep(self, keep: int) -> None:
        """Keep the first `keep` entries."""
        self.entries = self.entries[:keep]
        self._index = {e.literal: i for i, e in enumerate(self.entries)}

    def clear(self) -> None:
        self.entries = []
        self._index = {}


def sort_clause(trail: Trail, c: Clause, o: OrderingSpec) -> tuple[Literal, ...]:
    """Permutation of c in descending recency (undefined literals first),
    tie-broken by the atom ordering, then structure, then position."""

    def cmp(a: tuple[int, Literal], b: tuple[int, Literal]) -> int:
        ca, cb = trail.count(a[1]), trail.count(b[1])
        if ca != cb:
            return -1 if ca > cb else 1
        by_order = compare_atoms(o, a[1].atom, b[1].atom)
        if by_order is Comparison.GT:
            return -1
        if by_order is Comparison.LT:
            return 1
        ka, kb = atom_key(a[1].atom), atom_key(b[1].atom)
        if ka != kb:
            return -1 if ka > kb else 1
        return -1 if a[0] < b[0] else (1 if a[0] > b[0] else 0)

    indexed = sorted(enumerate(c.literals), key=cmp_to_key(cmp))
    return tuple(lit for _, lit in indexed)


@dataclass(frozen=True)
class Budgets:
    max_instantiations: int = 50_000
    max_conflicts: int = 200_000
    max_clauses: int = 200_000
    timeout: float = 120.0


@dataclass
class RunStats:
    decides: int = 0
    propagates: int = 0
    conflicts: int = 0
    backjumps: int = 0
    learns: int = 0
    instantiations: int = 0
    conflicts_above_level0: int = 0
    learned_sizes: list[int] = field(default_factory=list)
    monitor_violations: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    # Steps since the last Instantiate/Learn event, for the counting bound:
    # at most n Decide+Propagate steps and n Backjump steps in between.
    _dp_since_event: int = 0
    _bj_this_conflict: int = 0

    def note(self, violation: str) -> None:
        self.monitor_violations.append(violation)


@dataclass(frozen=True)
class Verdict:
    kind: str  # "sat" | "unsat" | "unknown"
    model: tuple[Literal, ...] = ()
    reason: str = ""


@dataclass
class RunResult:
    verdict: Verdict
    stats: RunStats
    trace: list[str] = field(default_factory=list)
    final_ground: list[Clause] = field(default_factory=list)


def _dedup_literals(lits: Iterable[Literal]) -> tuple[Literal, ...]:
    out: dict[Literal, None] = {}
    for lit in lits:
        out.setdefault(lit)
    return tuple(out)


class Solver:
    """One CDCL run; owns its state exclusively."""

    def __init__(self, ground: Iterable[Clause],
                 theory: list[Clause],
                 selection: dict[int, frozenset[int]],
                 ordering: OrderingSpec,
                 instantiate_mode: str = "lazy",
                 budgets: Budgets = Budgets(),
                 trace: bool = False,
                 horn_monitor: bool = False,
                 twosat_monitor: bool = False) -> None:
        if instantiate_mode not in ("lazy", "eager"):
            raise ValueError(f"unknown instantiation mode: {instantiate_mode!r}")
        self.ordering = ordering
        self.theory = list(theory)
        self.selection = selection
        self.mode = instantiate_mode
        self.budgets = budgets
        self.trail = Trail()
        self.lc: Optional[Clause] = None
        self.stats = RunStats()
        self.trace: list[str] = []
        self._tracing = trace
        self._horn = horn_monitor
        self._twosat = twosat_monitor
        self.ground: list[Clause] = []
        self._ground_keys: set = set()
        # The atoms of G in first-seen order; G only grows.
        self._atoms: dict[Atom, None] = {}
        self._instances_in_ground: dict[int, set] = {}
        for c in ground:
            self._add_ground(c)

    # -- bookkeeping ---------------------------------------------------

    def _add_ground(self, c: Clause) -> bool:
        # The engine's clause database merges duplicate literals: the
        # duplicate-free form is equivalent and keeps conflict analysis
        # (which merges duplicates anyway) aligned with the database.
        assert c.is_ground, f"non-ground clause in G: {c}"
        slim = Clause(_dedup_literals(c.literals), origin=c.origin)
        if slim.key in self._ground_keys:
            return False
        self._ground_keys.add(slim.key)
        self.ground.append(slim)
        for lit in slim.literals:
            self._atoms.setdefault(lit.atom)
        return True

    def _emit(self, fmt: str, *args: object) -> None:
        # Formatted only when tracing: str() of a clause walks its terms.
        if self._tracing:
            self.trace.append(fmt.format(*args))

    def atoms(self) -> list[Atom]:
        return list(self._atoms)

    def _level(self) -> int:
        return self.trail.level

    # -- rule applications ----------------------------------------------

    def find_conflict(self) -> bool:
        """Conflict: some clause of G is fully falsified by the trail."""
        assert self.lc is None
        for c in self.ground:
            if all(self.trail.value(l) is False for l in c.literals):
                self.lc = c
                self.stats.conflicts += 1
                self._bump_conflict_monitors(c)
                self._emit("conflict {} level={}", c, self._level())
                return True
        return False

    def _bump_conflict_monitors(self, c: Clause) -> None:
        level = self._level()
        if level > 0:
            self.stats.conflicts_above_level0 += 1
            if self._horn:
                self.stats.note(
                    f"horn monitor: conflict at level {level} on {c}")
        if len(c) >= 2:
            ordered = sort_clause(self.trail, c, self.ordering)
            l1, l2 = ordered[0], ordered[1]
            if self.trail.level_of(l1) != self.trail.level_of(l2):
                self.stats.note(
                    f"conflict-level monitor: two newest falsified literals "
                    f"of {c} at different levels")
        if len(c) == 1 and level > 0:
            self.stats.note(
                f"unit-conflict monitor: unit clause {c} conflicting at "
                f"level {level}")
        self.stats._bj_this_conflict = 0

    def propagate(self) -> bool:
        """Propagate: a clause's sorted head is unassigned, the rest false."""
        assert self.lc is None
        for c in self.ground:
            if not c.literals:
                continue
            satisfied = False
            undefined: list[Literal] = []
            for lit in c.literals:
                v = self.trail.value(lit)
                if v is True:
                    satisfied = True
                    break
                if v is None:
                    undefined.append(lit)
            if satisfied or len(undefined) != 1:
                continue
            lit = undefined[0]
            level = self._level()
            if len(c) >= 2:
                ordered = sort_clause(self.trail, c, self.ordering)
                second = ordered[1]
                if self.trail.level_of(second) != level:
                    self.stats.note(
                        f"propagation-level monitor: {c} propagates {lit} "
                        f"at level {level} but its second literal was "
                        f"falsified at level {self.trail.level_of(second)}")
            self.trail.push(lit, level, c)
            self.stats.propagates += 1
            self.stats._dp_since_event += 1
            self._check_dp_bound()
            self._emit("propagate {} level={} reason={}", lit, level, c)
            return True
        return False

    def _propagation_or_conflict_pending(self) -> bool:
        for c in self.ground:
            satisfied = False
            undefined = 0
            for lit in c.literals:
                v = self.trail.value(lit)
                if v is True:
                    satisfied = True
                    break
                if v is None:
                    undefined += 1
            if not satisfied and undefined <= 1:
                return True
        return False

    def decide(self, _guard_checked: bool = False) -> bool:
        """Decide: set the smallest unassigned atom false, one level deeper.

        Only applicable when no propagation or conflict is pending; the
        main loop establishes that by rule priority and skips the check.
        """
        assert self.lc is None
        if not _guard_checked and self._propagation_or_conflict_pending():
            raise RuntimeError(
                "decide blocked: a propagation or conflict is pending")
        unassigned = [a for a in self._atoms if not self.trail.defines(a)]
        if not unassigned:
            return False
        unassigned.sort(key=atom_key)
        best = unassigned[0]
        for a in unassigned[1:]:
            if compare_atoms(self.ordering, a, best) is Comparison.LT:
                best = a
        level = self._level() + 1
        self.trail.push(Literal(best, False), level, None)
        self.stats.decides += 1
        self.stats._dp_since_event += 1
        self._check_dp_bound()
        self._emit("decide ~{} level={}", best, level)
        return True

    def backjump_applicable(self) -> bool:
        if self.lc is None or self.lc.is_empty:
            return False
        ordered = sort_clause(self.trail, self.lc, self.ordering)
        head = ordered[0]
        flipped = head.complement()
        if self.trail.value(head) is not False:
            return False
        entry = self.trail.entry_for(flipped)
        if entry.level == 0:
            # Level-0 conflicts resolve all the way down to the empty
            # clause; every level-0 assignment has a reason.
            assert entry.reason is not None
            return True
        same_level = any(self.trail.level_of(l) == entry.level
                         for l in ordered[1:])
        if not same_level:
            return False
        assert entry.reason is not None, (
            "decision literal cannot share its level with an earlier "
            "falsified literal")
        return True

    def backjump_step(self) -> None:
        """Resolve the conflict clause with the reason of its newest literal."""
        assert self.lc is not None and not self.lc.is_empty
        ordered = sort_clause(self.trail, self.lc, self.ordering)
        head = ordered[0]
        reason = self.trail.entry_for(head.complement()).reason
        assert reason is not None
        delta = [l for l in reason.literals if l != head.complement()]
        merged = _dedup_literals(tuple(delta) + tuple(ordered[1:]))
        self.lc = Clause(merged, origin="learned")
        self.stats.backjumps += 1
        self.stats._bj_this_conflict += 1
        n = len(self._atoms)
        if self.stats._bj_this_conflict > n:
            self.stats.note(
                f"backjump-count monitor: {self.stats._bj_this_conflict} "
                f"resolution steps in one conflict with {n} atoms")
        self._emit("backjump {} level={}", self.lc, self._level())

    def learn(self) -> None:
        """Add the conflict clause to G and rewind the trail."""
        c = self.lc
        assert c is not None and not c.is_empty
        level = self._level()
        if level == 0 and len(c) > 1:
            self.stats.note(
                f"level-zero monitor: learned clause {c} with "
                f"{len(c)} literals at level 0")
        if self._twosat and len(c) >= 2:
            self.stats.note(
                f"2sat monitor: learned clause {c} has {len(c)} literals")
        self._add_ground(c)
        self.stats.learns += 1
        self.stats.learned_sizes.append(len(c))
        self.stats._dp_since_event = 0
        if len(c) == 1:
            self.trail.clear()
        else:
            ordered = sort_clause(self.trail, c, self.ordering)
            second = ordered[1]
            keep = int(self.trail.count(second))
            self.trail.truncate_keep(keep)
        self.lc = None
        self._emit("learn {} level={}", c, self._level())

    def instantiate_step(self) -> str:
        """Add one new ground instance whose selected literals all have
        their complements on the trail; rewind like Learn if falsified.

        Returns "added", "none", or "budget".  The budget outcome fires
        only when a new instance exists: Succeed would be unsound with an
        applicable Instantiate, so the run must stop instead.
        """
        assert self.lc is None
        found = self._find_new_instance()
        if found is None:
            return "none"
        if self.stats.instantiations >= self.budgets.max_instantiations:
            return "budget"
        parent, theta, instance = found
        self._add_ground(instance)
        self.stats.instantiations += 1
        self.stats._dp_since_event = 0
        self._emit("instantiate {} from {} level={}", instance, parent,
                   self._level())
        added = self.ground[-1]  # duplicate-literal-merged form
        if len(added) == 1:
            self.trail.clear()
        elif len(added) >= 2:
            ordered = sort_clause(self.trail, added, self.ordering)
            tail = ordered[1:]
            if all(self.trail.value(l) is False for l in tail):
                keep = int(self.trail.count(tail[0]))
                self.trail.truncate_keep(keep)
        return "added"

    def _find_new_instance(self) -> Optional[tuple[Clause, Substitution, Clause]]:
        trail_lits = self.trail.literals()
        for c in self.theory:
            positions = sorted(self.selection[c.cid])
            patterns = [c.literals[p].complement() for p in positions]
            # Enumerate matches exhaustively: earlier ones may be in G already.
            result = self._search_all(patterns, trail_lits, c)
            if result is not None:
                return result
        return None

    def _search_all(self, patterns: list[Literal], trail_lits: list[Literal],
                    c: Clause) -> Optional[tuple[Clause, Substitution, Clause]]:
        # Matches whose instance is known to be in G (which only grows).
        # Every full match binds the same variables in the same order, so
        # the bound terms alone identify it.
        in_ground = self._instances_in_ground.setdefault(c.cid, set())

        def go(i: int, bindings) -> Optional[tuple[Clause, Substitution, Clause]]:
            if i == len(patterns):
                match = tuple(bindings.values())
                if match in in_ground:
                    return None
                theta = Substitution(bindings)
                instance = theta.apply_clause(c, origin="instance")
                assert instance.is_ground, (
                    "valid selections cover all clause variables, so a full "
                    "match grounds the clause")
                slim = Clause(_dedup_literals(instance.literals),
                              origin="instance")
                if slim.key in self._ground_keys:
                    in_ground.add(match)
                    return None
                return c, theta, instance
            for lit in trail_lits:
                nxt = match_literal(patterns[i], lit, bindings)
                if nxt is None:
                    continue
                got = go(i + 1, nxt)
                if got is not None:
                    return got
            return None

        try:
            return go(0, {})
        finally:
            del go  # no garbage cycle through the closure

    def _check_dp_bound(self) -> None:
        n = len(self._atoms)
        if self.stats._dp_since_event > max(n, 1):
            self.stats.note(
                f"step-count monitor: {self.stats._dp_since_event} "
                f"decide/propagate steps since the last instantiate/learn "
                f"with {n} atoms")

    # -- main loop -------------------------------------------------------

    def run(self) -> RunResult:
        started = time.monotonic()

        def stop_unknown(reason: str) -> RunResult:
            self.stats.wall_time = time.monotonic() - started
            self._emit("unknown ({})", reason)
            return RunResult(Verdict("unknown", (), reason),
                             self.stats, self.trace, self.ground)

        while True:
            if time.monotonic() - started > self.budgets.timeout:
                return stop_unknown("timeout exceeded")
            if self.stats.conflicts > self.budgets.max_conflicts:
                return stop_unknown("conflict budget exceeded")
            if len(self.ground) > self.budgets.max_clauses:
                return stop_unknown("clause budget exceeded")
            if self.lc is not None:
                if self.lc.is_empty:
                    self.stats.wall_time = time.monotonic() - started
                    self._emit("fail")
                    return RunResult(Verdict("unsat"), self.stats,
                                     self.trace, self.ground)
                if self.backjump_applicable():
                    self.backjump_step()
                else:
                    self.learn()
                continue
            if self.find_conflict():
                continue
            if self.propagate():
                continue
            if self.mode == "eager":
                step = self.instantiate_step()
                if step == "added":
                    continue
                if step == "budget":
                    return stop_unknown("instantiation budget exceeded")
            if self.decide(_guard_checked=True):
                continue
            if self.mode == "lazy":
                step = self.instantiate_step()
                if step == "added":
                    continue
                if step == "budget":
                    return stop_unknown("instantiation budget exceeded")
            self.stats.wall_time = time.monotonic() - started
            model = tuple(self.trail.literals())
            self._emit("succeed")
            return RunResult(Verdict("sat", model), self.stats,
                             self.trace, self.ground)
