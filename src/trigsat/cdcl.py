"""CDCL SAT solving over ground clauses with interleaved trigger instantiation.

The solver state is a triple <G, M, LC>: a growable set of ground clauses,
a trail of assigned literals, and the current conflict clause (empty or a
singleton).  Rules apply with priority Fail > Conflict > Backjump/Learn >
Propagate > Instantiate (per strategy) > Decide > Succeed.  Decisions
always set an atom false.

Clauses are kept sorted (per trail) in descending assignment recency:
undefined literals first, then the most recently determined; ties keep
clause order.  A literal's recency is the trail position of whichever
polarity determined its value; the level of a false literal is the level
of its complement's assignment.

Conflict and Propagate read a pending-clause index (`_Pending`) instead
of scanning G: per clause, counts of its true and its non-false
literals, kept current at each trail push and cut and for each new
clause, and one min-heap of (free, index) pairs, so Conflict still
applies to the first falsified clause in G order and, failing that,
Propagate to the first unit clause.

Backjump resolves the conflict clause against the reason of its newest
falsified literal until a unique literal remains at the conflict level; a
conflict whose newest falsified literal sits at level 0 resolves down to
the empty clause, which is Fail.

Instantiation adds a new ground instance of a theory clause whose selected
literals all have their complements on the trail (one trail literal may
witness several selected literals); the trail then rewinds exactly as for
a learned clause.  Lazy mode instantiates only once every atom is
assigned; eager mode tries after every propagation fixpoint.

Each cap of a `Budget`, and its deadline, raises `BudgetExceeded` where it
is spent, inside the instantiation search too; `run` catches it once.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sized

from .ordering import OrderingSpec, atom_order_key
from .terms import (
    App,
    Atom,
    Clause,
    Literal,
    Substitution,
    match_literal,
)


@dataclass(frozen=True, slots=True)
class TrailEntry:
    literal: Literal
    level: int
    reason: Optional[Clause]  # None for decisions


class Trail:
    """Assignment list, oldest first; exposes recency and level lookups.
    `on_push` gets each entry as it is pushed, and `on_cut` the entries
    each `truncate_keep` or `clear` removes."""

    def __init__(self, on_cut: Optional[Callable] = None,
                 on_push: Optional[Callable] = None) -> None:
        self.entries: list[TrailEntry] = []
        self._at: dict[Atom, int] = {}  # atom -> position of its entry
        self._on_cut = on_cut
        self._on_push = on_push

    @property
    def level(self) -> int:
        return self.entries[-1].level if self.entries else 0

    def literals(self) -> list[Literal]:
        return [e.literal for e in self.entries]

    def value(self, lit: Literal) -> Optional[bool]:
        idx = self._at.get(lit.atom)
        return None if idx is None else self.entries[idx].literal is lit

    def defines(self, atom: Atom) -> bool:
        return atom in self._at

    def count(self, lit: Literal) -> float:
        """Trail position (1-based) of the assignment that determined lit's
        truth value; infinity when the atom is unassigned."""
        idx = self._at.get(lit.atom)
        return math.inf if idx is None else idx + 1

    def level_of(self, lit: Literal) -> float:
        idx = self._at.get(lit.atom)
        return math.inf if idx is None else self.entries[idx].level

    def entry_for(self, lit: Literal) -> TrailEntry:
        """The entry that assigned lit's atom, in either polarity."""
        return self.entries[self._at[lit.atom]]

    def push(self, lit: Literal, level: int, reason: Optional[Clause]) -> None:
        assert lit.atom not in self._at, f"atom already assigned: {lit.atom}"
        self._at[lit.atom] = len(self.entries)
        self.entries.append(TrailEntry(lit, level, reason))
        if self._on_push is not None:
            self._on_push(self.entries[-1])

    def truncate_keep(self, keep: int) -> None:
        """Keep the first `keep` entries."""
        cut = self.entries[keep:]
        del self.entries[keep:]
        for e in cut:
            del self._at[e.literal.atom]
        if self._on_cut is not None:
            self._on_cut(cut)

    def clear(self) -> None:
        self.truncate_keep(0)


def sort_clause(trail: Trail, c: Clause) -> tuple[Literal, ...]:
    """Permutation of c in descending recency, undefined literals first.
    Equal counts (unassigned literals, or both polarities of one atom)
    keep their order in c."""
    return tuple(sorted(c.literals, key=trail.count, reverse=True))


@dataclass(frozen=True)
class Budget:
    """The caps of one command.  Saturation and search share `timeout`,
    from a deadline in `time.monotonic()` seconds that the caller fixes;
    without one, from the call to `saturate` or the Solver's creation."""
    max_instantiations: int = 50_000
    max_clauses: int = 200_000  # clauses of G
    max_saturation_clauses: int = 10_000  # clauses saturation retains
    timeout: float = 120.0


class BudgetExceeded(Exception):
    """A cap or the deadline ran out; the argument says which."""


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


def _slim(c: Clause) -> Clause:
    """c with duplicate literals merged, first occurrences kept; c itself
    when it has none."""
    lits = tuple(dict.fromkeys(c.literals))
    return c if len(lits) == len(c.literals) else Clause(lits, origin=c.origin)


def _candidate_key(pattern: Literal) -> tuple:
    """What a ground literal needs to match pattern: its polarity, its
    predicate and the top symbol at each non-variable argument position."""
    a = pattern.atom
    return ((pattern.positive, a.pred),
            tuple((i, t.fn) for i, t in enumerate(a.args) if isinstance(t, App)))


class _DecideHeap:
    """The atoms of G by order key (`atom_order_key`), under either order:
    it holds every unassigned atom of G once, and an assigned one until it
    is popped.  Under the subterm order the least key is a minimal atom.
    Only atoms of G come in: G's new atoms, and those a trail cut frees."""

    def __init__(self, o: OrderingSpec) -> None:
        self.o = o
        self.heap: list[tuple[tuple, Atom]] = []
        self.queued: set[Atom] = set()

    def push(self, atoms: Iterable[Atom]) -> None:
        for a in atoms:
            if a not in self.queued:
                self.queued.add(a)
                heapq.heappush(self.heap, (atom_order_key(self.o, a), a))

    def least(self, trail: Trail) -> Optional[Atom]:
        """The least atom of G that the trail leaves unassigned, if any."""
        heap = self.heap
        while heap and trail.defines(heap[0][1]):
            self.queued.discard(heapq.heappop(heap)[1])
        return heap[0][1] if heap else None


class _Candidates:
    """For each candidate key (`_candidate_key`), the trail literals with
    that key in trail order, as (stamp, literal) pairs.  Stamps come from
    a counter that is never reused, so a literal pushed again after a cut
    is newer than everything stamped before."""

    def __init__(self, keys: Iterable[tuple]) -> None:
        self.lists: dict[tuple, list[tuple[int, Literal]]] = {}
        self._by_head: dict[tuple[bool, str], list] = {}
        for key in keys:
            if key not in self.lists:
                self.lists[key] = []
                self._by_head.setdefault(key[0], []).append(
                    (key[1], self.lists[key]))
        self.newest = 0  # the last stamp given
        self._taken = 0  # the trail entries taken in

    def sync(self, trail: Trail) -> None:
        """Take in the entries pushed since the last call."""
        for e in trail.entries[self._taken:]:
            self.newest += 1
            args = e.literal.atom.args
            for tops, lst in self._by_head.get(
                    (e.literal.positive, e.literal.atom.pred), ()):
                if all(args[i].fn == fn for i, fn in tops):
                    lst.append((self.newest, e.literal))
        self._taken = len(trail.entries)

    def cut(self, trail: Trail) -> None:
        """Drop the literals a trail cut unassigned: a suffix of each list."""
        self._taken = min(self._taken, len(trail.entries))
        for lst in self.lists.values():
            while lst and not trail.defines(lst[-1][1].atom):
                lst.pop()


class _Pending:
    """The clauses of G that Conflict or Propagate may apply to.  For each
    clause, by index in G, it counts the literals the trail makes true and
    those it does not make false, current at every push, cut and new
    clause.  `heap` is a min-heap of (free, index) for the clauses with no
    true literal and `free` (0 or 1) literals not false, so a falsified
    clause comes before a unit one.  Every such clause is in it, once
    (`queued`); an entry whose clause has stopped being one is dropped
    when it reaches the top."""

    def __init__(self) -> None:
        self.true: list[int] = []
        self.nonfalse: list[int] = []
        # atom -> the indices of the clauses where it occurs negative, and
        # those where it occurs positive; its keys are G's atoms in
        # first-seen order
        self.occurs: dict[Atom, tuple[list[int], list[int]]] = {}
        self.heap: list[tuple[int, int]] = []
        self.queued: set[tuple[int, int]] = set()

    def _queue(self, i: int) -> None:
        """Queue clause i if it is pending and not queued yet."""
        key = (self.nonfalse[i], i)
        if key[0] < 2 and not self.true[i] and key not in self.queued:
            self.queued.add(key)
            heapq.heappush(self.heap, key)

    def count(self, e: TrailEntry, sign: int = 1) -> None:
        """Take in the counts of a pushed entry, or give them back (sign
        -1) for a cut one, and queue each clause it leaves pending."""
        occ = self.occurs.get(e.literal.atom)
        if occ is not None:
            true, nonfalse, queue = self.true, self.nonfalse, self._queue
            for i in occ[e.literal.positive]:
                true[i] += sign
                if nonfalse[i] < 2:
                    queue(i)
            for i in occ[not e.literal.positive]:
                nonfalse[i] -= sign
                if nonfalse[i] < 2:
                    queue(i)

    def add(self, c: Clause, trail: Trail) -> None:
        """Take in c, the newest clause of G, with its counts on trail."""
        i = len(self.true)
        values = [trail.value(l) for l in c.literals]
        self.true.append(values.count(True))
        self.nonfalse.append(len(values) - values.count(False))
        for l in c.literals:
            self.occurs.setdefault(l.atom, ([], []))[l.positive].append(i)
        self._queue(i)

    def first(self) -> Optional[tuple[int, int]]:
        """(0, index) of the first clause of G the trail falsifies, else
        (1, index) of the first unit clause, if any."""
        heap = self.heap
        while heap:
            free, i = heap[0]
            if not self.true[i] and self.nonfalse[i] == free:
                return heap[0]
            self.queued.discard(heapq.heappop(heap))
        return None


class _Monitors:
    """The paper's invariants, checked at each rule event; each breach
    appends one `... monitor: ...` message to `violations`.  The Horn claim
    (no conflict above level 0) and the 2SAT claim (every learned clause a
    unit) are on only when every clause given to the solver is in their
    fragment; instances and learned clauses stay in it."""

    def __init__(self, clauses: list[Clause], atoms: Sized,
                 violations: list[str]) -> None:
        self.horn = all(sum(l.positive for l in c.literals) <= 1
                        for c in clauses)
        self.twosat = all(len(c) <= 2 for c in clauses)
        self.atoms = atoms  # G's atoms, shared with the solver
        self._note = violations.append
        self._steps = 0  # Decide+Propagate steps since Instantiate/Learn
        self._backjumps = 0  # Backjump steps in the current conflict

    def conflict(self, trail: Trail, c: Clause) -> None:
        level = trail.level
        if self.horn and level > 0:
            self._note(f"horn monitor: conflict at level {level} on {c}")
        if len(c) >= 2:
            levels = heapq.nlargest(2, map(trail.level_of, c.literals))
            if levels[0] != levels[1]:
                self._note(f"conflict-level monitor: two newest falsified "
                           f"literals of {c} at different levels")
        if len(c) == 1 and level > 0:
            self._note(f"unit-conflict monitor: unit clause {c} conflicting "
                       f"at level {level}")
        self._backjumps = 0

    def propagate(self, trail: Trail, c: Clause, lit: Literal) -> None:
        if len(c) >= 2:
            second = max(trail.level_of(l) for l in c.literals if l is not lit)
            if second != trail.level:
                self._note(f"propagation-level monitor: {c} propagates {lit} "
                           f"at level {trail.level} but its second literal "
                           f"was falsified at level {second}")

    def step(self) -> None:
        self._steps += 1
        n = len(self.atoms)
        if self._steps > max(n, 1):
            self._note(f"step-count monitor: {self._steps} decide/propagate "
                       f"steps since the last instantiate/learn with {n} "
                       f"atoms")

    def backjump(self) -> None:
        self._backjumps += 1
        n = len(self.atoms)
        if self._backjumps > n:
            self._note(f"backjump-count monitor: {self._backjumps} resolution"
                       f" steps in one conflict with {n} atoms")

    def learn(self, trail: Trail, c: Clause) -> None:
        if trail.level == 0 and len(c) > 1:
            self._note(f"level-zero monitor: learned clause {c} with "
                       f"{len(c)} literals at level 0")
        if self.twosat and len(c) >= 2:
            self._note(f"2sat monitor: learned clause {c} has {len(c)} "
                       f"literals")
        self._steps = 0

    def instantiate(self) -> None:
        self._steps = 0


class Solver:
    """One CDCL run; owns its state exclusively."""

    def __init__(self, ground: Iterable[Clause],
                 theory: list[Clause],
                 selection: dict[int, frozenset[int]],
                 ordering: OrderingSpec,
                 instantiate_mode: str = "lazy",
                 budget: Budget = Budget(),
                 deadline: Optional[float] = None,
                 trace: bool = False) -> None:
        if instantiate_mode not in ("lazy", "eager"):
            raise ValueError(f"unknown instantiation mode: {instantiate_mode!r}")
        self.ordering = ordering
        self.mode = instantiate_mode
        self.budget = budget
        self._deadline = (time.monotonic() + budget.timeout
                          if deadline is None else deadline)
        self._heap = _DecideHeap(ordering)
        self._pending = _Pending()
        self.trail = Trail(self._cut, self._pending.count)
        self.lc: Optional[Clause] = None
        # lc's `sort_clause` order from `backjump_applicable`, which
        # `backjump_step`, run next on the same trail, reads.
        self._lc_order: tuple[Literal, ...] = ()
        self.stats = RunStats()
        self.trace: list[str] = []
        self._tracing = trace
        self.ground: list[Clause] = []
        self._ground_keys: set = set()
        # Each theory clause with its trigger patterns (the complements of
        # its selected literals), their candidate keys and the memo of its
        # exhausted matches (`_search`).
        self._triggers = []
        for c in theory:
            patterns = [c.literals[p].complement()
                        for p in sorted(selection[c.cid])]
            keys = [_candidate_key(p) for p in patterns]
            self._triggers.append((c, patterns, keys, {}))
        self._candidates = _Candidates(
            k for _, _, keys, _ in self._triggers for k in keys)
        for c in ground:
            self._add_ground(c)
        self.monitors = _Monitors([*self.ground, *theory],
                                  self._pending.occurs,  # G's atoms
                                  self.stats.monitor_violations)

    # -- bookkeeping ---------------------------------------------------

    def _add_ground(self, c: Clause) -> Optional[Clause]:
        """Store c with duplicate literals merged, unless G has it; returns
        the stored clause.  The merged form is equivalent and keeps conflict
        analysis (which merges duplicates anyway) aligned with G."""
        assert c.is_ground, f"non-ground clause in G: {c}"
        slim = _slim(c)
        if slim.key in self._ground_keys:
            return None
        self._ground_keys.add(slim.key)
        self.ground.append(slim)
        self._heap.push([l.atom for l in slim.literals
                         if l.atom not in self._pending.occurs])
        self._pending.add(slim, self.trail)
        return slim

    def _cut(self, cut: list[TrailEntry]) -> None:
        """The trail's cut hook: requeue the unassigned atoms for Decide,
        drop their literals from the candidate lists and give back their
        counts in the pending-clause index."""
        self._heap.push(e.literal.atom for e in cut)
        self._candidates.cut(self.trail)
        for e in cut:
            self._pending.count(e, -1)

    def _emit(self, fmt: str, *args: object) -> None:
        # Formatted only when tracing: str() of a clause walks its terms.
        if self._tracing:
            self.trace.append(fmt.format(*args))

    def _rewind(self, c: Clause) -> None:
        """Undo the trail for a clause just added to G: all of it for a unit,
        else back to c's second literal if all but its newest are false."""
        if len(c) == 1:
            self.trail.clear()
        elif len(c) >= 2:
            tail = sort_clause(self.trail, c)[1:]
            if all(self.trail.value(l) is False for l in tail):
                self.trail.truncate_keep(int(self.trail.count(tail[0])))

    # -- rule applications ----------------------------------------------

    def propagate(self) -> bool:
        """Conflict on the first clause of G the trail falsifies, else
        Propagate the first unit clause of G.  The pending-clause index
        names the clause, so only it is read."""
        assert self.lc is None
        top = self._pending.first()
        if top is None:
            return False
        free, i = top
        c = self.ground[i]
        if not free:
            self.lc = c
            self.stats.conflicts += 1
            if self.trail.level > 0:
                self.stats.conflicts_above_level0 += 1
            self.monitors.conflict(self.trail, c)
            self._emit("conflict {} level={}", c, self.trail.level)
            return True
        lit = next(l for l in c.literals if self.trail.value(l) is None)
        level = self.trail.level
        self.monitors.propagate(self.trail, c, lit)
        self.trail.push(lit, level, c)
        self.stats.propagates += 1
        self.monitors.step()
        self._emit("propagate {} level={} reason={}", lit, level, c)
        return True

    def decide(self) -> bool:
        """Decide: set the unassigned atom of G with the least order key
        false, one level deeper.  Under the subterm order that atom is a
        minimal one.

        Only applicable when no propagation or conflict is pending; the
        main loop establishes that by rule priority, so it is not checked.
        """
        assert self.lc is None
        best = self._heap.least(self.trail)  # stays queued until popped
        if best is None:
            return False
        level = self.trail.level + 1
        self.trail.push(Literal(best, False), level, None)
        self.stats.decides += 1
        self.monitors.step()
        self._emit("decide ~{} level={}", best, level)
        return True

    def backjump_applicable(self) -> bool:
        if self.lc is None or self.lc.is_empty:
            return False
        self._lc_order = sort_clause(self.trail, self.lc)
        head, *rest = self._lc_order
        if self.trail.value(head) is not False:
            return False
        entry = self.trail.entry_for(head)
        if entry.level == 0:
            # Level-0 conflicts resolve all the way down to the empty
            # clause; every level-0 assignment has a reason.
            assert entry.reason is not None
            return True
        same_level = any(self.trail.level_of(l) == entry.level
                         for l in rest)
        if not same_level:
            return False
        assert entry.reason is not None, (
            "decision literal cannot share its level with an earlier "
            "falsified literal")
        return True

    def backjump_step(self) -> None:
        """Resolve the conflict clause with the reason of its newest literal."""
        assert self.lc is not None and not self.lc.is_empty
        head, *rest = self._lc_order
        flipped = head.complement()
        reason = self.trail.entry_for(head).reason
        assert reason is not None
        merged = [l for l in reason.literals if l != flipped] + rest
        self.lc = Clause(tuple(dict.fromkeys(merged)), origin="learned")
        self.stats.backjumps += 1
        self.monitors.backjump()
        self._emit("backjump {} level={}", self.lc, self.trail.level)

    def learn(self) -> None:
        """Add the conflict clause to G and rewind the trail."""
        c = self.lc
        assert c is not None and not c.is_empty
        self.monitors.learn(self.trail, c)
        self._add_ground(c)
        self.stats.learns += 1
        self.stats.learned_sizes.append(len(c))
        self._rewind(c)
        self.lc = None
        self._emit("learn {} level={}", c, self.trail.level)

    def instantiate_step(self) -> str:
        """Add one new ground instance whose selected literals all have
        their complements on the trail; rewind like Learn if falsified.

        Returns "added" or "none".  A spent instantiation budget raises
        BudgetExceeded only when a new instance exists: Succeed would be
        unsound with an applicable Instantiate.
        """
        assert self.lc is None
        found = self._find_new_instance()
        if found is None:
            return "none"
        if self.stats.instantiations >= self.budget.max_instantiations:
            raise BudgetExceeded("instantiation budget exceeded")
        parent, theta, instance = found
        added = self._add_ground(instance)  # duplicate-literal-merged form
        self.stats.instantiations += 1
        self.monitors.instantiate()
        self._emit("instantiate {} from {} level={}", instance, parent,
                   self.trail.level)
        self._rewind(added)
        return "added"

    def _find_new_instance(self) -> Optional[tuple[Clause, Substitution, Clause]]:
        # A pattern's candidates: the trail literals, in trail order, that
        # share its key; no other trail literal can match it.
        cands = self._candidates
        cands.sync(self.trail)
        for c, patterns, keys, memo in self._triggers:
            lists = [cands.lists[k] for k in keys]
            if all(lists):
                result = self._search(c, patterns, lists, memo)
                if result is not None:
                    return result
        return None

    def _search(self, c: Clause, patterns: list[Literal],
                lists: list[list[tuple[int, Literal]]], memo: dict
                ) -> Optional[tuple[Clause, Substitution, Clause]]:
        """Find, depth-first in trail order, the first match of the patterns
        to their candidate lists whose instance of c is not in G.  A match
        is a tuple of trail literals, one per pattern; the frame of a prefix
        of i of them holds its bindings and the candidates left for
        pattern i.

        `memo` maps each prefix whose subtree a search finished to the
        newest stamp then: every match under it had its instance in G, and
        G only grows.  A literal still on the trail with a stamp no newer
        was on the trail then, so the subtree holds no new instance while
        no list of a later pattern ends newer.  A full match has no later
        pattern, so it is skipped for good; the empty prefix stands for the
        whole clause.  Only matches with their instance in G are skipped,
        so the first new match is the one a full search finds."""
        newest = self._candidates.newest
        n = len(patterns)
        # ends[i]: the newest stamp in the lists of pattern i and later.
        ends = [0] * (n + 1)
        for i in reversed(range(n)):
            ends[i] = max(ends[i + 1], lists[i][-1][0])
        if memo.get((), -1) >= ends[0]:
            return None
        lists = [*lists, ()]  # for the frame of a full match
        frames = [((), {}, iter(lists[0]))]
        while frames:
            if time.monotonic() > self._deadline:
                raise BudgetExceeded("timeout exceeded")
            prefix, bindings, todo = frames[-1]
            if len(prefix) < n:
                pattern = patterns[len(prefix)]
                for _, lit in todo:
                    longer = (*prefix, lit)
                    if memo.get(longer, -1) >= ends[len(longer)]:
                        continue
                    nxt = match_literal(pattern, lit, bindings)
                    if nxt is not None:
                        frames.append((longer, nxt, iter(lists[len(longer)])))
                        break
                else:
                    frames.pop()
                    memo[prefix] = newest
                continue
            frames.pop()
            theta = Substitution(bindings)
            instance = theta.apply_clause(c, origin="instance")
            assert instance.is_ground, (
                "valid selections cover all clause variables, so a full "
                "match grounds the clause")
            if _slim(instance).key not in self._ground_keys:
                return c, theta, instance
            memo[prefix] = newest
        return None

    # -- main loop -------------------------------------------------------

    def run(self) -> RunResult:
        started = time.monotonic()

        def finish(verdict: Verdict, line: str) -> RunResult:
            self.stats.wall_time = time.monotonic() - started
            self._emit("{}", line)
            return RunResult(verdict, self.stats, self.trace, self.ground)

        try:
            while True:
                if time.monotonic() > self._deadline:
                    raise BudgetExceeded("timeout exceeded")
                if len(self.ground) > self.budget.max_clauses:
                    raise BudgetExceeded("clause budget exceeded")
                if self.lc is not None:
                    if self.lc.is_empty:
                        return finish(Verdict("unsat"), "fail")
                    if self.backjump_applicable():
                        self.backjump_step()
                    else:
                        self.learn()
                # Lazy mode has decided every atom before it instantiates;
                # eager mode decides only when no new instance exists.
                elif not (self.propagate()
                          or (self.mode == "lazy" and self.decide())
                          or self.instantiate_step() == "added"
                          or (self.mode == "eager" and self.decide())):
                    return finish(Verdict("sat", tuple(self.trail.literals())),
                                  "succeed")
        except BudgetExceeded as exc:
            return finish(Verdict("unknown", (), str(exc)), f"unknown ({exc})")
