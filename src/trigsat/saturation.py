"""Resolution and Factoring on selected literals, with redundancy deletion.

Resolution resolves a selected positive literal of one clause against a
selected negative literal of another (premises renamed apart); Factoring
merges a selected positive literal with a unifiable positive clause-mate.
A clause set is saturated when every inference conclusion is a tautology
or subsumed.  Subsumption uses multiset inclusion: C subsumes D iff some
substitution maps C onto a sub-multiset of D.  Both entry points take the
non-ground part of a problem only.

Checks that cannot succeed are skipped: subsumption by `Clause.signature`,
premise pairs by `_partners`, and repeated literal comparisons by a memo
per `saturate` call.  `saturate` checks its `Budget` once per given
clause, and the deadline also per premise pair and inside subsumption,
which is NP-complete.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Optional

from .cdcl import Budget, BudgetExceeded
from .ordering import Comparison, OrderingSpec, compare_clauses
from .selection import (CheckedSelection, ValidationResult, check_selection,
                        extend_selection)
from .terms import (
    Clause,
    canonicalize,
    match_literal,
    rename_apart,
    unify,
    vars_of,
)


class SaturationOutcome(Enum):
    SATURATED = "saturated"
    DERIVED_BOTTOM = "bottom"
    BUDGET_EXCEEDED = "budget"
    NOT_SATURATED = "not-saturated"


@dataclass(frozen=True)
class Violation:
    kind: str  # "resolution" | "factoring"
    premises: tuple[int, ...]  # clause ids
    conclusion: Clause


@dataclass
class SaturationReport:
    outcome: SaturationOutcome
    clauses: list[Clause]
    selection: dict[int, frozenset[int]]
    counts: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)


class InvalidSelectionError(Exception):
    """An input clause has no valid selection."""


def is_tautology(c: Clause) -> bool:
    pos = {l.atom for l in c.literals if l.positive}
    neg = {l.atom for l in c.literals if not l.positive}
    return bool(pos & neg)


def subsumes(c: Clause, d: Clause, deadline: float = math.inf) -> bool:
    """True iff some substitution maps c onto a sub-multiset of d.  Raises
    BudgetExceeded once `time.monotonic()` passes `deadline`."""
    (c_mask, _), (d_mask, positions) = c.signature, d.signature
    if c_mask & ~d_mask:
        return False
    (c_size, c_counts), (d_size, d_counts) = c.features, d.features
    if c_size > d_size or any(d_counts.get(k, 0) < n
                              for k, n in c_counts.items()):
        return False
    lits, targets = c.literals, d.literals
    if not lits:
        return True
    used = [False] * len(targets)

    def candidates(lit, bindings):
        # Only d's literals of lit's sign and predicate can match it.
        for j in positions[lit.positive, lit.atom.pred]:
            if not used[j]:
                nxt = match_literal(lit, targets[j], bindings)
                if nxt is not None:
                    yield j, nxt

    # Depth-first over c's literals, each against d's unused ones in order:
    # frame i yields literal i's matches, chosen[i] the last one's target.
    frames = [candidates(lits[0], {})]
    chosen: list[int] = []
    while frames:
        if time.monotonic() > deadline:
            raise BudgetExceeded("timeout exceeded")
        if len(chosen) == len(frames):
            used[chosen.pop()] = False
        j, nxt = next(frames[-1], (None, None))
        if j is None:
            frames.pop()
        elif len(frames) == len(lits):
            return True
        else:
            used[j] = True
            chosen.append(j)
            frames.append(candidates(lits[len(frames)], nxt))
    return False


def resolve(c1: Clause, pos1: int, c2: Clause, pos2: int) -> Optional[Clause]:
    """Resolvent of c1's positive literal at pos1 with c2's negative at pos2.

    Premises are renamed apart internally.  Returns None when the atoms do
    not unify.
    """
    lit1 = c1.literals[pos1]
    if not lit1.positive:
        raise ValueError("resolution literal in the first premise must be positive")
    lit2 = c2.literals[pos2]
    if lit2.positive:
        raise ValueError("resolution literal in the second premise must be negative")
    if lit1.atom.pred != lit2.atom.pred:
        return None
    c2r = rename_apart(c2, vars_of(c1))
    sigma = unify(lit1.atom, c2r.literals[pos2].atom)
    if sigma is None:
        return None
    rest = c1.without_position(pos1) + c2r.without_position(pos2)
    conclusion = Clause(tuple(sigma.apply_literal(l) for l in rest),
                        origin="resolvent")
    return canonicalize(conclusion)


def factor(c: Clause, pos: int) -> list[Clause]:
    """One factor per positive clause-mate unifiable with the literal at pos."""
    lit = c.literals[pos]
    if not lit.positive:
        raise ValueError("factoring literal must be positive")
    out: list[Clause] = []
    for j, other in enumerate(c.literals):
        if j == pos or not other.positive:
            continue
        sigma = unify(lit.atom, other.atom)
        if sigma is None:
            continue
        kept = c.without_position(j)
        out.append(canonicalize(Clause(
            tuple(sigma.apply_literal(l) for l in kept), origin="factor")))
    return out


def _by_polarity(c: Clause, sel: Iterable[int]) -> tuple:
    """c's selected positions in ascending order, (positive, negative), and
    the predicates of each of the two lists."""
    ordered = sorted(sel)
    pos = [p for p in ordered if c.literals[p].positive]
    neg = [p for p in ordered if not c.literals[p].positive]
    return (pos, neg, frozenset(c.literals[p].atom.pred for p in pos),
            frozenset(c.literals[p].atom.pred for p in neg))


def _partners(sides: dict[int, tuple], first: Clause, second: Clause) -> bool:
    """Whether `first` selects positive a predicate `second` selects negative."""
    return not sides[first.cid][2].isdisjoint(sides[second.cid][3])


def _validate_all(clauses: Iterable[Clause],
                  selection: dict[int, frozenset[int]], o: OrderingSpec
                  ) -> dict[int, tuple]:
    """Raise on a clause without a valid selection; otherwise return each
    clause's selected positions by polarity, as `inferences` takes them.
    A CheckedSelection is not checked again."""
    checked = isinstance(selection, CheckedSelection)
    sides = {}
    for c in clauses:
        if c.is_ground:
            raise ValueError(f"ground clause '{c}' in non-ground set")
        result = (ValidationResult(False, None, "clause has no selection")
                  if c.cid not in selection else
                  checked or check_selection(c, selection[c.cid], o))
        if not result:
            raise InvalidSelectionError(
                f"invalid selection for clause '{c}': {result.describe()}")
        sides[c.cid] = _by_polarity(c, selection[c.cid])
    return sides


def inferences(sides: dict[int, tuple], first: Clause,
               second: Optional[Clause] = None, negative_outer: bool = False):
    """Yield (kind, premise ids, conclusion) for the inferences of one
    premise pair, or of one clause when `second` is None.

    `sides` maps a clause id to its selected positions by polarity (see
    `_by_polarity`).  With a partner: the resolutions of a selected
    positive literal of `first` with a selected negative literal of
    `second`, the positive position outermost unless `negative_outer`.
    Without one: the factors of `first`.
    """
    positives = sides[first.cid][0]
    if second is None:
        for p in positives:
            for f in factor(first, p):
                yield "factoring", (first.cid,), f
        return
    negatives = sides[second.cid][1]
    pairs = (((p, q) for q in negatives for p in positives) if negative_outer
             else ((p, q) for p in positives for q in negatives))
    for p, q in pairs:
        r = resolve(first, p, second, q)
        if r is not None:
            yield "resolution", (first.cid, second.cid), r


def _pick_given(passive: list[Clause], o: OrderingSpec,
                memo: dict, lit_memo: dict) -> Clause:
    # A left-to-right scan: c replaces the running best when it is smaller,
    # or EQ or INCOMPARABLE with a lower cid.  Under a partial order that
    # need not be a least clause; tests/golden/saturation_order.json pins
    # the picks.  `memo` keeps earlier scans' comparisons by cid pair, and
    # `lit_memo` the literal comparisons under o (see compare_clauses).
    best = passive[0]
    for c in passive[1:]:
        cmp = memo.get((c.cid, best.cid))
        if cmp is None:
            cmp = memo[c.cid, best.cid] = compare_clauses(o, c, best, lit_memo)
        if cmp is Comparison.LT:
            best = c
        elif cmp in (Comparison.INCOMPARABLE, Comparison.EQ) and c.cid < best.cid:
            best = c
    return best


def saturate(ng: Iterable[Clause], sel: dict[int, frozenset[int]],
             o: OrderingSpec, budget: Budget = Budget(),
             extend: str = "error",
             deadline: Optional[float] = None) -> SaturationReport:
    """Given-clause saturation with tautology and subsumption deletion.

    Derived clauses get a selection via `extend` (see selection module);
    in `error` mode any retained conclusion aborts with SelectionError.
    A spent budget ends it with a BUDGET_EXCEEDED report of every retained
    clause, the given one included.
    """
    inputs = list(ng)
    selection = dict(sel)
    sides = _validate_all(inputs, sel, o)
    counts = {"resolvents": 0, "factors": 0, "kept": 0, "tautologies": 0,
              "forward_subsumed": 0, "backward_subsumed": 0}
    if deadline is None:
        deadline = time.monotonic() + budget.timeout

    # `given` leaves `passive` only when it is dropped or joins `active`.
    active: list[Clause] = []
    passive: list[Clause] = list(inputs)
    compared: dict[tuple[int, int], Comparison] = {}
    # Literals are interned and o is frozen: this call's literal comparisons.
    literal_compared: dict = {}
    try:
        while passive:
            if len(active) + len(passive) > budget.max_saturation_clauses:
                raise BudgetExceeded("clause budget exceeded")
            if time.monotonic() > deadline:
                raise BudgetExceeded("timeout exceeded")
            # A clause never returns to the passive list once it leaves, so
            # the memo keeps only pairs of clauses still in it.
            live = {p.cid for p in passive}
            compared = {k: v for k, v in compared.items()
                        if k[0] in live and k[1] in live}
            given = _pick_given(passive, o, compared, literal_compared)
            rest = [p for p in passive if p is not given]
            if is_tautology(given):
                counts["tautologies"] += 1
                passive = rest
                continue
            if any(subsumes(a, given, deadline) for a in active):
                counts["forward_subsumed"] += 1
                passive = rest
                continue
            removed = [a for a in active if subsumes(given, a, deadline)]
            kept = [p for p in rest if not subsumes(given, p, deadline)]
            counts["backward_subsumed"] += len(removed) + len(rest) - len(kept)
            active = [a for a in active if a not in removed] + [given]
            passive = kept
            counts["kept"] += 1

            conclusions: list[Clause] = []
            if given.cid in sides:
                # Ground clauses have no sides: they are retained but
                # generate no inferences.  `given` is the last of `active`.
                pairs = [pair for other in active[:-1] if other.cid in sides
                         for pair in ((given, other, False),
                                      (other, given, True))]
                for first, second, negative_outer in pairs + [(given, given,
                                                               False)]:
                    if not _partners(sides, first, second):
                        continue
                    if time.monotonic() > deadline:
                        raise BudgetExceeded("timeout exceeded")
                    for _, _, r in inferences(sides, first, second,
                                              negative_outer):
                        counts["resolvents"] += 1
                        conclusions.append(r)
                for _, _, f in inferences(sides, given):
                    counts["factors"] += 1
                    conclusions.append(f)

            for concl in conclusions:
                if concl.is_empty:
                    return SaturationReport(SaturationOutcome.DERIVED_BOTTOM,
                                            active + passive + [concl],
                                            selection, counts)
                if is_tautology(concl):
                    counts["tautologies"] += 1
                    continue
                if any(subsumes(a, concl, deadline)
                       for a in chain(active, passive)):
                    counts["forward_subsumed"] += 1
                    continue
                if not concl.is_ground:
                    selection[concl.cid] = extend_selection(concl, o, extend)
                    sides[concl.cid] = _by_polarity(concl,
                                                    selection[concl.cid])
                passive.append(concl)
    except BudgetExceeded:
        return SaturationReport(SaturationOutcome.BUDGET_EXCEEDED,
                                active + passive, selection, counts)
    return SaturationReport(SaturationOutcome.SATURATED, list(active),
                            selection, counts)


def check_saturated(ng: Iterable[Clause], sel: dict[int, frozenset[int]],
                    o: OrderingSpec) -> SaturationReport:
    """Enumerate every inference among the given clauses and report each
    conclusion that is neither a tautology nor subsumed in the set."""
    clauses = list(ng)
    selection = dict(sel)
    sides = _validate_all(clauses, sel, o)
    counts = {"inferences": 0}
    violations: list[Violation] = []

    enumerated = chain(
        (i for c1 in clauses for c2 in clauses if _partners(sides, c1, c2)
         for i in inferences(sides, c1, c2)),
        (i for c in clauses for i in inferences(sides, c)))
    for kind, premises, concl in enumerated:
        counts["inferences"] += 1
        if not (is_tautology(concl)
                or any(subsumes(c, concl) for c in clauses)):
            violations.append(Violation(kind, premises, concl))

    outcome = (SaturationOutcome.SATURATED if not violations
               else SaturationOutcome.NOT_SATURATED)
    return SaturationReport(outcome, clauses, selection, counts, violations)
