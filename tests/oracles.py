"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the solver
paths it checks: truth tables by exhaustive enumeration, Horn
satisfiability by forward-chaining to a least fixpoint, ground term
enumeration by direct recursion on the depth definition, and clause
subsumption for the encoded list representation by trying every atom
assignment.  `RefSolver` is the exception: a frozen copy of an earlier
CDCL engine, which the live one must match run for run.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from functools import cmp_to_key
from typing import Callable, Iterable, Optional, Sized

from trigsat.cdcl import (Budget, BudgetExceeded, RunResult, RunStats,
                          TrailEntry, Verdict, _candidate_key, _slim,
                          sort_clause)
from trigsat.corpus import CORPORA
from trigsat.models import ProductionRecord, filter_clause_indexed, int_of
from trigsat.ordering import (Comparison, OrderingSpec, atom_order_key,
                              compare_clauses, compare_literals)
from trigsat.parser import Problem, format_clause, parse_problem
from trigsat.pipeline import solve_problem
from trigsat.saturation import (Violation, factor, is_tautology, resolve,
                                subsumes)
from trigsat.terms import (App, Atom, Clause, Literal, Substitution, Term,
                           Var, match_literal, unify, vars_of)


# -- fixtures -------------------------------------------------------------

def clause(literals: Iterable[Literal],
           origin: Optional[str] = None) -> Clause:
    """A clause of the given literals, with the origin the parser gives an
    input clause of that groundness unless one is given."""
    lits = tuple(literals)
    if origin is None:
        origin = "input-ground" if all(
            l.atom.ground for l in lits) else "input-nonground"
    return Clause(lits, origin)


def load_corpus(name: str) -> Problem:
    """A built-in corpus of `trigsat.corpus.CORPORA`, parsed."""
    if name not in CORPORA:
        raise ValueError(f"unknown corpus: {name!r} "
                         f"(available: {', '.join(sorted(CORPORA))})")
    return parse_problem(CORPORA[name])


def truth_table_sat(clauses: list[Clause]) -> Optional[dict[Atom, bool]]:
    """Exhaustive satisfiability check; returns a model or None."""
    atoms: list[Atom] = []
    seen = set()
    for c in clauses:
        for lit in c.literals:
            if lit.atom not in seen:
                seen.add(lit.atom)
                atoms.append(lit.atom)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        assignment = dict(zip(atoms, bits))
        ok = True
        for c in clauses:
            if not any(assignment[l.atom] == l.positive for l in c.literals):
                ok = False
                break
        if ok:
            return assignment
    return None


def horn_sat(clauses: list[Clause]) -> bool:
    """Forward chaining on ground Horn clauses (at most one positive)."""
    facts: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for c in clauses:
            positives = [l.atom for l in c.literals if l.positive]
            negatives = [l.atom for l in c.literals if not l.positive]
            if all(a in facts for a in negatives):
                if not positives:
                    return False
                if positives[0] not in facts:
                    facts.add(positives[0])
                    changed = True
    return True


def ground_terms_by_depth(functions: dict[str, int], depth: int) -> set[Term]:
    """Direct recursion on: constants have depth 0, f(t...) has depth
    1 + max child depth."""
    if depth < 0:
        return set()
    out: set[Term] = {App(name) for name, ar in functions.items() if ar == 0}
    if depth == 0:
        return out
    smaller = ground_terms_by_depth(functions, depth - 1)
    for name, arity in functions.items():
        if arity == 0:
            continue
        for combo in itertools.product(smaller, repeat=arity):
            out.add(App(name, combo))
    return out


def evaluate_clause(c: Clause, model: dict[Atom, bool]) -> Optional[bool]:
    """True/False under a total map of the mentioned atoms; None if an
    atom is missing from the map."""
    any_missing = False
    for lit in c.literals:
        if lit.atom not in model:
            any_missing = True
            continue
        if model[lit.atom] == lit.positive:
            return True
    return None if any_missing else False


# -- encoded clause lists (matching fixture) ---------------------------

def decode_list(t: Term) -> Optional[list[Term]]:
    """p(head, tail)/nil encoding to a list of atom terms."""
    out: list[Term] = []
    while True:
        if isinstance(t, App) and t.fn == "nil" and not t.args:
            return out
        if isinstance(t, App) and t.fn == "p" and len(t.args) == 2:
            out.append(t.args[0])
            t = t.args[1]
            continue
        return None


def _is_varterm(t: Term) -> bool:
    return isinstance(t, App) and t.fn == "v" and len(t.args) == 1


def match_encoded(pattern: Term, target: Term,
                  bindings: dict[Term, Term]) -> Optional[dict[Term, Term]]:
    """Match with v(...) subterms of the pattern acting as variables."""
    if _is_varterm(pattern):
        bound = bindings.get(pattern)
        if bound is None:
            out = dict(bindings)
            out[pattern] = target
            return out
        return bindings if bound == target else None
    if not isinstance(pattern, App) or not isinstance(target, App):
        return None
    if pattern.fn != target.fn or len(pattern.args) != len(target.args):
        return None
    out = dict(bindings)
    for pa, ta in zip(pattern.args, target.args):
        nxt = match_encoded(pa, ta, out)
        if nxt is None:
            return None
        out = nxt
    return out


def encoded_subsumes(list1: list[Term], list2: list[Term]) -> bool:
    """Brute-force subsumption for the encoded representation.

    Every atom of list1 must match a distinct position of list2 under one
    consistent assignment of the v-variables (the fixture distributes the
    first list's atoms over the second, so occurrences are not reused).
    """
    if len(list1) > len(list2):
        return False

    def assign(idx: int, used: set[int], bindings: dict[Term, Term]) -> bool:
        if idx == len(list1):
            return True
        for j, target in enumerate(list2):
            if j in used:
                continue
            nxt = match_encoded(list1[idx], target, bindings)
            if nxt is None:
                continue
            if assign(idx + 1, used | {j}, nxt):
                return True
        return False

    return assign(0, set(), {})


def three_colorable(n: int, triples: Iterable[tuple[int, int, int]]) -> bool:
    """Can 1..n be split over three sets with no triple in one set?"""
    triple_list = list(triples)
    for colors in itertools.product(range(3), repeat=n):
        def color(i: int) -> int:
            return colors[i - 1]
        if all(len({color(x), color(y), color(z)}) > 1
               for x, y, z in triple_list):
            return True
    return False


def bounded_substitutions(variables: list[Var], terms: list[Term]):
    """Every substitution mapping the given variables into the term pool."""
    for combo in itertools.product(terms, repeat=len(variables)):
        yield dict(zip(variables, combo))


# -- reference definitions of the cached term fields -------------------
#
# Direct recursion on the structure, the way the fields were defined
# before terms were hash-consed; usable on terms of modest depth only.

def ref_rebuild(t: Term) -> Term:
    """A fresh construction of t from its structure."""
    if isinstance(t, Var):
        return Var(t.name)
    return App(t.fn, tuple(ref_rebuild(a) for a in t.args))


def ref_term_key(t: Term) -> tuple:
    if isinstance(t, Var):
        return (0, t.name)
    return (1, t.fn, tuple(ref_term_key(a) for a in t.args))


def ref_preorder(t: Term) -> tuple:
    """The symbols of ground term t in preorder."""
    return (t.fn,) + sum((ref_preorder(a) for a in t.args), ())


def ref_depth(t: Term) -> int:
    if isinstance(t, Var) or not t.args:
        return 0
    return 1 + max(ref_depth(a) for a in t.args)


def ref_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(ref_ground(a) for a in t.args)


def ref_symbol_count(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(ref_symbol_count(a) for a in t.args)


# -- reference candidate-model construction ----------------------------
#
# The production loop as first written: a selection sort over the clause
# ordering, then an interpretation rebuilt from scratch for each clause.
# It shares the clause ordering and `int_of` with the code it checks; the
# sort and the per-clause truth test are what it stands in for.

def ref_produce_model(fs, o):
    """Reference for `trigsat.models.produce_model`."""
    items = list(fs)
    ordered = []
    while items:
        best_idx = 0
        for idx in range(1, len(items)):
            cmp = compare_clauses(o, items[idx][0], items[best_idx][0])
            if cmp is Comparison.INCOMPARABLE:
                raise ValueError("ordering not total on ground clauses")
            if cmp is Comparison.LT:
                best_idx = idx
            elif cmp is Comparison.EQ:
                if items[idx][0].cid < items[best_idx][0].cid:
                    best_idx = idx
        ordered.append(items.pop(best_idx))

    produced = []
    universe = []
    records = []
    for c, sel in ordered:
        if c.is_empty:
            records.append(ProductionRecord(c, False))
            continue
        here = int_of(produced, universe + list(c.literals))
        universe.extend(c.literals)
        if here.satisfies_clause(c) is True:
            records.append(ProductionRecord(c, False))
            continue
        top = c.literals[0]
        for lit in c.literals[1:]:
            cmp = compare_literals(o, lit, top)
            if cmp is Comparison.INCOMPARABLE:
                raise ValueError("ordering not total on ground clauses")
            if cmp is Comparison.GT:
                top = lit
        occurrences = [i for i, l in enumerate(c.literals) if l == top]
        if top.positive and len(occurrences) == 1 and occurrences[0] in sel:
            produced.append(top)
            records.append(ProductionRecord(c, True, top.atom))
        else:
            records.append(ProductionRecord(c, False))
    return int_of(produced, universe), records


# -- reference subsumption and weight ordering --------------------------
#
# Subsumption as first written: an exhaustive search over injections of
# c's literals into d's, with no pre-filter; and the weight ordering (KBO)
# by direct recursion from a plain weights dict, with nothing cached.
# Both are usable on small inputs only.

def ref_subsumes(c: Clause, d: Clause) -> bool:
    """Reference for `trigsat.saturation.subsumes`."""
    if len(c) > len(d):
        return False

    def assign(idx, used, bindings):
        if idx == len(c.literals):
            return True
        for j, target in enumerate(d.literals):
            if j in used:
                continue
            nxt = match_literal(c.literals[idx], target, bindings)
            if nxt is not None and assign(idx + 1, used | {j}, nxt):
                return True
        return False

    return assign(0, frozenset(), {})


def _ref_weight(weights: dict, t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return weights.get(t.fn, 1) + sum(_ref_weight(weights, a) for a in t.args)


def _ref_var_counts(t: Term, out: dict) -> dict:
    if isinstance(t, Var):
        out[t.name] = out.get(t.name, 0) + 1
    else:
        for a in t.args:
            _ref_var_counts(a, out)
    return out


def _ref_kbo(o, weights: dict, s: Term, t: Term, can_gt: bool,
             can_lt: bool) -> Comparison:
    if ref_term_key(s) == ref_term_key(t):
        return Comparison.EQ
    vs, vt = _ref_var_counts(s, {}), _ref_var_counts(t, {})
    can_gt = can_gt and all(vs.get(v, 0) >= n for v, n in vt.items())
    can_lt = can_lt and all(vt.get(v, 0) >= n for v, n in vs.items())
    ws, wt = _ref_weight(weights, s), _ref_weight(weights, t)
    if ws != wt:
        c = Comparison.GT if ws > wt else Comparison.LT
    elif isinstance(s, Var) or isinstance(t, Var):
        return Comparison.INCOMPARABLE
    elif s.fn != t.fn:
        c = o.compare_symbols(s.fn, t.fn)
    else:
        for sa, ta in zip(s.args, t.args):
            if ref_term_key(sa) != ref_term_key(ta):
                return _ref_kbo(o, weights, sa, ta, can_gt, can_lt)
        raise AssertionError("unreachable: the keys differ")
    if c is Comparison.GT:
        return Comparison.GT if can_gt else Comparison.INCOMPARABLE
    return Comparison.LT if can_lt else Comparison.INCOMPARABLE


def ref_compare_atoms(o, weights: dict, a: Atom, b: Atom) -> Comparison:
    """Reference for `compare_atoms` under a weight ordering `o` whose
    symbol weights are `weights`: an atom weighs like a term headed by its
    predicate."""
    if o.precedence_dominant and a.pred != b.pred:
        return o.compare_symbols(a.pred, b.pred)
    return _ref_kbo(o, weights, App(a.pred, a.args), App(b.pred, b.args),
                    True, True)


def ref_compare_clauses(o, weights: dict, c1: Clause,
                        c2: Clause) -> Comparison:
    """Reference for `compare_clauses` under a weight ordering: the
    multiset extension by its definition (Dershowitz-Manna) over literals
    compared with `ref_compare_atoms`, the negative literal greater on
    equal atoms."""
    def greater(x, y) -> bool:
        c = ref_compare_atoms(o, weights, x.atom, y.atom)
        if c is Comparison.EQ:
            return not x.positive and y.positive
        return c is Comparison.GT

    only1, only2 = list(c1.literals), list(c2.literals)
    for lit in c1.literals:
        if lit in only2:
            only1.remove(lit)
            only2.remove(lit)
    if not only1 and not only2:
        return Comparison.EQ
    if all(any(greater(x, y) for x in only1) for y in only2):
        return Comparison.GT
    if all(any(greater(y, x) for y in only2) for x in only1):
        return Comparison.LT
    return Comparison.INCOMPARABLE


# -- reference inference conclusions ------------------------------------
#
# Resolution and factoring as first written: the whole second premise
# renamed apart, the mgu applied, and the conclusion renamed into the
# canonical alphabet, each step a pass of its own.

def _ref_rename_apart(c: Clause, taken: set[Var]) -> Clause:
    """Rename c's variables away from `taken` (primes appended as needed)."""
    mine = vars_of(c)
    if not (mine & taken):
        return c
    used = set(taken) | mine
    mapping: dict[Var, Term] = {}
    for v in sorted(mine, key=lambda v: v.name):
        if v not in taken:
            continue
        fresh = Var(v.name + "'")
        while fresh in used:
            fresh = Var(fresh.name + "'")
        used.add(fresh)
        mapping[v] = fresh
    return Substitution(mapping).apply_clause(c)


def _ref_canonicalize(c: Clause) -> Clause:
    """Rename variables to X, Y, Z, U, V, W, V1, V2, ... in
    first-occurrence order."""
    order: list[Var] = []
    for lit in c.literals:
        stack = list(reversed(lit.atom.args))
        while stack:  # preorder, left to right
            t = stack.pop()
            if isinstance(t, Var):
                if t not in order:
                    order.append(t)
            else:
                stack.extend(reversed(t.args))
    names = ["X", "Y", "Z", "U", "V", "W"] + [
        f"V{i}" for i in range(1, len(order) + 1)]
    ren = Substitution({v: Var(names[i]) for i, v in enumerate(order)})
    return ren.apply_clause(c)


def ref_resolve(c1: Clause, pos1: int, c2: Clause,
                pos2: int) -> Optional[Clause]:
    """Reference for `trigsat.saturation.resolve` on a positive literal of
    c1 and a negative literal of c2."""
    c2r = _ref_rename_apart(c2, vars_of(c1))
    sigma = unify(c1.literals[pos1].atom, c2r.literals[pos2].atom)
    if sigma is None:
        return None
    rest = c1.without_position(pos1) + c2r.without_position(pos2)
    return _ref_canonicalize(Clause(
        tuple(sigma.apply_literal(l) for l in rest), origin="resolvent"))


def ref_factor(c: Clause, pos: int) -> list[Clause]:
    """Reference for `trigsat.saturation.factor` on a positive literal."""
    out = []
    for j, other in enumerate(c.literals):
        if j == pos or not other.positive:
            continue
        sigma = unify(c.literals[pos].atom, other.atom)
        if sigma is not None:
            out.append(_ref_canonicalize(Clause(
                tuple(sigma.apply_literal(l) for l in c.without_position(j)),
                origin="factor")))
    return out


# -- reference decide choice and clause sort -----------------------------
#
# `Solver.decide`'s choice as written before ground atoms had order keys,
# a scan for the minimum in structural order, and `sort_clause` as
# written before it read recency alone, a sort through `cmp_to_key` that
# broke recency ties by the atom order.  Here they compare with
# `ref_compare_atoms` and `ref_term_key`, so they share no ordering code
# with the solver.

def _ref_atom_key(a: Atom) -> tuple:
    return (a.pred, tuple(ref_term_key(t) for t in a.args))


def ref_decide_choice(o, atoms: list[Atom]) -> Atom:
    """The atom `Solver.decide` sets false among the unassigned `atoms`,
    under a weight order o."""
    weights = dict(o.weights)
    unassigned = sorted(atoms, key=_ref_atom_key)
    best = unassigned[0]
    for a in unassigned[1:]:
        if ref_compare_atoms(o, weights, a, best) is Comparison.LT:
            best = a
    return best


def ref_sort_clause(count, c: Clause, o) -> tuple:
    """Reference for `trigsat.cdcl.sort_clause` where the rules read it:
    when at most one atom of c is unassigned.  `count` is the trail's
    recency of a literal (`Trail.count`)."""
    weights = dict(o.weights)

    def cmp(x, y) -> int:
        cx, cy = count(x[1]), count(y[1])
        if cx != cy:
            return -1 if cx > cy else 1
        by_order = ref_compare_atoms(o, weights, x[1].atom, y[1].atom)
        if by_order is Comparison.GT:
            return -1
        if by_order is Comparison.LT:
            return 1
        kx, ky = _ref_atom_key(x[1].atom), _ref_atom_key(y[1].atom)
        if kx != ky:
            return -1 if kx > ky else 1
        return -1 if x[0] < y[0] else (1 if x[0] > y[0] else 0)

    return tuple(lit for _, lit in sorted(enumerate(c.literals),
                                          key=cmp_to_key(cmp)))


# -- reference given-clause choice ------------------------------------

def ref_pick_given(passive: list[Clause], o) -> Clause:
    """`trigsat.saturation._pick_given` as written before it kept a memo:
    a left-to-right scan for the smallest clause under `compare_clauses`,
    with cid breaking EQ and INCOMPARABLE."""
    best = passive[0]
    for c in passive[1:]:
        cmp = compare_clauses(o, c, best)
        if cmp is Comparison.LT:
            best = c
        elif cmp in (Comparison.INCOMPARABLE, Comparison.EQ) and c.cid < best.cid:
            best = c
    return best


# -- reference saturation check ------------------------------------------

def ref_check_saturated(clauses: list[Clause], selection: dict):
    """`trigsat.saturation.check_saturated` on a valid selection, as written
    before it skipped premise pairs: every selected positive literal of
    every clause against every selected negative literal of every clause,
    then every clause's factors, each conclusion kept as a violation unless
    it is a tautology or subsumed in the set.  Returns (counts,
    violations)."""
    found = []
    for c1 in clauses:
        for c2 in clauses:
            for p in sorted(selection[c1.cid]):
                for q in sorted(selection[c2.cid]):
                    if c1.literals[p].positive and not c2.literals[q].positive:
                        r = resolve(c1, p, c2, q)
                        if r is not None:
                            found.append(("resolution", (c1.cid, c2.cid), r))
    for c in clauses:
        for p in sorted(selection[c.cid]):
            if c.literals[p].positive:
                found.extend(("factoring", (c.cid,), f) for f in factor(c, p))
    violations = [Violation(*i) for i in found
                  if not (is_tautology(i[2])
                          or any(subsumes(c, i[2]) for c in clauses))]
    return {"inferences": len(found)}, violations


# -- reference instantiation search --------------------------------------

def ref_find_new_instance(theory: list[Clause], selection: dict,
                          trail: list, ground: list[Clause]):
    """`trigsat.cdcl.Solver._find_new_instance` as written before trigger
    candidate lists: for each theory clause in order, a depth-first search
    over the whole trail, in trail order, for the first match of the
    complements of its selected literals whose instance (duplicate
    literals merged) is not among the `ground` clauses.  Returns (clause,
    substitution, instance) or None."""
    in_ground = {Clause(tuple(dict.fromkeys(g.literals))).key for g in ground}
    for c in theory:
        patterns = [c.literals[p].complement() for p in sorted(selection[c.cid])]

        def search(i, bindings):
            if i == len(patterns):
                theta = Substitution(bindings)
                instance = theta.apply_clause(c, origin="instance")
                merged = Clause(tuple(dict.fromkeys(instance.literals)))
                return (None if merged.key in in_ground
                        else (c, theta, instance))
            for lit in trail:
                nxt = match_literal(patterns[i], lit, bindings)
                found = None if nxt is None else search(i + 1, nxt)
                if found is not None:
                    return found
            return None

        found = search(0, {})
        if found is not None:
            return found
    return None


# -- helpers that only tests call ----------------------------------------
#
# These were library functions that no library code, script or benchmark
# calls; unlike the oracles above, they are built on the library.

def variant(c: Clause, d: Clause) -> bool:
    """Each of c and d subsumes the other, and they have as many literals."""
    return len(c) == len(d) and subsumes(c, d) and subsumes(d, c)


def apply(s: Substitution, c: Clause) -> Clause:
    """Literal-wise application; multiset cardinality is preserved."""
    return s.apply_clause(c)


def format_problem(p) -> str:
    """A parsed problem as problem text, selection marks included."""
    lines = [format_clause(c, p.selection.get(c.cid)) for c in p.theory]
    lines += [format_clause(c) for c in p.ground]
    return "\n".join(lines) + "\n"


def compose(sigma: Substitution, rho: Substitution) -> Substitution:
    """The substitution σρ, with X(σρ) = (Xσ)ρ."""
    out = {v: rho.apply_term(t) for v, t in sigma.items()}
    for v, t in rho.items():
        if v not in sigma:
            out[v] = t
    return Substitution(out)


def match_onto(pattern, target) -> Optional[Substitution]:
    """Substitution θ with pattern·θ = target; the target must be ground."""
    if vars_of(target):
        raise ValueError("target not ground")
    found = match_literal(pattern, target)
    return None if found is None else Substitution(found)


def filter_clause(c: Clause, i) -> Optional[Clause]:
    """None when i satisfies c; otherwise c minus the literals false in i."""
    filtered, _ = filter_clause_indexed(c, i)
    return filtered


def filter_set(s: Iterable[Clause], i) -> list[Clause]:
    """Clause-wise filtering; satisfied clauses drop, duplicates collapse."""
    out: list[Clause] = []
    seen = set()
    for c in s:
        filtered = filter_clause(c, i)
        if filtered is None or filtered.key in seen:
            continue
        seen.add(filtered.key)
        out.append(filtered)
    return out


def solve_timed(problem, options):
    """`solve_problem`'s result and its wall time in seconds."""
    started = time.monotonic()
    result = solve_problem(problem, options)
    return result, time.monotonic() - started


# -- the CDCL engine as it was before the one-pass Conflict/Propagate ------

class RefTrail:
    """`trigsat.cdcl.Trail` with its index keyed by literal.  Assignment
    list, oldest first; exposes recency and level lookups.
    `on_cut` gets the atoms each `truncate_keep` or `clear` unassigns."""

    def __init__(self, on_cut: Optional[Callable] = None) -> None:
        self.entries: list[TrailEntry] = []
        self._index: dict[Literal, int] = {}
        self._on_cut = on_cut

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

    def _position(self, lit: Literal) -> Optional[int]:
        idx = self._index.get(lit)  # lit's atom, in either polarity
        return self._index.get(lit.complement()) if idx is None else idx

    def count(self, lit: Literal) -> float:
        """Trail position (1-based) of the assignment that determined lit's
        truth value; infinity when the atom is unassigned."""
        idx = self._position(lit)
        return math.inf if idx is None else idx + 1

    def level_of(self, lit: Literal) -> float:
        idx = self._position(lit)
        return math.inf if idx is None else self.entries[idx].level

    def entry_for(self, lit: Literal) -> TrailEntry:
        return self.entries[self._index[lit]]

    def push(self, lit: Literal, level: int, reason: Optional[Clause]) -> None:
        assert self.value(lit) is None, f"atom already assigned: {lit.atom}"
        self._index[lit] = len(self.entries)
        self.entries.append(TrailEntry(lit, level, reason))

    def truncate_keep(self, keep: int) -> None:
        """Keep the first `keep` entries."""
        cut = self.entries[keep:]
        self.entries = self.entries[:keep]
        self._index = {e.literal: i for i, e in enumerate(self.entries)}
        if self._on_cut is not None:
            self._on_cut(e.literal.atom for e in cut)

    def clear(self) -> None:
        self.truncate_keep(0)


class _RefDecideHeap:
    """The atoms of G by order key (`atom_order_key`), under either order:
    it holds every unassigned atom of G once, and an assigned one until it
    is popped.  Under the subterm order the least key is a minimal atom."""

    def __init__(self, o: OrderingSpec, atoms: dict[Atom, None]) -> None:
        self.o, self.atoms = o, atoms  # G's atoms, shared with the solver
        self.heap: list[tuple[tuple, Atom]] = []
        self.queued: set[Atom] = set()

    def push(self, atoms: Iterable[Atom]) -> None:
        for a in atoms:
            if a in self.atoms and a not in self.queued:
                self.queued.add(a)
                heapq.heappush(self.heap, (atom_order_key(self.o, a), a))

    def least(self, trail: RefTrail) -> Optional[Atom]:
        """The least atom of G that the trail leaves unassigned, if any."""
        heap = self.heap
        while heap and trail.defines(heap[0][1]):
            self.queued.discard(heapq.heappop(heap)[1])
        return heap[0][1] if heap else None


class _RefMonitors:
    """`trigsat.cdcl._Monitors` as it was when it sorted a clause to find
    the levels of its newest literals.  The paper's invariants, checked at
    each rule event; each breach appends one `... monitor: ...` message to
    `violations`.  The Horn claim (no conflict above level 0) and the 2SAT
    claim (every learned clause a unit) are on only when every clause
    given to the solver is in their fragment; instances and learned
    clauses stay in it."""

    def __init__(self, clauses: list[Clause], atoms: Sized,
                 violations: list[str]) -> None:
        self.horn = all(sum(l.positive for l in c.literals) <= 1
                        for c in clauses)
        self.twosat = all(len(c) <= 2 for c in clauses)
        self.atoms = atoms  # G's atoms, shared with the solver
        self._note = violations.append
        self._steps = 0  # Decide+Propagate steps since Instantiate/Learn
        self._backjumps = 0  # Backjump steps in the current conflict

    def conflict(self, trail: RefTrail, c: Clause) -> None:
        level = trail.level
        if self.horn and level > 0:
            self._note(f"horn monitor: conflict at level {level} on {c}")
        if len(c) >= 2:
            l1, l2 = sort_clause(trail, c)[:2]
            if trail.level_of(l1) != trail.level_of(l2):
                self._note(f"conflict-level monitor: two newest falsified "
                           f"literals of {c} at different levels")
        if len(c) == 1 and level > 0:
            self._note(f"unit-conflict monitor: unit clause {c} conflicting "
                       f"at level {level}")
        self._backjumps = 0

    def propagate(self, trail: RefTrail, c: Clause, lit: Literal) -> None:
        if len(c) >= 2:
            second = trail.level_of(sort_clause(trail, c)[1])
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

    def learn(self, trail: RefTrail, c: Clause) -> None:
        if trail.level == 0 and len(c) > 1:
            self._note(f"level-zero monitor: learned clause {c} with "
                       f"{len(c)} literals at level 0")
        if self.twosat and len(c) >= 2:
            self._note(f"2sat monitor: learned clause {c} has {len(c)} "
                       f"literals")
        self._steps = 0

    def instantiate(self) -> None:
        self._steps = 0


# The conflict cap the engine had when it was frozen here.
MAX_CONFLICTS = 200_000


class RefSolver:
    """`trigsat.cdcl.Solver` with one scan of G for Conflict and a second
    for Propagate, on `RefTrail`.  It is the whole-run specification the
    engine is held to: each rule's choice, the stats, the monitor
    messages, the trace and G's final order.  It shares only helpers the
    engine has not changed since (`sort_clause`, `_slim`,
    `_candidate_key`, the result types); a change to one of those copies
    it here first, as `_RefMonitors` is."""

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
        # The atoms of G in first-seen order; G only grows.
        self._atoms: dict[Atom, None] = {}
        self._heap = _RefDecideHeap(ordering, self._atoms)
        self.trail = RefTrail(self._heap.push)
        self.lc: Optional[Clause] = None
        self.stats = RunStats()
        self.trace: list[str] = []
        self._tracing = trace
        self.ground: list[Clause] = []
        self._ground_keys: set = set()
        self._instances_in_ground: dict[int, set] = {}
        # Each theory clause with its trigger patterns (the complements of
        # its selected literals) and their candidate keys.
        self._triggers = []
        for c in theory:
            patterns = [c.literals[p].complement()
                        for p in sorted(selection[c.cid])]
            keys = [_candidate_key(p) for p in patterns]
            self._triggers.append((c, patterns, keys))
        for c in ground:
            self._add_ground(c)
        self.monitors = _RefMonitors([*self.ground, *theory], self._atoms,
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
        new = [lit.atom for lit in slim.literals if lit.atom not in self._atoms]
        self._atoms.update(dict.fromkeys(new))
        self._heap.push(new)
        return slim

    def _emit(self, fmt: str, *args: object) -> None:
        # Formatted only when tracing: str() of a clause walks its terms.
        if self._tracing:
            self.trace.append(fmt.format(*args))

    def _unit_or_false(self, c: Clause) -> Optional[tuple[Literal, ...]]:
        """() if the trail falsifies c, (l,) if l is c's one unassigned
        literal and the rest are false, else None."""
        unit: tuple[Literal, ...] = ()
        for lit in c.literals:
            v = self.trail.value(lit)
            if v is True or (v is None and unit):
                return None
            if v is None:
                unit = (lit,)
        return unit

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

    def find_conflict(self) -> bool:
        """Conflict: some clause of G is fully falsified by the trail."""
        assert self.lc is None
        for c in self.ground:
            if self._unit_or_false(c) == ():
                self.lc = c
                self.stats.conflicts += 1
                if self.trail.level > 0:
                    self.stats.conflicts_above_level0 += 1
                self.monitors.conflict(self.trail, c)
                self._emit("conflict {} level={}", c, self.trail.level)
                return True
        return False

    def propagate(self) -> bool:
        """Propagate: a clause's sorted head is unassigned, the rest false."""
        assert self.lc is None
        for c in self.ground:
            unit = self._unit_or_false(c)
            if not unit:
                continue
            lit, = unit
            level = self.trail.level
            self.monitors.propagate(self.trail, c, lit)
            self.trail.push(lit, level, c)
            self.stats.propagates += 1
            self.monitors.step()
            self._emit("propagate {} level={} reason={}", lit, level, c)
            return True
        return False

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
        head, *rest = sort_clause(self.trail, self.lc)
        if self.trail.value(head) is not False:
            return False
        entry = self.trail.entry_for(head.complement())
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
        head, *rest = sort_clause(self.trail, self.lc)
        flipped = head.complement()
        reason = self.trail.entry_for(flipped).reason
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
        heads: dict[tuple[bool, str], list[Literal]] = {}
        for lit in self.trail.literals():
            heads.setdefault((lit.positive, lit.atom.pred), []).append(lit)
        by_key: dict[tuple, list[Literal]] = {}
        for c, patterns, keys in self._triggers:
            lists = []
            for key in keys:
                found = by_key.get(key)
                if found is None:
                    head, tops = key
                    found = heads.get(head, [])
                    for i, fn in tops:
                        found = [l for l in found if l.atom.args[i].fn == fn]
                    by_key[key] = found
                if not found:
                    break
                lists.append(found)
            else:
                # Enumerate matches exhaustively: earlier ones may be in G.
                result = self._search_all(patterns, lists, c)
                if result is not None:
                    return result
        return None

    def _search_all(self, patterns: list[Literal], lists: list[list[Literal]],
                    c: Clause) -> Optional[tuple[Clause, Substitution, Clause]]:
        """Find, depth-first in trail order, the first match of the patterns
        to their candidate lists whose instance of c is not in G.  Frame i
        holds the bindings of patterns < i and the candidates left for
        pattern i."""
        # Matches whose instance is known to be in G (which only grows).
        # Every full match binds the same variables in the same order, so
        # the bound terms alone identify it.
        in_ground = self._instances_in_ground.setdefault(c.cid, set())
        lists = [*lists, ()]  # for the frame of a full match
        frames = [({}, iter(lists[0]))]
        while frames:
            if time.monotonic() > self._deadline:
                raise BudgetExceeded("timeout exceeded")
            bindings, todo = frames[-1]
            if len(frames) <= len(patterns):
                pattern = patterns[len(frames) - 1]
                for lit in todo:
                    nxt = match_literal(pattern, lit, bindings)
                    if nxt is not None:
                        frames.append((nxt, iter(lists[len(frames)])))
                        break
                else:
                    frames.pop()
                continue
            frames.pop()
            match = tuple(bindings.values())
            if match in in_ground:
                continue
            theta = Substitution(bindings)
            instance = theta.apply_clause(c, origin="instance")
            assert instance.is_ground, (
                "valid selections cover all clause variables, so a full "
                "match grounds the clause")
            if _slim(instance).key not in self._ground_keys:
                return c, theta, instance
            in_ground.add(match)
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
                if self.stats.conflicts > MAX_CONFLICTS:
                    raise BudgetExceeded("conflict budget exceeded")
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
                elif not (self.find_conflict() or self.propagate()
                          or (self.mode == "lazy" and self.decide())
                          or self.instantiate_step() == "added"
                          or (self.mode == "eager" and self.decide())):
                    return finish(Verdict("sat", tuple(self.trail.literals())),
                                  "succeed")
        except BudgetExceeded as exc:
            return finish(Verdict("unknown", (), str(exc)), f"unknown ({exc})")

