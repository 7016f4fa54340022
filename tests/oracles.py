"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the solver
paths it checks: truth tables by exhaustive enumeration, Horn
satisfiability by forward-chaining to a least fixpoint, ground term
enumeration by direct recursion on the depth definition, and clause
subsumption for the encoded list representation by trying every atom
assignment.
"""

from __future__ import annotations

import itertools
import time
from functools import cmp_to_key
from typing import Iterable, Optional

from trigsat.corpus import CORPORA
from trigsat.models import ProductionRecord, filter_clause_indexed, int_of
from trigsat.ordering import Comparison, compare_clauses, compare_literals
from trigsat.parser import Problem, format_clause, parse_problem
from trigsat.pipeline import solve_problem
from trigsat.saturation import (Violation, factor, is_tautology, resolve,
                                subsumes)
from trigsat.terms import (App, Atom, Clause, Literal, Substitution, Term,
                           Var, match_literal, vars_of)


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
