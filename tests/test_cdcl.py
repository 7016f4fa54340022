"""CDCL engine: rule mechanics, worked runs, and oracle agreement."""

import dataclasses
import gc
import itertools
import math
import random
import time
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trigsat.cdcl
from trigsat.cdcl import (Budget, RunStats, Solver, Trail, Verdict,
                          _Monitors, sort_clause)
from trigsat.corpus import corpus_ordering, schur_problem
from trigsat.models import ProductionRecord, produce_model
from trigsat.ordering import Comparison, OrderingSpec, compare_atoms
from trigsat.parser import parse_problem
from trigsat.pipeline import SolveOptions, solve_problem
from trigsat.selection import STRATEGIES, SelectionError, auto_select
from trigsat.terms import (Atom, Clause, Literal, Substitution, Var, const,
                           fn, match_literal, vars_of)

from oracles import (
    RefSolver,
    clause,
    horn_sat,
    ref_decide_choice,
    ref_find_new_instance,
    ref_sort_clause,
    truth_table_sat,
)
from strategies import (
    PREDICATES,
    VARIABLES,
    ground_atoms,
    ground_literals,
    ground_substitutions,
    nested_clauses,
    nested_terms,
    orderings,
    terms,
    weight_orderings,
)

a, b = const("a"), const("b")
WEIGHT = OrderingSpec(kind="weight")
SUBTERM = OrderingSpec(kind="subterm")


def lit(name, positive=True, *args):
    return Literal(Atom(name, tuple(args)), positive)


def prop(name, positive=True):
    """Arity-0 atom, for plain SAT fixtures."""
    return Literal(Atom(name), positive)


def solver_for(ground, theory=(), selection=None, **kw):
    return Solver(ground=ground, theory=list(theory),
                  selection=selection or {}, ordering=WEIGHT, **kw)


class TestTrail:
    def test_cut_atom_is_unassigned_and_takes_the_other_polarity(self):
        cut = []
        trail = Trail(lambda entries: cut.extend(e.literal.atom
                                                  for e in entries))
        trail.push(prop("a"), 0, None)
        trail.push(prop("b", False), 1, None)
        trail.push(prop("c"), 1, None)
        trail.truncate_keep(1)
        assert cut == [Atom("b"), Atom("c")]
        for name in "bc":
            assert not trail.defines(Atom(name))
            assert trail.value(prop(name)) is None
            assert trail.count(prop(name)) == math.inf
        trail.push(prop("b"), 1, None)
        assert trail.value(prop("b")) is True
        assert trail.value(prop("b", False)) is False
        assert trail.count(prop("b", False)) == 2
        assert trail.level_of(prop("b", False)) == 1
        assert trail.entry_for(prop("b", False)).literal is prop("b")
        assert trail.value(prop("a")) is True


class TestSortClause:
    def test_later_assignment_sorts_first(self):
        trail = Trail()
        trail.push(prop("a", False), 0, None)
        trail.push(prop("b", False), 0, None)
        c = clause([prop("a"), prop("b")])
        assert sort_clause(trail, c) == (prop("b"), prop("a"))

    def test_unassigned_before_assigned(self):
        trail = Trail()
        trail.push(prop("b", False), 0, None)
        c = clause([prop("b"), prop("a")])
        assert sort_clause(trail, c) == (prop("a"), prop("b"))

    def test_singleton(self):
        trail = Trail()
        c = clause([prop("a")])
        assert sort_clause(trail, c) == (prop("a"),)

    def test_sort_is_a_recency_ordered_permutation(self):
        rng = random.Random(5)
        atoms = [Atom(f"x{i}") for i in range(8)]
        for _ in range(50):
            trail = Trail()
            for atom in rng.sample(atoms, rng.randint(0, 8)):
                trail.push(Literal(atom, rng.random() < 0.5), 0, None)
            lits = tuple(Literal(rng.choice(atoms), rng.random() < 0.5)
                         for _ in range(rng.randint(1, 6)))
            c = Clause(lits, origin="input-ground")
            ordered = sort_clause(trail, c)
            assert sorted(map(str, ordered)) == sorted(map(str, lits))
            counts = [trail.count(l) for l in ordered]
            assert counts == sorted(counts, reverse=True)

    @given(st.one_of(weight_orderings(), st.just(SUBTERM)),
           st.lists(ground_literals(max_depth=1), min_size=1, max_size=5),
           st.data())
    def test_matches_reference_where_the_rules_read(self, o, pool, data):
        # The rules read past the head only when at most one literal is
        # unassigned.  Only a tie between unassigned literals of distinct
        # atoms can leave the reference's atom-order tie-break.  Drawn
        # from a small pool, so that literals repeat and atoms occur in
        # both polarities.
        c = Clause(tuple(data.draw(st.lists(st.sampled_from(pool),
                                            min_size=1, max_size=7))))
        atoms = list(dict.fromkeys(l.atom for l in c.literals))
        trail = _trail_over(data.draw(st.lists(st.sampled_from(atoms),
                                               unique=True)))
        ordered = sort_clause(trail, c)
        assert sorted(map(str, ordered)) == sorted(map(str, c.literals))
        counts = [trail.count(l) for l in ordered]
        assert counts == sorted(counts, reverse=True)
        if len({l.atom for l in c.literals if trail.value(l) is None}) <= 1:
            assert ordered == ref_sort_clause(trail.count, c, o)


class TestDecide:
    def test_decides_smallest_atom_negatively(self):
        s = solver_for([clause([prop("a"), prop("b")])])
        assert s.decide()
        assert s.trail.literals() == [prop("a", False)]
        assert s.trail.level == 1

    def test_respects_prior_assignment(self):
        s = solver_for([clause([prop("a"), prop("b")])])
        s.trail.push(prop("a"), 0, None)
        assert s.decide()
        assert s.trail.literals()[-1] == prop("b", False)

    def test_nothing_to_decide(self):
        s = solver_for([clause([prop("a")])])
        s.trail.push(prop("a"), 0, None)
        assert not s.decide()


class TestMonitorsFire:
    """Each rule's report, driven with a hand-built trail, notes each
    breached monitor's exact message; the Horn and 2SAT monitors only when
    their fragment is on."""

    P, Q, R = (Atom(name, (a,)) for name in "pqr")
    PQ = Clause((Literal(P, True), Literal(Q, True)))  # 2SAT, not Horn
    HORN3 = Clause((Literal(P, False), Literal(Q, False), Literal(R, True)))

    def monitors(self, clauses, atoms=()):
        stats = RunStats()
        return _Monitors(clauses, list(atoms), stats), stats.monitor_violations

    def trail(self, *levels):
        """~p(a), ~q(a), ~r(a) decided at the given levels, in order."""
        t = Trail()
        for atom, level in zip((self.P, self.Q, self.R), levels):
            t.push(Literal(atom, False), level, None)
        return t

    def test_horn_conflict_above_level_zero(self):
        for clauses, expected in (([], ["horn monitor: conflict at level 1 "
                                        "on p(a) | q(a)"]),
                                  ([self.PQ], [])):
            m, violations = self.monitors(clauses)
            m.conflict(self.trail(1, 1), self.PQ)
            assert violations == expected

    def test_conflict_level(self):
        m, violations = self.monitors([self.PQ])
        m.conflict(self.trail(1, 2), self.PQ)
        assert violations == ["conflict-level monitor: two newest falsified "
                              "literals of p(a) | q(a) at different levels"]

    def test_unit_conflict(self):
        m, violations = self.monitors([self.PQ])
        m.conflict(self.trail(1), Clause((Literal(self.P, True),)))
        assert violations == ["unit-conflict monitor: unit clause p(a) "
                              "conflicting at level 1"]

    def test_propagation_level(self):
        m, violations = self.monitors([self.PQ])
        t = self.trail(1)
        t.push(Literal(self.R, False), 2, None)
        m.propagate(t, self.PQ, Literal(self.Q, True))  # before the push
        assert violations == ["propagation-level monitor: p(a) | q(a) "
                              "propagates q(a) at level 2 but its second "
                              "literal was falsified at level 1"]

    def test_step_count_resets_on_instantiate_and_learn(self):
        m, violations = self.monitors([self.PQ], [self.P, self.Q])
        unit = Clause((Literal(self.P, True),))
        for reset in (lambda: m.instantiate(unit, unit, 0),
                      lambda: m.learn(unit, 0, 0), lambda: None):
            m.decide(self.P, 1)
            m.propagate(Trail(), unit, unit.literals[0])
            reset()
        m.decide(self.P, 1)
        assert violations == ["step-count monitor: 3 decide/propagate steps "
                              "since the last instantiate/learn with 2 atoms"]

    def test_backjump_count_resets_on_conflict(self):
        m, violations = self.monitors([self.PQ], [self.P])
        unit = Clause((Literal(self.P, True),))
        for _ in range(2):
            m.conflict(Trail(), unit)
            m.backjump(unit, 0)
        m.backjump(unit, 0)
        assert violations == ["backjump-count monitor: 2 resolution steps "
                              "in one conflict with 1 atoms"]

    def test_level_zero_learned_clause(self):
        m, violations = self.monitors([self.HORN3])
        m.learn(self.PQ, 0, 0)
        assert violations == ["level-zero monitor: learned clause p(a) | q(a) "
                              "with 2 literals at level 0"]

    def test_twosat_learned_clause_of_two_literals(self):
        for clauses, expected in (([], ["2sat monitor: learned clause "
                                        "p(a) | q(a) has 2 literals"]),
                                  ([self.HORN3], [])):
            m, violations = self.monitors(clauses)
            m.learn(self.PQ, 1, 0)
            assert violations == expected

    def test_each_report_counts_its_rule_and_writes_its_line(self):
        stats, lines = RunStats(), []
        m = _Monitors([self.PQ], [self.P, self.Q], stats, lines.append)
        t, p, q = self.trail(1), Literal(self.P, True), Literal(self.Q, True)
        m.conflict(t, self.PQ)
        m.backjump(self.PQ, 1)
        m.learn(self.PQ, 1, 0)
        m.propagate(Trail(), self.PQ, q)
        m.decide(self.R, 1)
        m.instantiate(Clause((p,)), self.PQ, 1)
        m.finish("succeed")
        assert lines == ["conflict p(a) | q(a) level=1",
                         "backjump p(a) | q(a) level=1",
                         "learn p(a) | q(a) level=0",
                         "propagate q(a) level=0 reason=p(a) | q(a)",
                         "decide ~r(a) level=1",
                         "instantiate p(a) from p(a) | q(a) level=1",
                         "succeed"]
        counts = dataclasses.asdict(stats)
        del counts["wall_time"], counts["monitor_violations"]
        assert counts == dict(decides=1, propagates=1, conflicts=1,
                              backjumps=1, learns=1, instantiations=1,
                              conflicts_above_level0=1, learned_sizes=[2])

    def test_fragment_of_the_input_switches_horn_and_twosat(self):
        # A Horn and 2SAT ground part with a theory clause of 3 literals.
        horn3 = parse_problem("*~p(X) | ~q(X) | r(X)\np(a)\n")
        for ground, theory, expected in (
                ([self.HORN3], [], (True, False)),
                ([self.PQ], [], (False, True)),
                ([self.HORN3, self.PQ], [], (False, False)),
                ([], [], (True, True)),
                (horn3.ground, horn3.theory, (True, False))):
            m = solver_for(ground, theory, horn3.selection).monitors
            assert (m.horn, m.twosat) == expected


class TestPropagate:
    def test_unit_clause_propagates_at_level_zero(self):
        g = clause([lit("g", True, a, b)])
        s = solver_for([g])
        assert s.propagate()
        entry = s.trail.entries[0]
        assert entry.literal == lit("g", True, a, b)
        assert entry.level == 0
        assert entry.reason == g

    def test_pending_tail_false(self):
        big = clause([lit("q", False, fn("f", a), b),
                      lit("p", True, fn("f", a), fn("f", b))])
        s = solver_for([big])
        s.trail.push(lit("p", False, fn("f", a), fn("f", b)), 0, None)
        assert s.propagate()
        assert s.trail.literals()[-1] == lit("q", False, fn("f", a), b)

    def test_no_candidate(self):
        s = solver_for([clause([prop("a"), prop("b")])])
        assert not s.propagate()

    def test_satisfied_clause_does_not_propagate(self):
        s = solver_for([clause([prop("a"), prop("b")])])
        s.trail.push(prop("a"), 0, None)
        assert not s.propagate()


class TestConflict:
    def test_fully_falsified_unit(self):
        g = clause([prop("p")])
        s = solver_for([g])
        s.trail.push(prop("p", False), 0, None)
        assert s.propagate()
        assert s.lc == g

    def test_partial_clause_is_no_conflict(self):
        s = solver_for([clause([prop("p"), prop("q")])])
        s.trail.push(prop("p", False), 0, None)
        assert s.propagate()
        assert s.lc is None
        assert s.trail.literals()[-1] is prop("q")

    def test_conflict_wins_over_an_earlier_unit_clause(self):
        unit = clause([prop("r", False)])
        s = solver_for([clause([prop("p"), prop("q")]), unit])
        s.trail.push(prop("p", False), 0, None)
        s.trail.push(prop("r"), 0, None)
        assert s.propagate()
        assert s.lc == unit
        assert s.trail.literals() == [prop("p", False), prop("r")]

    def test_empty_clause_conflicts_then_fails(self):
        bottom = Clause((), origin="input-ground")
        s = solver_for([bottom])
        result = s.run()
        assert result.verdict.kind == "unsat"


class TestBackjumpLearn:
    def unsat_pair(self):
        # x via unit, ~x via a two-clause chain through y.
        return [
            clause([prop("x")]),
            clause([prop("y")]),
            clause([prop("x", False), prop("y", False)]),
        ]

    def test_level_zero_conflict_resolves_to_bottom(self):
        s = solver_for(self.unsat_pair())
        result = s.run()
        assert result.verdict.kind == "unsat"
        assert s.stats.conflicts >= 1

    def test_backjump_resolves_with_reason(self):
        # Reason z | x propagated x after deciding ~z is rewritten into
        # the conflict in place of ~x.
        reason = clause([prop("x"), prop("z")])
        conflict = clause([prop("x", False), prop("y", False)])
        s = solver_for([reason, conflict])
        s.trail.push(prop("y"), 0, None)
        s.trail.push(prop("z", False), 1, None)
        s.trail.push(prop("x"), 1, reason)
        assert s.propagate()
        assert s.lc == conflict
        # ~x is the only literal at the conflict level: Learn applies.
        assert s.backjump_applicable() is False
        s.backjump_step()
        assert s.lc == clause([prop("z"), prop("y", False)])

    def test_backjump_applies_when_two_literals_share_the_conflict_level(self):
        reason_x = clause([prop("x"), prop("z")])
        reason_y = clause([prop("y"), prop("z")])
        conflict = clause([prop("x", False), prop("y", False)])
        s = solver_for([reason_x, reason_y, conflict])
        s.trail.push(prop("z", False), 1, None)
        s.trail.push(prop("x"), 1, reason_x)
        s.trail.push(prop("y"), 1, reason_y)
        assert s.propagate()
        assert s.lc == conflict
        assert s.backjump_applicable() is True
        s.backjump_step()
        assert s.lc == clause([prop("z"), prop("x", False)])

    def test_learn_unit_restarts_trail(self):
        s = solver_for(self.unsat_pair())
        s.lc = clause([prop("x", False)])
        s.trail.push(prop("x"), 0, None)
        s.learn()
        assert s.trail.literals() == []
        assert clause([prop("x", False)]) in s.ground

    def test_learn_two_literal_clause_truncates(self):
        s = solver_for([clause([prop("p"), prop("q"), prop("r")])])
        s.trail.push(prop("p", False), 1, None)
        s.trail.push(prop("q", False), 2, None)
        s.trail.push(prop("r", False), 2,
                     clause([prop("r", False), prop("q", False)]))
        s.lc = clause([prop("p"), prop("q")])
        s.learn()
        # Cut to just after the second-newest falsifier (~p at level 1).
        assert s.trail.literals() == [prop("p", False)]
        assert s.trail.level == 1


class TestInstantiate:
    def goodsel(self, ground_lines):
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "~q(X2, Y2) | *p(X2, f(Y2))\n" + ground_lines)
        problem = parse_problem(text)
        return problem

    def test_first_instance_of_chain(self):
        problem = self.goodsel("~p(f(a), f(b))\n")
        s = Solver(ground=problem.ground, theory=problem.theory,
                   selection=dict(problem.selection), ordering=WEIGHT)
        s.propagate()
        assert s.instantiate_step() == "added"
        added = s.ground[-1]
        assert added == clause([lit("q", False, fn("f", a), b),
                                lit("p", True, fn("f", a), fn("f", b))])

    def test_no_instance_without_matching_complement(self):
        problem = self.goodsel("p(a, b)\n")
        s = Solver(ground=problem.ground, theory=problem.theory,
                   selection=dict(problem.selection), ordering=WEIGHT)
        s.propagate()
        assert s.instantiate_step() == "none"

    def test_all_negative_triggers_silent_on_negated_fact(self):
        # With the q-side triggers negative, a falsified p-atom matches
        # no trigger complement and nothing fires.
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "*~q(X2, Y2) | p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n")
        problem = parse_problem(text)
        s = Solver(ground=problem.ground, theory=problem.theory,
                   selection=dict(problem.selection), ordering=WEIGHT)
        s.propagate()
        assert s.instantiate_step() == "none"

    def test_existing_instances_are_skipped(self):
        problem = self.goodsel("~p(f(a), f(b))\n")
        s = Solver(ground=problem.ground, theory=problem.theory,
                   selection=dict(problem.selection), ordering=WEIGHT)
        s.propagate()
        assert s.instantiate_step() == "added"
        s.propagate()
        assert s.instantiate_step() == "added"  # the second chain step
        s.propagate()
        assert s.instantiate_step() == "none"  # saturated now

    def test_matching_backtracks_across_trail_candidates(self):
        # The first r-match (a) cannot extend to the s-trigger, so the
        # search must back up and take r(b).
        text = "*~r(X) | *~s(X) | t(X)\n"
        problem = parse_problem(text)
        ground = [clause([lit("r", True, a)]),
                  clause([lit("r", True, b)]),
                  clause([lit("s", True, b)])]
        s = Solver(ground=ground, theory=problem.theory,
                   selection=dict(problem.selection), ordering=WEIGHT)
        while s.propagate():
            pass
        assert s.instantiate_step() == "added"
        assert s.ground[-1] == clause([lit("r", False, b),
                                       lit("s", False, b),
                                       lit("t", True, b)])

    def test_one_witness_may_serve_two_triggers(self):
        # Both selected negatives match the same trail literal.
        text = "*~r(X) | *~r(Y) | s(X, Y)\nr(a)\n"
        problem = parse_problem(text)
        s = Solver(ground=problem.ground, theory=problem.theory,
                   selection=dict(problem.selection), ordering=WEIGHT)
        s.propagate()
        assert s.instantiate_step() == "added"
        # The engine's clause database merges duplicate literals.
        assert s.ground[-1] == clause([lit("r", False, a),
                                       lit("s", True, a, a)])


def _nested_literal(term_st):
    return st.one_of([st.builds(
        lambda pred, args, positive: Literal(Atom(pred, tuple(args)),
                                             positive),
        st.just(pred), st.lists(term_st, min_size=arity, max_size=arity),
        st.booleans()) for pred, arity in sorted(PREDICATES.items())])


@st.composite
def trigger_setups(draw):
    """(theory, selection, trail, ground): theory clauses with 1-3 selected
    literals over nested terms, sharing variables; a trail that holds
    instances of their trigger patterns among other ground literals of
    the same predicates, in both polarities; and a G that already holds
    some instances of the theory."""
    ground_terms = terms(max_depth=2, variables=(), unary=("g", "h"))
    theory, selection = [], {}
    for _ in range(draw(st.integers(1, 3))):
        selected = draw(st.lists(_nested_literal(nested_terms(5)),
                                 min_size=1, max_size=3))
        # A valid selection covers every variable of its clause.
        covered = sorted(vars_of(selected), key=lambda v: v.name)
        c = Clause(tuple(selected) + (Literal(Atom("s", tuple(covered))),),
                   origin="input-nonground")
        theory.append(c)
        selection[c.cid] = frozenset(range(len(selected)))
    thetas = [Substitution(dict(zip(
        (Var(v) for v in VARIABLES),
        draw(st.lists(ground_terms, min_size=3, max_size=3)))))
        for _ in range(draw(st.integers(1, 3)))]
    pairs = [(c, theta) for c in theory for theta in thetas]
    trail = [theta(c.literals[i]).complement()
             for c, theta in draw(st.lists(st.sampled_from(pairs),
                                           min_size=1))
             for i in sorted(selection[c.cid])]
    trail += draw(st.lists(_nested_literal(ground_terms), max_size=6))
    trail = list({l.atom: l for l in draw(st.permutations(trail))}.values())
    ground = [theta(c) for c, theta in draw(st.lists(st.sampled_from(pairs)))]
    return theory, selection, trail, ground


def _shares_key(pattern, lit):
    """Polarity, predicate and the top symbol at every non-variable
    argument of the pattern agree."""
    return (pattern.positive == lit.positive
            and pattern.atom.pred == lit.atom.pred
            and all(isinstance(p, Var) or p.fn == t.fn
                    for p, t in zip(pattern.atom.args, lit.atom.args)))


class TestCandidateListsAgainstReference:
    @settings(max_examples=100)
    @given(trigger_setups())
    def test_same_first_instance_as_whole_trail_scan(self, setup):
        theory, selection, trail, ground = setup
        s = Solver(ground=ground, theory=theory, selection=selection,
                   ordering=WEIGHT)
        for trail_lit in trail:
            s.trail.push(trail_lit, 0, None)
        calls = []

        def recording(pattern, target, bindings=None):
            calls.append((pattern, target))
            return match_literal(pattern, target, bindings)

        # Each new instance goes into G, so later rounds must skip it.
        for _ in range(4):
            with mock.patch.object(trigsat.cdcl, "match_literal", recording):
                got = s._find_new_instance()
            want = ref_find_new_instance(theory, selection, trail, s.ground)
            assert all(_shares_key(p, t) for p, t in calls)
            if want is None:
                assert got is None
                break
            assert got is not None
            assert (got[0].cid, dict(got[1]), got[2].literals) == \
                (want[0].cid, dict(want[1]), want[2].literals)
            s._add_ground(got[2])

    @settings(max_examples=200)
    @given(trigger_setups(), st.data())
    def test_same_first_instance_after_cuts_and_repushes(self, setup, data):
        # The candidate lists and the memo of exhausted matches outlive a
        # call; a cut must drop what it unassigned, and a literal pushed
        # again must count as new.
        theory, selection, pool, ground = setup
        s = Solver(ground=ground, theory=theory, selection=selection,
                   ordering=WEIGHT)
        for trail_lit in pool:
            s.trail.push(trail_lit, 0, None)
        for _ in range(data.draw(st.integers(1, 6))):
            got = s._find_new_instance()
            want = ref_find_new_instance(theory, selection,
                                         s.trail.literals(), s.ground)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got[0].cid, dict(got[1]), got[2].literals) == \
                    (want[0].cid, dict(want[1]), want[2].literals)
                s._add_ground(got[2])
            s.trail.truncate_keep(data.draw(
                st.integers(0, len(s.trail.entries))))
            free = [l for l in pool if not s.trail.defines(l.atom)]
            for trail_lit in data.draw(st.permutations(free)):
                if data.draw(st.booleans()):
                    s.trail.push(trail_lit, 0, None)


_PENDING_ATOMS = [Atom(f"x{i}") for i in range(5)]
_pending_literals = st.builds(Literal, st.sampled_from(_PENDING_ATOMS),
                              st.booleans())
# One to three literals, an atom possibly in both polarities; G merges
# repeated literals.  No empty clause: it is falsified under every trail,
# so once in G it would be the answer to every later check.
_pending_clauses = st.builds(
    lambda lits, origin: Clause(tuple(lits), origin=origin),
    st.lists(_pending_literals, min_size=1, max_size=3),
    st.sampled_from(("input-ground", "instance", "learned")))


def _scan_first(ground, trail_literals):
    """(0, index) of the first clause of G with every literal false, else
    (1, index) of the first with none true and one unassigned, else None:
    the scan that the pending-clause index replaces."""
    true = set(trail_literals)
    first = [None, None]
    for i, c in enumerate(ground):
        if any(l in true for l in c.literals):
            continue
        free = sum(l.complement() not in true for l in c.literals)
        if free < 2 and first[free] is None:
            first[free] = i
    return next(((free, i) for free, i in enumerate(first) if i is not None),
                None)


class TestPendingAgainstScan:
    """After every push, cut and new clause, the pending-clause index names
    the clause a scan finds, and its atoms are G's in first-seen order."""

    @settings(max_examples=200)
    @given(st.lists(_pending_clauses, max_size=6), st.data())
    def test_same_first_clauses_as_a_scan(self, ground, data):
        s = solver_for(ground)
        pending = s._pending
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(
                ("push", "push", "push", "cut", "clear", "add")))
            if op == "push":
                free = [x for x in _PENDING_ATOMS if not s.trail.defines(x)]
                if free:
                    s.trail.push(Literal(data.draw(st.sampled_from(free)),
                                         data.draw(st.booleans())), 0, None)
            elif op == "cut":
                s.trail.truncate_keep(data.draw(
                    st.integers(0, len(s.trail.entries))))
            elif op == "clear":
                s.trail.clear()
            elif op == "add":
                s._add_ground(data.draw(_pending_clauses))
            assert pending.first() == _scan_first(s.ground,
                                                  s.trail.literals())
            assert list(pending.occurs) == list(dict.fromkeys(
                l.atom for c in s.ground for l in c.literals))


def _chain_text(k):
    """The two-clause p/q theory that walks one step of f^k(a), f^k(b) per
    instantiation, as in scripts/chain_growth.py."""
    s, t = "f(" * k + "a" + ")" * k, "f(" * k + "b" + ")" * k
    return ("~p(X1, Y1) | *q(f(X1), Y1)\n"
            "~q(X2, Y2) | *p(X2, f(Y2))\n"
            f"~p({s}, {t})\n")


class TestWorkedRuns:
    def run_text(self, text, **options):
        problem = parse_problem(text)
        opts = SolveOptions(**options)
        return solve_problem(problem, opts)

    def test_successor_theory_is_certified_sat(self):
        result = self.run_text("*g(s(X), X)\n*~g(X, X)\ng(a, b)\n")
        assert result.verdict_line == "sat"
        assert lit("g", True, a, b) in result.model

    def test_goodsel_replay_matches_recorded_instantiations(self):
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "~q(X2, Y2) | *p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n")
        lines = []
        result = self.run_text(text, trace=lines.append)
        assert result.verdict_line == "sat"
        inst_lines = [l for l in lines
                      if l.startswith("instantiate")]
        assert len(inst_lines) == 2
        assert "~q(f(a), b) | p(f(a), f(b))" in inst_lines[0]
        assert "~p(a, b) | q(f(a), b)" in inst_lines[1]
        assert set(result.model) == {
            lit("p", False, fn("f", a), fn("f", b)),
            lit("q", False, fn("f", a), b),
            lit("p", False, a, b),
        }

    def test_exact_budget_does_not_spoil_a_finishing_run(self):
        # Two instantiations and done: a budget of exactly two must not
        # turn the verdict into unknown.
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "~q(X2, Y2) | *p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n")
        result = self.run_text(
            text, budget=Budget(max_instantiations=2))
        assert result.verdict_line == "sat"
        assert result.run.stats.instantiations == 2

    def test_chain_matches_a_few_literals_per_instantiation(self):
        # A returned match goes into the memo, and matches whose instance G
        # already holds are not matched again, so the chain makes one match
        # per instantiation.
        k = 60
        calls = []

        def counting(pattern, target, bindings=None):
            calls.append(pattern)
            return match_literal(pattern, target, bindings)

        with mock.patch.object(trigsat.cdcl, "match_literal", counting):
            result = self.run_text(_chain_text(k), ordering=SUBTERM)
        assert result.verdict_line == "sat"
        assert result.run.stats.instantiations == 2 * k
        assert len(calls) <= result.run.stats.instantiations + 2

    @pytest.mark.parametrize("k", [60, 250, 1000])
    def test_chain_search_work_per_instantiation_is_constant(self, k):
        # Clean clauses are skipped and candidate lists resume after their
        # memo stamp, so the memo lookups plus matches per instantiation do
        # not grow with k.  A walk over every old candidate made about 750
        # per instantiation at k = 1000.
        problem = parse_problem(_chain_text(k))
        s = Solver(ground=problem.ground, theory=problem.theory,
                   selection=dict(problem.selection), ordering=SUBTERM)
        work = []

        class CountingMemo(dict):
            def get(self, key, default=None):
                work.append(key)
                return super().get(key, default)

        s._triggers = [(c, patterns, keys, CountingMemo())
                       for c, patterns, keys, _ in s._triggers]

        def counting(pattern, target, bindings=None):
            work.append(pattern)
            return match_literal(pattern, target, bindings)

        with mock.patch.object(trigsat.cdcl, "match_literal", counting):
            result = s.run()
        assert result.verdict.kind == "sat"
        assert result.stats.instantiations == 2 * k
        assert len(work) <= 4 * result.stats.instantiations

    def test_conflict_and_propagate_read_a_few_literals_per_step(self):
        # The pending-clause index reads only the clause it picks, so the
        # reads per rule application do not grow with G.  The scan of G
        # that it replaced made 236,273 `Trail.value` calls on this run,
        # 172 per step; the index makes 1,925.
        calls = []
        value = Trail.value

        def counting(trail, lit):
            calls.append(lit)
            return value(trail, lit)

        with mock.patch.object(Trail, "value", counting):
            result = solve_problem(schur_problem(6), SolveOptions(
                ordering=corpus_ordering("settheory")))
        stats = result.run.stats
        steps = (stats.decides + stats.propagates + stats.conflicts
                 + stats.backjumps + stats.learns + stats.instantiations)
        assert result.verdict_line == "sat"
        assert (steps, len(result.run.final_ground)) == (1373, 188)
        assert len(calls) <= 2 * steps

    def test_divergent_triggers_hit_instantiation_budget(self):
        text = ("*~p(X1, Y1) | q(f(X1), Y1)\n"
                "*~q(X2, Y2) | p(X2, f(Y2))\n"
                "p(a, a)\n")
        result = self.run_text(
            text, budget=Budget(max_instantiations=40))
        assert result.verdict_line == "unknown"
        assert "instantiation budget" in result.run.verdict.reason

    def test_past_deadline_answers_unknown(self):
        lines = []
        s = solver_for([clause([prop("a")])], trace=lines.append,
                       deadline=time.monotonic() - 1)
        result = s.run()
        assert result.verdict == Verdict("unknown", (), "timeout exceeded")
        assert lines == ["unknown (timeout exceeded)"]

    def test_trace_lines_stream_before_the_run_returns(self):
        class Sentinel(Exception):
            pass

        def sink(line):
            raise Sentinel(line)

        s = solver_for([clause([prop("a")])], trace=sink)
        with pytest.raises(Sentinel, match=r"^propagate a level=0 reason=a$"):
            s.run()
        result = solver_for([clause([prop("a")])]).run()
        assert "trace" not in {f.name for f in dataclasses.fields(result)}

    def test_eager_mode_reaches_the_same_verdicts(self):
        chain = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                 "~q(X2, Y2) | *p(X2, f(Y2))\n"
                 "~p(f(a), f(b))\n")
        lazy = self.run_text(chain)
        eager = self.run_text(chain, instantiate="eager")
        assert lazy.verdict_line == eager.verdict_line == "sat"
        assert set(lazy.model) == set(eager.model)

    def test_eager_mode_fires_before_decisions(self):
        # With an undecided extra atom, eager instantiation happens while
        # lazy mode would first decide it.
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "~q(X2, Y2) | *p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n"
                "r(c) | r(d)\n")
        trace = []
        result = self.run_text(text, instantiate="eager",
                               trace=trace.append)
        assert result.verdict_line == "sat"
        first_decide = next(i for i, l in enumerate(trace)
                            if l.startswith("decide"))
        first_inst = next(i for i, l in enumerate(trace)
                          if l.startswith("instantiate"))
        assert first_inst < first_decide

    def test_repaired_chain_with_contradictory_pair_is_unsat(self):
        # With the chain clause added and its larger literal selected, the
        # solver sees through the once-hidden contradiction.
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "*~q(X2, Y2) | p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n"
                "p(a, b)\n")
        result = self.run_text(text, extend_select="max")
        assert result.verdict_line == "unsat"


def random_ground_clauses(rng, n_atoms, n_clauses, max_len,
                          horn=False, twosat=False):
    atoms = [Atom(f"x{i}") for i in range(n_atoms)]
    out = []
    for _ in range(n_clauses):
        size = rng.randint(1, max_len)
        lits = []
        seen = set()
        positives = 0
        for _ in range(size):
            atom = rng.choice(atoms)
            if atom in seen:
                continue
            seen.add(atom)
            positive = rng.random() < 0.5
            if horn and positive and positives >= 1:
                positive = False
            positives += int(positive)
            lits.append(Literal(atom, positive))
        if twosat:
            lits = lits[:2]
        if lits:
            out.append(Clause(tuple(lits), origin="input-ground"))
    return out


class TestGroundOracleAgreement:
    def test_matches_truth_table_on_small_instances(self):
        rng = random.Random(20240817)
        for trial in range(120):
            clauses_ = random_ground_clauses(rng, n_atoms=rng.randint(1, 8),
                                             n_clauses=rng.randint(1, 14),
                                             max_len=4)
            s = solver_for(clauses_)
            result = s.run()
            expected = truth_table_sat(clauses_)
            assert result.verdict.kind == ("sat" if expected else "unsat"), \
                f"trial {trial}: {[str(c) for c in clauses_]}"
            if expected is not None and result.verdict.kind == "sat":
                model = {l.atom: l.positive for l in result.verdict.model}
                for c in clauses_:
                    assert any(model.get(l.atom) == l.positive
                               for l in c.literals)

    def test_horn_runs_match_fixpoint_oracle(self):
        rng = random.Random(7)
        for _ in range(80):
            clauses_ = random_ground_clauses(rng, n_atoms=rng.randint(2, 12),
                                             n_clauses=rng.randint(2, 20),
                                             max_len=4, horn=True)
            s = solver_for(clauses_)
            assert s.monitors.horn
            result = s.run()
            assert result.verdict.kind == \
                ("sat" if horn_sat(clauses_) else "unsat")
            assert s.stats.conflicts_above_level0 == 0
            assert s.stats.monitor_violations == []


@st.composite
def whole_run_inputs(draw):
    """Solver arguments: a theory over `nested_terms` with `auto_select`
    selections ("all" where the drawn strategy does not apply), a ground
    part over instances of it and a few other atoms, a drawn order and
    mode, and caps small enough to fire in some runs, or a past deadline."""
    o = draw(st.one_of(orderings("weight"), orderings("subterm")))
    theory, selection = [], {}
    for c in draw(st.lists(nested_clauses(max_size=3, max_leaves=3),
                           min_size=1, max_size=3)):
        if c.is_ground:
            continue
        try:
            selection[c.cid] = auto_select(
                c, o, draw(st.sampled_from(STRATEGIES)))
        except SelectionError:
            selection[c.cid] = auto_select(c, o, "all")
        theory.append(c)
    pool = draw(st.lists(ground_atoms(max_depth=1), min_size=2, max_size=6))
    for c in theory:
        for _ in range(draw(st.integers(0, 2))):
            theta = draw(ground_substitutions(max_depth=1))
            pool += [l.atom for l in theta(c).literals]
    pool = list(dict.fromkeys(pool))
    rng = draw(st.randoms(use_true_random=True))
    ground = []  # mostly of three literals, up to the hard 3-SAT ratio
    for _ in range(rng.randint(1, 4 * len(pool) + 4)):
        size = min(len(pool), rng.choice((1, 2, 2, 3, 3, 3, 3, 3, 3, 3)))
        ground.append(Clause(tuple(Literal(x, rng.random() < 0.5)
                                   for x in rng.sample(pool, size)),
                             origin="input-ground"))
    budget = Budget(max_instantiations=draw(st.integers(0, 12)),
                    max_clauses=len(ground) + draw(st.integers(0, 40)))
    deadline = draw(st.sampled_from((None, None, None, 0.0)))  # 0.0: past
    return dict(ground=ground, theory=theory, selection=selection,
                ordering=o, instantiate_mode=draw(st.sampled_from(
                    ("lazy", "eager"))), budget=budget, deadline=deadline)


_CONSTANTS = (a, b, const("c"))
# Each variable twice, so that most arguments are variables.
_FLAT_ARGS = (Var("X"), Var("Y"), Var("X"), Var("Y"), *_CONSTANTS)


@st.composite
def memo_run_inputs(draw):
    """Solver arguments biased toward runs whose instantiation search
    exhausts a clause, has the trail cut below what it matched, and then
    meets a pushed literal that makes a new match.  The theory is three to
    six function-free clauses over a, b and c whose selected literals come
    first and cover their variables.  The ground part is short clauses of
    mostly negative literals, so that the theory drives the run, that name
    each atom of its pool once; the instantiation cap seldom ends the run
    first."""
    o = draw(st.one_of(orderings("weight"), orderings("subterm")))

    def literals(polarity, **kw):
        return st.lists(st.builds(
            lambda pred, args, positive: Literal(
                Atom(pred, tuple(args[:PREDICATES[pred]])), positive),
            st.sampled_from(sorted(PREDICATES)),
            st.lists(st.sampled_from(_FLAT_ARGS), min_size=2, max_size=2),
            polarity), unique_by=lambda l: l.atom, **kw)

    theory, selection = [], {}
    for _ in range(draw(st.integers(3, 6))):
        # Decisions set atoms false, so positive selected literals, whose
        # trigger patterns are negative, are the ones that match often.
        selected = draw(literals(st.sampled_from((True, True, False)),
                                 min_size=1, max_size=3))
        rest = [l for l in draw(literals(st.booleans(), max_size=2))
                if vars_of([l]) <= vars_of(selected)
                and l.atom not in {s.atom for s in selected}]
        c = Clause(tuple(selected + rest), origin="input-nonground")
        if not c.is_ground:
            theory.append(c)
            selection[c.cid] = frozenset(range(len(selected)))
    # Most draws put every atom there is in G from the start: a full trail
    # then has the same length each time, and only stamps tell a literal
    # pushed again after a cut from the one it replaced.
    universe = [Atom(pred, args) for pred, arity in sorted(PREDICATES.items())
                for args in itertools.product(_CONSTANTS, repeat=arity)]
    pool = universe if draw(st.integers(0, 3)) else draw(st.lists(
        st.sampled_from(universe), min_size=2, max_size=6, unique=True))
    rng = draw(st.randoms(use_true_random=True))
    todo, ground = rng.sample(pool, len(pool)), []
    while todo:
        size = min(rng.randint(1, 3), len(todo))
        ground.append(Clause(tuple(Literal(todo.pop(), rng.random() < 0.25)
                                   for _ in range(size)),
                             origin="input-ground"))
    return dict(ground=ground, theory=theory, selection=selection,
                ordering=o, instantiate_mode=draw(st.sampled_from(
                    ("lazy", "eager"))),
                budget=Budget(max_instantiations=draw(st.integers(10, 40))))


def _run_record(r, trace):
    """What a run must reproduce: everything but the wall time."""
    stats = dataclasses.asdict(r.stats)
    del stats["wall_time"]
    return (r.verdict, stats, trace,
            [(c.literals, c.origin) for c in r.final_ground])


# Drawn inputs seldom make a learned clause the conflict clause.  Here a
# unit instance clears the trail, and on the way back an input clause
# propagates the literal that falsifies the first learned clause.
_LEARNED_CONFLICT = parse_problem("""*~r(f(X, Z))
r(g(b)) | r(f(f(g(b), b), g(b)))
r(g(b)) | q(f(a, a)) | ~r(f(f(g(b), b), g(b)))
q(f(a, a)) | r(f(g(b), f(a, b))) | ~r(g(b))
""")


class TestWholeRunsAgainstReference:
    """The engine must make `RefSolver`'s choices at every step: the same
    verdict and model, rule counts, monitor messages, trace lines and G in
    the same order.  Half the draws come from `memo_run_inputs`, which
    reach the cases the instantiation memo must get right."""

    @settings(max_examples=400)
    @given(st.one_of(whole_run_inputs(), memo_run_inputs()))
    @example(dict(ground=_LEARNED_CONFLICT.ground,
                  theory=_LEARNED_CONFLICT.theory,
                  selection=_LEARNED_CONFLICT.selection,
                  ordering=OrderingSpec(kind="weight", precedence=("a",),
                                        weights={"b": 3, "f": 2},
                                        precedence_dominant=True)))
    def test_same_run_as_reference(self, kw):
        lines = []
        run = Solver(**kw, trace=lines.append).run()
        ref = RefSolver(**kw, trace=True).run()
        assert _run_record(run, lines) == _run_record(ref, ref.trace)


class TestComplementSlot:
    def test_complement_identity(self):
        pos = lit("slot_p", True, fn("f", a))
        neg = pos.complement()
        assert neg is Literal(pos.atom, False)
        assert neg.atom is pos.atom and not neg.positive
        assert neg.complement() is pos
        assert pos.complement() is neg
        fresh = lit("slot_q", False, b)  # the slot filled from either side
        assert fresh.complement().complement() is fresh

    def test_unreferenced_pair_is_collected(self):
        # The two literals refer to each other, and nothing else to them.
        atom = Atom("slot_gc", (fn("slot_f", const("slot_c")),))
        pos = Literal(atom)
        refs = [weakref.ref(x) for x in (atom, pos, pos.complement())]
        del atom, pos
        gc.collect()
        assert [r() for r in refs] == [None, None, None]
        again = Literal(Atom("slot_gc", (fn("slot_f", const("slot_c")),)))
        assert again.complement().complement() is again
        assert again.complement() is Literal(again.atom, False)


def _trail_over(assigned):
    trail = Trail()
    for i, atom in enumerate(assigned):
        trail.push(Literal(atom, i % 2 == 0), i // 2, None)
    return trail


class TestOrderKeysAgainstReference:
    """Under weight orderings, `decide` uses order keys; it must pick as
    the pairwise-comparison code did."""

    @given(weight_orderings(), st.lists(ground_atoms(max_depth=2), min_size=1,
                                        max_size=8, unique=True), st.data())
    def test_decide_matches_reference_scan(self, o, pool, data):
        assigned = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                      max_size=len(pool) - 1))
        s = Solver(ground=[Clause(tuple(Literal(x) for x in pool))],
                   theory=[], selection={}, ordering=o)
        s.trail = _trail_over(assigned)
        assert s.decide()
        best = ref_decide_choice(o, [x for x in pool if x not in assigned])
        assert s.trail.literals()[-1] is Literal(best, False)


class TestSubtermDecideAgainstReference:
    """Under the subterm order `decide` pops the least order key, a total
    extension of the order: the atom it sets false is minimal among G's
    unassigned atoms, and the key breaks ties between incomparable minima."""

    def test_incomparable_minima(self):
        pab, pba = Atom("p", (a, b)), Atom("p", (b, a))
        s = Solver(ground=[Clause((Literal(pba), Literal(pab)))],
                   theory=[], selection={}, ordering=SUBTERM)
        assert s.decide()
        assert s.trail.literals() == [Literal(pab, False)]

    @given(orderings("subterm"), st.lists(ground_atoms(max_depth=2),
                                          min_size=1, max_size=8,
                                          unique=True), st.data())
    def test_decided_atom_is_minimal(self, o, pool, data):
        assigned = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                      max_size=len(pool) - 1))
        s = Solver(ground=[Clause(tuple(Literal(x) for x in pool))],
                   theory=[], selection={}, ordering=o)
        s.trail = _trail_over(assigned)
        assert s.decide()
        best = s.trail.literals()[-1]
        assert not best.positive and best.atom not in assigned
        assert not any(compare_atoms(o, x, best.atom) is Comparison.LT
                       for x in pool if x not in assigned)


class TestDecideHeap:
    """Under weight orderings `decide` pops a heap that trail cuts and new
    atoms of G refill; it must pick as the scan over G's atoms did."""

    @given(weight_orderings(), st.lists(ground_atoms(max_depth=2), min_size=2,
                                        max_size=8, unique=True), st.data())
    def test_every_decide_matches_reference_scan(self, o, pool, data):
        # Atoms of the pool outside G may enter G later.  The trail takes
        # atoms of G only, as in a run: a cut pushes its atoms unchecked.
        in_g = pool[:data.draw(st.integers(1, len(pool)))]
        s = Solver(ground=[Clause(tuple(Literal(x) for x in in_g))],
                   theory=[], selection={}, ordering=o)
        some_clause = st.builds(
            lambda atoms, signs: Clause(tuple(map(Literal, atoms, signs))),
            st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                     unique=True), st.lists(st.booleans(), min_size=3))
        ops = ("decide", "propagate", "learn", "instantiate", "cut", "clear")
        for op in data.draw(st.lists(st.sampled_from(ops), max_size=30)):
            g_atoms = {l.atom for c in s.ground for l in c.literals}
            unassigned = [x for x in pool
                          if x in g_atoms and not s.trail.defines(x)]
            if op == "decide":
                assert s.decide() == bool(unassigned)
                if unassigned:
                    best = ref_decide_choice(o, unassigned)
                    assert s.trail.literals()[-1] is Literal(best, False)
            elif op == "propagate" and unassigned:
                s.trail.push(Literal(data.draw(st.sampled_from(unassigned)),
                                     data.draw(st.booleans())),
                             s.trail.level, s.ground[0])
            elif op == "learn":
                s.lc = data.draw(some_clause)
                s.learn()
            elif op == "instantiate":
                added = s._add_ground(data.draw(some_clause))
                if added is not None:
                    s._rewind(added)
            elif op == "cut":
                s.trail.truncate_keep(
                    data.draw(st.integers(0, len(s.trail.entries))))
            elif op == "clear":
                s.trail.clear()

    def test_atom_entering_g_while_assigned_returns_after_a_cut(self):
        pa, pb, pc = prop("a"), prop("b"), prop("c")
        s = solver_for([clause([pc])])
        s.trail.push(pa, 0, None)  # a is not in G yet
        s._add_ground(clause([pa, pb]))
        while s.decide():
            pass
        assert len(s.trail.entries) == 3
        s.trail.clear()
        left = [pa.atom, pb.atom, pc.atom]
        while left:
            assert s.decide()
            best = ref_decide_choice(WEIGHT, left)
            assert s.trail.literals()[-1] is Literal(best, False)
            left.remove(best)


def nest(depth, t):
    for _ in range(depth):
        t = fn("f", t)
    return t


class TestDeepAtomsOfEqualWeight:
    """Depth 5000 is far past Python's recursion limit; the two atoms weigh
    the same, so their keys differ only at the bottom."""

    DEEP_A = Atom("p", (nest(5000, a),))
    DEEP_B = Atom("p", (nest(5000, b),))

    def test_decide(self):
        s = solver_for([Clause((Literal(self.DEEP_B), Literal(self.DEEP_A)))])
        assert s.decide()
        assert s.trail.literals() == [Literal(self.DEEP_A, False)]

    def test_decide_under_subterm_order(self):
        # Incomparable: the key picks the one ending in a.
        s = Solver(ground=[Clause((Literal(self.DEEP_B),
                                   Literal(self.DEEP_A)))],
                   theory=[], selection={}, ordering=SUBTERM)
        assert s.decide()
        assert s.trail.literals() == [Literal(self.DEEP_A, False)]

    def test_decide_after_cuts(self):
        na, nb = Literal(self.DEEP_A, False), Literal(self.DEEP_B, False)
        s = solver_for([Clause((Literal(self.DEEP_B), Literal(self.DEEP_A)))])
        assert s.decide()
        assert s.decide()
        assert not s.decide()
        assert s.trail.literals() == [na, nb]
        s.trail.truncate_keep(1)
        assert s.decide()
        assert s.trail.literals() == [na, nb]
        s.trail.clear()
        assert s.decide()
        assert s.trail.literals() == [na]

    def test_sort_clause(self):
        nb, pa, pb = (Literal(self.DEEP_B, False), Literal(self.DEEP_A),
                      Literal(self.DEEP_B))
        trail = _trail_over([self.DEEP_B])
        assert sort_clause(trail, Clause((pb, pa, nb))) == (pa, pb, nb)

    def test_produce_model(self):
        pa, pb = Literal(self.DEEP_A), Literal(self.DEEP_B)
        both = Clause((pb, pa))
        unit = Clause((pa,))
        model, records = produce_model(
            [(both, frozenset({0, 1})), (unit, frozenset({0}))], WEIGHT)
        assert records == [ProductionRecord(unit, True, self.DEEP_A),
                           ProductionRecord(both, False)]
        assert pa in model and pb.complement() in model
