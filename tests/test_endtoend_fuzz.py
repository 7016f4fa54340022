"""Randomized end-to-end checks of the certification claim.

All-negative covering selections are trivially valid and leave nothing
for resolution to do, so random theories built that way are saturated by
construction.  Whenever the solver answers sat, the depth-bounded
grounding together with the ground facts must be satisfiable (checked by
truth table); a bounded-unsat grounding would refute the certificate.
"""

import itertools
import random

from trigsat.cdcl import Budget
from trigsat.parser import Problem
from trigsat.pipeline import SolveOptions, solve_problem
from trigsat.saturation import subsumes
from trigsat.terms import (
    App,
    Atom,
    Clause,
    Literal,
    Signature,
    Substitution,
    Var,
    enumerate_ground_instances,
    vars_of,
)

from oracles import truth_table_sat

FUNCTIONS = {"a": 0, "b": 0, "f": 1}
PREDICATES = {"p": 1, "q": 2}


def _random_term(rng, depth, variables):
    if depth == 0 or rng.random() < 0.4:
        pool = [App("a"), App("b")] + [Var(v) for v in variables]
        return rng.choice(pool)
    return App("f", (_random_term(rng, depth - 1, variables),))


def _random_atom(rng, variables, depth=1):
    pred, arity = rng.choice(sorted(PREDICATES.items()))
    return Atom(pred, tuple(_random_term(rng, depth, variables)
                            for _ in range(arity)))


def _random_negative_theory(rng):
    """Clauses whose negative literals cover every variable."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        variables = tuple(rng.sample(("X", "Y"), rng.randint(1, 2)))
        negatives = [Literal(_random_atom(rng, variables), False)
                     for _ in range(rng.randint(1, 2))]
        covered = vars_of(negatives)
        missing = [Var(v) for v in variables if Var(v) not in covered]
        for v in missing:
            negatives.append(Literal(Atom("p", (v,)), False))
        extras = [Literal(_random_atom(rng, variables), True)
                  for _ in range(rng.randint(0, 1))]
        lits = tuple(negatives + extras)
        if not vars_of(lits):
            continue
        c = Clause(lits, origin="input-nonground")
        clauses.append(c)
    return clauses


def _random_facts(rng):
    out = []
    for _ in range(rng.randint(1, 3)):
        atom = _random_atom(rng, (), depth=1)
        out.append(Clause((Literal(atom, rng.random() < 0.7),),
                          origin="input-ground"))
    return out


def _bounded_grounding(theory, facts, depth):
    sig = Signature.from_clauses(theory + facts)
    out = list(facts)
    for c in theory:
        out.extend(enumerate_ground_instances(c, sig, depth))
    return out


class TestCertifiedSatAgainstBoundedGrounding:
    def test_sat_runs_never_contradict_the_grounding(self):
        rng = random.Random(90125)
        checked = 0
        for trial in range(120):
            theory = _random_negative_theory(rng)
            facts = _random_facts(rng)
            problem = Problem(theory=theory, ground=facts)
            problem.selection = {
                c.cid: frozenset(i for i, l in enumerate(c.literals)
                                 if not l.positive)
                for c in theory}
            problem.signature = Signature.from_clauses(theory + facts)
            options = SolveOptions(
                budget=Budget(max_instantiations=60, timeout=10.0))
            result = solve_problem(problem, options)
            if result.verdict_line != "sat":
                continue
            grounding = _bounded_grounding(theory, facts, 1)
            atom_count = len({l.atom for c in grounding for l in c.literals})
            if atom_count > 14:
                continue  # keep the truth table exhaustive and fast
            checked += 1
            assert truth_table_sat(grounding) is not None, \
                (f"trial {trial}: certified sat but the depth-1 grounding "
                 f"is unsatisfiable: {[str(c) for c in grounding]}")
        assert checked >= 30, f"only {checked} sat runs were cross-checked"

    def test_sat_model_extends_over_its_own_instances(self):
        # Whatever instances the run generated are satisfied by the model.
        rng = random.Random(31337)
        for _ in range(60):
            theory = _random_negative_theory(rng)
            facts = _random_facts(rng)
            problem = Problem(theory=theory, ground=facts)
            problem.selection = {
                c.cid: frozenset(i for i, l in enumerate(c.literals)
                                 if not l.positive)
                for c in theory}
            problem.signature = Signature.from_clauses(theory + facts)
            options = SolveOptions(
                budget=Budget(max_instantiations=60, timeout=10.0))
            result = solve_problem(problem, options)
            if result.verdict_line != "sat":
                continue
            model = {l.atom: l.positive for l in result.model}
            for c in result.run.final_ground:
                assert any(model.get(l.atom) == l.positive
                           for l in c.literals), f"{c} not satisfied"


class TestSubsumptionTransitivity:
    def test_constructed_chains(self):
        rng = random.Random(77)
        for _ in range(60):
            variables = ("X", "Y")
            base = Clause(
                tuple(Literal(_random_atom(rng, variables),
                              rng.random() < 0.5)
                      for _ in range(rng.randint(1, 2))),
                origin="input-nonground")
            theta = Substitution({
                Var(v): _random_term(rng, 1, variables) for v in variables})
            middle = Clause(
                theta(base).literals
                + tuple(Literal(_random_atom(rng, variables), True)
                        for _ in range(rng.randint(0, 1))),
                origin="input-nonground")
            rho = Substitution({
                Var(v): _random_term(rng, 1, ()) for v in variables})
            bottom = Clause(
                rho(middle).literals
                + tuple(Literal(_random_atom(rng, ()), False)
                        for _ in range(rng.randint(0, 1))),
                origin="input-nonground")
            assert subsumes(base, middle)
            assert subsumes(middle, bottom)
            assert subsumes(base, bottom)
