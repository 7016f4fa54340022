"""Resolution/Factoring inferences, subsumption, and the saturation loop."""

import pytest
from hypothesis import given

from trigsat.ordering import OrderingSpec
from trigsat.parser import parse_problem
from trigsat.saturation import (
    InvalidSelectionError,
    SaturationOutcome,
    check_saturated,
    factor,
    is_tautology,
    resolve,
    saturate,
    subsumes,
    variant,
)
from trigsat.terms import (
    Atom,
    Clause,
    Literal,
    Signature,
    Var,
    clause,
    const,
    enumerate_ground_instances,
    fn,
)

from oracles import evaluate_clause
from strategies import clauses, ground_substitutions

X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = const("a"), const("b")
WEIGHT = OrderingSpec(kind="weight")
COUNTERSEL = OrderingSpec(kind="weight", precedence=("r", "q", "p"),
                          precedence_dominant=True)


def lit(atom, positive=True):
    return Literal(atom, positive)


def goodsel_theory():
    text = """\
~p(X1, Y1) | *q(f(X1), Y1)
*~q(X2, Y2) | p(X2, f(Y2))
"""
    return parse_problem(text)


class TestResolve:
    def test_chain_resolvent(self):
        problem = goodsel_theory()
        c1, c2 = problem.theory
        # c1's positive q-literal against c2's negative q-literal.
        got = resolve(c1, 1, c2, 0)
        expected = clause([lit(Atom("p", (X, Y)), False),
                           lit(Atom("p", (fn("f", X), fn("f", Y))))])
        assert got is not None
        assert variant(got, expected)
        assert got.origin == "resolvent"

    def test_unit_resolution_yields_bottom(self):
        pos = clause([lit(Atom("p", (X,)))])
        neg = clause([lit(Atom("p", (Y,)), False)])
        got = resolve(pos, 0, neg, 0)
        assert got is not None and got.is_empty

    def test_tautological_resolvent(self):
        c2 = clause([lit(Atom("p", (X,))), lit(Atom("q", (X,)), False)])
        c3 = clause([lit(Atom("p", (Y,)), False), lit(Atom("q", (Y,)))])
        got = resolve(c2, 0, c3, 0)
        assert got is not None
        assert is_tautology(got)

    def test_polarity_contract(self):
        c2 = clause([lit(Atom("p", (X,))), lit(Atom("q", (X,)), False)])
        c3 = clause([lit(Atom("p", (Y,)), False), lit(Atom("q", (Y,)))])
        with pytest.raises(ValueError, match="positive"):
            resolve(c2, 1, c3, 0)
        with pytest.raises(ValueError, match="negative"):
            resolve(c2, 0, c3, 1)

    def test_selection_contract(self):
        c2 = clause([lit(Atom("p", (X,))), lit(Atom("q", (X,)), False)])
        c3 = clause([lit(Atom("p", (Y,)), False), lit(Atom("q", (Y,)))])
        with pytest.raises(ValueError, match="not selected"):
            resolve(c2, 0, c3, 0, sel1={1}, sel2={0})

    def test_shared_variable_names_renamed_apart(self):
        c1 = clause([lit(Atom("p", (X,)))])
        c2 = clause([lit(Atom("p", (fn("f", X),)), False),
                     lit(Atom("q", (X,)))])
        got = resolve(c1, 0, c2, 0)
        assert got is not None
        assert len(got) == 1
        assert got.literals[0].atom.pred == "q"


class TestFactor:
    def test_merging_factor(self):
        c = clause([lit(Atom("p", (X,))), lit(Atom("p", (fn("f", Y),)))])
        got = factor(c, 0)
        assert len(got) == 1
        assert variant(got[0], clause([lit(Atom("p", (fn("f", X),)))]))
        assert got[0].origin == "factor"

    def test_non_unifiable_mates(self):
        c = clause([lit(Atom("p", (a,))), lit(Atom("p", (b,)))])
        assert factor(c, 0) == []

    def test_three_way_split_has_no_factor(self):
        # Distinct ground third arguments block every pair.
        lits = [lit(Atom("both", (X, Y, const(s)))) for s in ("a", "b", "c")]
        lits.append(lit(Atom("distinct", (X, Y))))
        c = clause(lits)
        for pos in range(3):
            assert factor(c, pos) == []

    def test_negative_literal_rejected(self):
        c = clause([lit(Atom("p", (X,)), False), lit(Atom("p", (Y,)))])
        with pytest.raises(ValueError, match="positive"):
            factor(c, 0)


class TestSubsumes:
    def test_unit_subsumes_superset(self):
        assert subsumes(clause([lit(Atom("p", (X,)))]),
                        clause([lit(Atom("p", (a,))), lit(Atom("q", (b,)))]))

    def test_multiset_inclusion_counts_occurrences(self):
        double = clause([lit(Atom("p", (X,))), lit(Atom("p", (Y,)))])
        single = clause([lit(Atom("p", (a,)))])
        assert not subsumes(double, single)
        assert subsumes(double,
                        clause([lit(Atom("p", (a,))), lit(Atom("p", (b,)))]))

    def test_polarity_respected(self):
        assert not subsumes(clause([lit(Atom("p", (X,)))]),
                            clause([lit(Atom("p", (a,)), False)]))

    def test_reflexive(self):
        c = clause([lit(Atom("p", (X, Y)), False), lit(Atom("q", (X,)))])
        assert subsumes(c, c)

    @given(clauses(max_size=3), clauses(max_size=2))
    def test_transitive_on_random_pairs(self, c1, c2):
        # c1 subsumes c1+c2's union; the union subsumes itself, etc.
        union = Clause(c1.literals + c2.literals, origin="input-nonground")
        assert subsumes(c1, union)
        assert subsumes(c2, union)

    @given(clauses(max_size=3), ground_substitutions())
    def test_subsumes_own_instances(self, c, theta):
        assert subsumes(c, theta(c))


class TestTautology:
    def test_complementary_pair(self):
        assert is_tautology(clause([lit(Atom("p", (a,))),
                                    lit(Atom("p", (a,)), False)]))

    def test_different_atoms(self):
        assert not is_tautology(clause([lit(Atom("p", (a,))),
                                        lit(Atom("p", (b,)), False)]))

    def test_nonground_pair(self):
        assert is_tautology(clause([lit(Atom("q", (X,)), False),
                                    lit(Atom("q", (X,)))]))


def _selection_for(problem, order=WEIGHT):
    return dict(problem.selection)


class TestSaturate:
    def test_unit_contradiction_derives_bottom(self):
        pos = clause([lit(Atom("p", (Var("X1"),)))])
        neg = clause([lit(Atom("p", (Var("X2"),)), False)])
        sel = {pos.cid: frozenset({0}), neg.cid: frozenset({0})}
        report = saturate([pos, neg], sel, WEIGHT)
        assert report.outcome is SaturationOutcome.DERIVED_BOTTOM
        assert any(c.is_empty for c in report.clauses)

    def test_goodsel_under_chain_triggers_is_closed(self):
        problem = goodsel_theory()
        # Selecting the two positive literals leaves nothing to resolve.
        sel = {problem.theory[0].cid: frozenset({1}),
               problem.theory[1].cid: frozenset({1})}
        report = saturate(problem.theory, sel, WEIGHT)
        assert report.outcome is SaturationOutcome.SATURATED
        assert len(report.clauses) == 2

    def test_goodsel_all_neg_q_trigger_adds_chain_clause(self):
        problem = goodsel_theory()
        report = saturate(problem.theory, _selection_for(problem), WEIGHT,
                          extend="max")
        assert report.outcome is SaturationOutcome.SATURATED
        expected = clause([lit(Atom("p", (X, Y)), False),
                           lit(Atom("p", (fn("f", X), fn("f", Y))))])
        added = [c for c in report.clauses if variant(c, expected)]
        assert len(added) == 1
        # The extension picked the structurally larger positive literal.
        assert report.selection[added[0].cid] == frozenset({1})

    def test_invalid_selection_rejected_before_inference(self):
        # A positive, non-maximal singleton fails validation outright.
        c = clause([lit(Atom("p", (X,))), lit(Atom("q", (X,)))])
        order = OrderingSpec(kind="weight", precedence=("q", "p"))
        with pytest.raises(InvalidSelectionError):
            saturate([c], {c.cid: frozenset({0})}, order)

    def test_missing_selection_is_an_error(self):
        problem = goodsel_theory()
        with pytest.raises(InvalidSelectionError):
            saturate(problem.theory, {}, WEIGHT)

    def test_budget_exceeded(self):
        from trigsat.saturation import InferenceBudget

        # Resolving the g-guard against the g-headed unit grows a fresh
        # q(g^n(X)) clause each round.
        problem = parse_problem("p(X) | *~p(g(X))\n*p(g(Y)) | q(Y)\n")
        sel = dict(problem.selection)
        report = saturate(problem.theory, sel, WEIGHT,
                          budget=InferenceBudget(max_clauses=5, timeout=60.0),
                          extend="all")
        assert report.outcome is SaturationOutcome.BUDGET_EXCEEDED

    def test_saturate_then_check_reports_no_violations(self):
        problem = goodsel_theory()
        report = saturate(problem.theory, _selection_for(problem), WEIGHT,
                          extend="max")
        ng = [c for c in report.clauses if not c.is_ground]
        again = check_saturated(ng, report.selection, WEIGHT)
        assert again.outcome is SaturationOutcome.SATURATED

    def test_soundness_on_ground_instances(self):
        # Every retained conclusion is entailed by its premises: check
        # conclusion instances at depth 0 against depth-1 premise
        # instances by exhausting all models of the mentioned atoms.
        import itertools as it

        problem = goodsel_theory()
        report = saturate(problem.theory, _selection_for(problem), WEIGHT,
                          extend="max")
        sig = Signature.from_clauses(problem.theory)
        premises = []
        for c in problem.theory:
            premises.extend(enumerate_ground_instances(c, sig, 1))
        new_clauses = [c for c in report.clauses
                       if all(not variant(c, t) for t in problem.theory)]
        assert new_clauses, "the chain clause must have been retained"
        for concl in new_clauses:
            for inst in enumerate_ground_instances(concl, sig, 0):
                atoms = sorted({l.atom for cl in premises + [inst]
                                for l in cl.literals}, key=str)
                assert len(atoms) <= 14, "keep the oracle exhaustive"
                for bits in it.product((False, True), repeat=len(atoms)):
                    model = dict(zip(atoms, bits))
                    if all(evaluate_clause(p, model) for p in premises):
                        assert evaluate_clause(inst, model) is True


class TestCheckSaturated:
    def test_countersel_valid_variant_is_not_saturated(self):
        text = """\
*~p(X1) | ~q(X1)
p(X2) | *~q(X2)
~p(X3) | *q(X3)
p(X4) | *q(X4) | *~r(Y4)
"""
        problem = parse_problem(text)
        report = check_saturated(problem.theory, dict(problem.selection),
                                 COUNTERSEL)
        assert report.outcome is SaturationOutcome.NOT_SATURATED
        # The q-split resolvent p | p | ~r is among the violations.
        expected = clause([lit(Atom("p", (X,))), lit(Atom("p", (X,))),
                           lit(Atom("r", (Y,)), False)])
        assert any(variant(v.conclusion, expected)
                   for v in report.violations)

    def test_empty_set_is_saturated(self):
        report = check_saturated([], {}, WEIGHT)
        assert report.outcome is SaturationOutcome.SATURATED

    def test_self_resolution_is_enumerated(self):
        c = clause([lit(Atom("p", (X,))),
                    lit(Atom("p", (fn("f", X),)), False)])
        report = check_saturated([c], {c.cid: frozenset({0, 1})}, WEIGHT)
        assert report.outcome is SaturationOutcome.NOT_SATURATED


class TestPinnedCorpusCounts:
    """Counts a refactor of the inference enumeration must keep: clause ids
    come from a global counter and break ties in the given-clause choice,
    so any change in the order of inferences shows up here."""

    def test_settheory_maximal_saturation(self):
        from trigsat.corpus import corpus_ordering, load_corpus
        from trigsat.pipeline import SolveOptions, solve_problem

        options = SolveOptions(select="maximal",
                               ordering=corpus_ordering("settheory"))
        report = solve_problem(load_corpus("settheory"), options).saturation
        assert report.outcome is SaturationOutcome.SATURATED
        assert len(report.clauses) == 118
        assert report.counts == {
            "resolvents": 207, "factors": 28, "kept": 118, "tautologies": 10,
            "forward_subsumed": 124, "backward_subsumed": 0}

    def test_subsumption_maximal_saturation_hits_budget(self):
        from trigsat.corpus import corpus_ordering, load_corpus
        from trigsat.pipeline import SolveOptions, solve_problem
        from trigsat.saturation import InferenceBudget

        options = SolveOptions(
            select="maximal", ordering=corpus_ordering("subsumption"),
            allow_unsaturated=True,
            saturation_budget=InferenceBudget(max_clauses=100))
        report = solve_problem(load_corpus("subsumption"), options).saturation
        assert report.outcome is SaturationOutcome.BUDGET_EXCEEDED
        assert len(report.clauses) == 127

    def test_check_saturated_inference_counts(self):
        from trigsat.corpus import corpus_ordering, load_corpus
        from trigsat.pipeline import SolveOptions, check_problem_saturated

        for name, inferences in (("settheory", 10), ("subsumption", 13)):
            options = SolveOptions(ordering=corpus_ordering(name))
            report = check_problem_saturated(load_corpus(name), options)
            assert report.counts == {"inferences": inferences}, name
