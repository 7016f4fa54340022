"""Resolution/Factoring inferences, subsumption, and the saturation loop."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigsat.ordering import OrderingSpec
from trigsat.saturation import _pick_given
from trigsat.parser import parse_problem
from trigsat.selection import check_selection
from trigsat.saturation import (
    InvalidSelectionError,
    SaturationOutcome,
    check_saturated,
    factor,
    is_tautology,
    resolve,
    saturate,
    subsumes,
)
from trigsat.terms import (
    Atom,
    Clause,
    Literal,
    Signature,
    Substitution,
    Var,
    const,
    enumerate_ground_instances,
    fn,
)

from oracles import (
    clause,
    evaluate_clause,
    load_corpus,
    ref_check_saturated,
    ref_pick_given,
    ref_subsumes,
    variant,
)
from strategies import (
    clauses,
    ground_substitutions,
    literals,
    nested_clauses,
    nested_subsumption_pairs,
    terms,
    weight_orderings,
)

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


MUTATIONS = ("superset", "flip", "rename", "duplicate-in-c",
             "duplicate-in-d", "twin", "drop")


@st.composite
def subsumption_pairs(draw):
    """(c, d) with d an instance of c under a substitution that may leave
    variables, then changed by a few of `MUTATIONS` and shuffled."""
    c = draw(clauses(max_size=3))
    theta = Substitution(dict(zip(
        (Var(v) for v in ("X", "Y", "Z")),
        draw(st.lists(terms(max_depth=2), min_size=3, max_size=3)))))
    c_lits, d_lits = list(c.literals), list(theta(c).literals)
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        i = draw(st.integers(0, len(d_lits) - 1)) if d_lits else None
        if mutation == "superset":
            d_lits += draw(st.lists(literals(), min_size=1, max_size=2))
        elif mutation == "duplicate-in-c":
            c_lits.append(draw(st.sampled_from(c_lits)))
        elif mutation == "twin":
            # A second copy in c, and in d a literal of the same sign and
            # predicate: the counts pass, so only the search can refuse.
            twin = draw(st.sampled_from(c_lits))
            c_lits.append(twin)
            d_lits.append(Literal(Atom(twin.atom.pred, tuple(draw(st.lists(
                terms(max_depth=1), min_size=twin.atom.arity,
                max_size=twin.atom.arity)))), twin.positive))
        elif i is None:
            continue
        elif mutation == "flip":
            d_lits[i] = d_lits[i].complement()
        elif mutation == "rename":
            atom = d_lits[i].atom
            d_lits[i] = Literal(Atom(atom.pred + "2", atom.args),
                                d_lits[i].positive)
        elif mutation == "duplicate-in-d":
            d_lits.append(d_lits[i])
        else:
            del d_lits[i]
    return (Clause(tuple(c_lits), origin="input-nonground"),
            Clause(tuple(draw(st.permutations(d_lits))),
                   origin="input-nonground"))


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

    @given(subsumption_pairs())
    def test_matches_unfiltered_reference(self, pair):
        c, d = pair
        assert subsumes(c, d) is ref_subsumes(c, d)
        assert subsumes(d, c) is ref_subsumes(d, c)
        assert variant(c, d) is (len(c) == len(d) and ref_subsumes(c, d)
                                 and ref_subsumes(d, c))

    def test_one_target_per_literal(self):
        # The counts per (sign, predicate) agree, but both q(a) need d's one
        # q(a).
        twice = clause([lit(Atom("q", (a,))), lit(Atom("q", (a,)))])
        assert not subsumes(twice, clause([lit(Atom("q", (a,))),
                                           lit(Atom("q", (b,)))]))

    def test_backtracking_frees_the_abandoned_target(self):
        # q(X) first takes q(a), r(a) is missing; q(X) then takes q(b), and
        # q(a) must be free again for the third literal.
        c = clause([lit(Atom("q", (X,))), lit(Atom("r", (X,))),
                    lit(Atom("q", (a,)))])
        d = clause([lit(Atom("q", (a,))), lit(Atom("q", (b,))),
                    lit(Atom("r", (b,)))])
        assert subsumes(c, d)

    def test_long_clauses_do_not_recurse(self):
        # 1200 literals are past Python's recursion limit, so the search
        # must not take one Python call per literal of c.
        def long_clause(n):
            return clause([lit(Atom(f"p{i}", (X,)), False) for i in range(n)]
                          + [lit(Atom("q", (X,)))])

        c, d = long_clause(1200), long_clause(1200)
        assert subsumes(c, d) and variant(c, d)
        assert subsumes(long_clause(600), d)
        assert not subsumes(d, long_clause(600))
        shifted = clause(list(d.literals[1:]) + [lit(Atom("p0", (a,)), False)])
        assert not subsumes(c, shifted)


def dominates(big, small) -> bool:
    """Whether feature vector `big` is at least `small` in every count."""
    (big_size, big_counts), (small_size, small_counts) = big, small
    return big_size >= small_size and all(
        big_counts[k] >= n for k, n in small_counts.items())


class TestFeatureVector:
    """`Clause.features` counts literals per (sign, predicate) and function
    symbol occurrences per (sign, symbol, arity); `subsumes` rejects a pair
    whose vectors do not dominate, so the vector must never reject a true
    subsumer."""

    @given(st.one_of(subsumption_pairs(), nested_subsumption_pairs()))
    def test_subsumer_is_dominated(self, pair):
        c, d = pair
        for x, y in ((c, d), (d, c)):
            if ref_subsumes(x, y):
                assert dominates(y.features, x.features)

    @given(nested_subsumption_pairs())
    def test_subsumer_signature_is_contained(self, pair):
        # `subsumes` refuses at once when a bit of c's mask is not in d's.
        c, d = pair
        union = Clause(d.literals + c.literals, origin="input-nonground")
        for x, y in ((c, d), (d, c), (c, union)):
            if ref_subsumes(x, y):
                assert x.signature[0] & ~y.signature[0] == 0

    @given(nested_clauses(), ground_substitutions(max_depth=3))
    def test_instance_dominates(self, c, theta):
        assert dominates(theta(c).features, c.features)

    @given(nested_subsumption_pairs())
    def test_nested_terms_match_unfiltered_reference(self, pair):
        c, d = pair
        assert subsumes(c, d) is ref_subsumes(c, d)
        assert subsumes(d, c) is ref_subsumes(d, c)

    def test_counts_symbols_per_sign_and_arity(self):
        c = clause([lit(Atom("p", (fn("f", X, fn("g", a)), Y)), False),
                    lit(Atom("q", (fn("g", X),)))])
        size, counts = c.features
        assert size == 9
        assert counts == {(False, "p"): 1, (True, "q"): 1,
                          (False, "f", 2): 1, (False, "g", 1): 1,
                          (False, "a", 0): 1, (True, "g", 1): 1}

    def test_symbol_counts_refuse_what_predicates_allow(self):
        # Same signs and predicates, but d has no g under a negative
        # literal: the per-predicate counts pass and the symbol counts do
        # not.
        c = clause([lit(Atom("q", (fn("g", X),)), False)])
        d = clause([lit(Atom("q", (fn("f", a, a),)), False),
                    lit(Atom("r", (fn("g", a),)))])
        assert not dominates(d.features, c.features)
        assert not subsumes(c, d)
        assert subsumes(c, clause([lit(Atom("q", (fn("g", fn("g", a)),)),
                                       False)]))


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
        from trigsat.cdcl import Budget

        # Resolving the g-guard against the g-headed unit grows a fresh
        # q(g^n(X)) clause each round.
        problem = parse_problem("p(X) | *~p(g(X))\n*p(g(Y)) | q(Y)\n")
        sel = dict(problem.selection)
        report = saturate(problem.theory, sel, WEIGHT,
                          budget=Budget(max_saturation_clauses=5,
                                        timeout=60.0),
                          extend="all")
        assert report.outcome is SaturationOutcome.BUDGET_EXCEEDED

    def test_budget_report_keeps_the_clause_in_flight(self):
        # A deadline that fires partway through backward subsumption must
        # not lose the given clause, which has not joined `active` yet.
        from unittest import mock

        import trigsat.saturation
        from trigsat.cdcl import BudgetExceeded

        problem = parse_problem("*~p(X) | q(X)\n*~q(X) | r(X)\n"
                                "*~r(X) | s(X)\n")
        picked, backward = [], []

        def pick(passive, o, memo, literal_memo):
            picked.append(_pick_given(passive, o, memo, literal_memo))
            return picked[-1]

        def failing(c, d, deadline):
            if c is picked[-1]:
                backward.append(d)
                if len(backward) == 2:
                    raise BudgetExceeded("timeout exceeded")
            return subsumes(c, d, deadline)

        with mock.patch.object(trigsat.saturation, "_pick_given", pick), \
                mock.patch.object(trigsat.saturation, "subsumes", failing):
            report = saturate(problem.theory, dict(problem.selection), WEIGHT)
        assert report.outcome is SaturationOutcome.BUDGET_EXCEEDED
        assert len(backward) == 2
        assert sorted(c.cid for c in report.clauses) == sorted(
            c.cid for c in problem.theory)

    def test_deadline_ends_an_inference_round(self):
        # The last given clause, p(f(f(X))), resolves with both clauses in
        # `active`; the clock passes the deadline during the first of the
        # two resolutions, so the second must not run.
        from unittest import mock

        import trigsat.saturation

        problem = parse_problem("*~p(X) | q(X)\n*~p(Y) | r(Y)\n"
                                "*p(f(f(Z)))\n")
        late, resolved = [False], []

        def clock():
            return 1e9 if late[0] else 0.0

        def resolving(*args):
            resolved.append(args)
            late[0] = True
            return resolve(*args)

        with mock.patch.object(trigsat.saturation.time, "monotonic", clock), \
                mock.patch.object(trigsat.saturation, "resolve", resolving):
            report = saturate(problem.theory, dict(problem.selection), WEIGHT,
                              extend="max")
        assert report.outcome is SaturationOutcome.BUDGET_EXCEEDED
        assert len(resolved) == 1 and report.counts["resolvents"] == 1
        assert report.counts["kept"] == 3
        assert sorted(c.cid for c in report.clauses) == sorted(
            c.cid for c in problem.theory)

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


@st.composite
def selected_theories(draw):
    """(clauses, selection, ordering): a few non-ground clauses, each with a
    drawn set of positions when that is a valid selection under the drawn
    weight ordering, and with all of its positions otherwise."""
    o = draw(weight_orderings())
    theory = draw(st.lists(clauses(max_size=3).filter(
        lambda c: not c.is_ground), min_size=1, max_size=4))
    selection = {}
    for c in theory:
        sel = frozenset(draw(st.sets(st.integers(0, len(c) - 1), min_size=1)))
        selection[c.cid] = (sel if check_selection(c, sel, o)
                            else frozenset(range(len(c))))
    return theory, selection, o


class TestCheckSaturated:
    @given(selected_theories())
    def test_matches_the_all_pairs_reference(self, drawn):
        # Only premise pairs that share a predicate, selected positive in
        # the first and negative in the second, are enumerated.
        theory, selection, o = drawn
        report = check_saturated(theory, selection, o)
        counts, violations = ref_check_saturated(theory, selection)
        assert report.counts == counts
        assert report.violations == violations
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
        from trigsat.corpus import corpus_ordering
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
        from trigsat.corpus import corpus_ordering
        from trigsat.pipeline import SolveOptions, solve_problem
        from trigsat.cdcl import Budget

        options = SolveOptions(
            select="maximal", ordering=corpus_ordering("subsumption"),
            allow_unsaturated=True,
            budget=Budget(max_saturation_clauses=100))
        report = solve_problem(load_corpus("subsumption"), options).saturation
        assert report.outcome is SaturationOutcome.BUDGET_EXCEEDED
        assert len(report.clauses) == 127

    def test_check_saturated_inference_counts(self):
        from trigsat.corpus import corpus_ordering
        from trigsat.pipeline import SolveOptions, check_problem_saturated

        for name, inferences in (("settheory", 10), ("subsumption", 13)):
            options = SolveOptions(ordering=corpus_ordering(name))
            report = check_problem_saturated(load_corpus(name), options)
            assert report.counts == {"inferences": inferences}, name

    # The kept clauses, in order, and the counts of both saturations above,
    # recorded before subsumption and the atom comparison were sped up: a
    # change in any subsumption answer or in the given-clause order shows
    # up as a changed clause list.
    PINNED = json.loads((Path(__file__).resolve().parent / "golden"
                         / "saturation_order.json").read_text())

    @pytest.mark.parametrize("name, corpus, cap", [
        ("settheory", "settheory", None),
        ("subsumption-cap-100", "subsumption", 100),
    ])
    def test_saturation_keeps_pinned_clauses_in_order(self, name, corpus,
                                                      cap):
        from trigsat.corpus import corpus_ordering
        from trigsat.pipeline import SolveOptions, solve_problem
        from trigsat.cdcl import Budget

        budget = ({} if cap is None else
                  {"allow_unsaturated": True,
                   "budget": Budget(max_saturation_clauses=cap)})
        options = SolveOptions(select="maximal",
                               ordering=corpus_ordering(corpus), **budget)
        report = solve_problem(load_corpus(corpus), options).saturation
        assert [str(c) for c in report.clauses] == self.PINNED[name]["clauses"]
        assert report.counts == self.PINNED[name]["counts"]

    def test_check_saturated_on_the_settheory_closure(self):
        # The saturated settheory theory re-derives 235 inferences, each
        # subsumed in the set: a subsumption filter that refuses a true
        # subsumer reports a violation here.
        from trigsat.corpus import corpus_ordering
        from trigsat.pipeline import SolveOptions, solve_problem

        ordering = corpus_ordering("settheory")
        options = SolveOptions(select="maximal", ordering=ordering)
        report = solve_problem(load_corpus("settheory"), options).saturation
        check = check_saturated(report.clauses, report.selection, ordering)
        assert check.outcome is SaturationOutcome.SATURATED
        assert check.violations == []
        assert check.counts == {"inferences": 235}

    def test_pick_memo_holds_only_passive_pairs(self):
        # Pairs whose clauses left the passive list are never read again.
        from unittest import mock

        import trigsat.saturation
        from trigsat.corpus import corpus_ordering
        from trigsat.pipeline import SolveOptions, solve_problem
        from trigsat.cdcl import Budget

        sizes = []

        def checked(passive, o, memo, literal_memo):
            live = {c.cid for c in passive}
            assert all(x in live and y in live for x, y in memo)
            given = _pick_given(passive, o, memo, literal_memo)
            assert all(x in live and y in live for x, y in memo)
            sizes.append(len(memo))
            return given

        options = SolveOptions(
            select="maximal", ordering=corpus_ordering("subsumption"),
            allow_unsaturated=True,
            budget=Budget(max_saturation_clauses=600))
        with mock.patch.object(trigsat.saturation, "_pick_given", checked):
            report = solve_problem(load_corpus("subsumption"),
                                   options).saturation
        assert report.outcome is SaturationOutcome.BUDGET_EXCEEDED
        assert len(sizes) == 47 and max(sizes) > 0


PICK_STEPS = st.lists(st.tuples(
    st.sampled_from(("pick", "remove", "append", "twin")),
    st.integers(0, 50)), max_size=12)


# Literals over few atoms, each atom under both signs: comparisons of two
# literals on one atom differ only in the signs, which a literal memo must
# tell apart.
SHARED_ATOM_CLAUSES = st.builds(
    lambda lits: Clause(tuple(lits), origin="input-nonground"),
    st.lists(st.builds(Literal, st.sampled_from(
        [Atom("p", (X, a)), Atom("p", (a, a)), Atom("q", (X,)),
         Atom("q", (fn("g", X),)), Atom("r", (b,))]), st.booleans()),
        min_size=1, max_size=3))


class TestPickGiven:
    """`_pick_given` reads comparisons of earlier scans from its memos; at
    every step it must pick what the scan without a memo picks."""

    @staticmethod
    def run_steps(o, passive, extra, steps):
        memo: dict = {}
        literal_memo: dict = {}
        passive = list(passive)
        for how, n in steps:
            if how == "append" and extra:
                passive.append(extra[n % len(extra)])
            elif how == "twin":
                # The same multiset under a new cid: only cids break the
                # tie between the two.
                twin = passive[n % len(passive)]
                passive.append(Clause(tuple(reversed(twin.literals)),
                                      origin=twin.origin))
            elif how == "remove" and len(passive) > 1:
                del passive[n % len(passive)]
            given = _pick_given(passive, o, memo, literal_memo)
            assert given is ref_pick_given(passive, o)
            if how == "pick" and len(passive) > 1:
                passive = [c for c in passive if c is not given]

    @given(weight_orderings(), st.lists(clauses(max_size=3), min_size=1,
                                        max_size=6),
           st.lists(clauses(max_size=3), max_size=4), PICK_STEPS)
    def test_weight_order_matches_reference(self, o, passive, extra, steps):
        self.run_steps(o, passive, extra, steps)

    @given(st.lists(clauses(max_size=3), min_size=1, max_size=6),
           st.lists(clauses(max_size=3), max_size=4), PICK_STEPS)
    def test_subterm_order_matches_reference(self, passive, extra, steps):
        self.run_steps(OrderingSpec(kind="subterm"), passive, extra, steps)

    @given(weight_orderings(), st.lists(SHARED_ATOM_CLAUSES, min_size=1,
                                        max_size=6),
           st.lists(SHARED_ATOM_CLAUSES, max_size=4), PICK_STEPS)
    def test_atoms_under_both_signs_match_reference(self, o, passive, extra,
                                                    steps):
        self.run_steps(o, passive, extra, steps)

    def test_equal_multisets_pick_the_lower_cid(self):
        first = clause([lit(Atom("q", (X,))), lit(Atom("r", (X,)))])
        second = Clause(tuple(reversed(first.literals)),
                        origin="input-nonground")
        bigger = clause([lit(Atom("q", (fn("g", X),)))])
        memo: dict = {}
        literal_memo: dict = {}
        for passive in ([bigger, second, first], [second, bigger, first],
                        [first, second]):
            assert _pick_given(passive, WEIGHT, memo, literal_memo) is first
            assert ref_pick_given(passive, WEIGHT) is first
        assert _pick_given([second, bigger], WEIGHT, memo,
                           literal_memo) is second
