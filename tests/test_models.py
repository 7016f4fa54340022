"""Interpretations, filtering, the production construction, verification."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigsat.models import (
    Interpretation,
    combine,
    filtered_ground_instances,
    int_of,
    produce_model,
    verify_no_falsified,
)
from trigsat.ordering import OrderingSpec
from trigsat.parser import parse_problem
from trigsat.saturation import subsumes
from trigsat.terms import (
    Atom,
    Clause,
    Literal,
    Signature,
    Var,
    const,
    enumerate_ground_instances,
    fn,
    vars_of,
)

from oracles import clause, filter_clause, filter_set, ref_produce_model
from strategies import (
    PREDICATES,
    clauses,
    ground_literals,
    ground_substitutions,
    weight_orderings,
)

a, b, c, d = const("a"), const("b"), const("c"), const("d")
X = Var("X")
WEIGHT = OrderingSpec(kind="weight")


def lit(atom, positive=True):
    return Literal(atom, positive)


def p(t, positive=True):
    return lit(Atom("p", (t,)), positive)


def fpow(n, t):
    for _ in range(n):
        t = fn("f", t)
    return t


class TestInterpretation:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Interpretation([p(a), p(a, False)])

    def test_undefined_atoms(self):
        i = Interpretation([p(a)])
        assert i.value(p(a)) is True
        assert i.value(p(b)) is None
        assert not i.defines(Atom("p", (b,)))

    def test_ground_only(self):
        with pytest.raises(ValueError, match="not ground"):
            Interpretation([p(X)])


class TestFilterClause:
    def test_drops_false_literals(self):
        i = Interpretation([p(a, False), p(b)])
        c1 = clause([p(a), p(b, False), p(c)])
        got = filter_clause(c1, i)
        assert got is not None
        assert got.literals == (p(c),)

    def test_satisfied_clause_is_dropped(self):
        i = Interpretation([p(a, False), p(b)])
        c2 = clause([p(a, False), p(b, False), p(d)])
        assert filter_clause(c2, i) is None

    def test_empty_interpretation_is_identity(self):
        c1 = clause([p(a), p(b, False)])
        assert filter_clause(c1, Interpretation()) == c1

    def test_nonground_rejected(self):
        with pytest.raises(ValueError, match="ground"):
            filter_clause(clause([p(X)]), Interpretation())


class TestFilterSet:
    def test_worked_pair(self):
        i = Interpretation([p(a, False), p(b)])
        s = [clause([p(a), p(b, False), p(c)]),
             clause([p(a, False), p(b, False), p(d)])]
        assert filter_set(s, i) == [clause([p(c)])]

    def test_empty_set(self):
        assert filter_set([], Interpretation([p(a)])) == []

    def test_chain_filtering_with_partial_model(self):
        # Grounding of ~p(X) | p(f(X)) against {~p(f(a)), p(f^3(a))}.
        model = Interpretation([p(fpow(1, a), False), p(fpow(3, a))])
        theory = clause([p(X, False), p(fn("f", X))])
        sig = Signature()
        sig.functions.update({"a": 0, "f": 1})
        instances = enumerate_ground_instances(theory, sig, 5)
        got = filter_set(instances, model)
        assert clause([p(a, False)]) in got           # n = 0, head removed
        assert clause([p(fpow(4, a))]) in got         # n = 3, tail removed
        for n in (1, 2):                               # satisfied, dropped
            full = clause([p(fpow(n, a), False), p(fpow(n + 1, a))])
            assert full not in got
        for n in (4, 5):                               # untouched survivors
            full = clause([p(fpow(n, a), False), p(fpow(n + 1, a))])
            assert full in got


class TestIntOf:
    def test_true_side_wins(self):
        got = int_of([p(a)], [p(a), lit(Atom("q", (b,)))])
        assert got == Interpretation([p(a), lit(Atom("q", (b,)), False)])

    def test_empty(self):
        assert int_of([], []) == Interpretation()

    def test_all_false(self):
        assert int_of([], [p(a)]) == Interpretation([p(a, False)])

    def test_rejects_negative_producers(self):
        with pytest.raises(ValueError, match="positive"):
            int_of([p(a, False)], [])


class TestProduceModel:
    def test_positive_unit_produces_itself(self):
        u = clause([p(a)])
        model, records = produce_model([(u, frozenset({0}))], WEIGHT)
        assert model == Interpretation([p(a)])
        assert records[0].produced and records[0].atom == Atom("p", (a,))

    def test_negative_unit_produces_nothing(self):
        u = clause([p(a, False)])
        model, records = produce_model([(u, frozenset({0}))], WEIGHT)
        assert model == Interpretation([p(a, False)])
        assert not records[0].produced

    def test_unselected_top_blocks_production(self):
        two = clause([p(a, False), p(fn("f", a))])
        model, records = produce_model([(two, frozenset({0}))], WEIGHT)
        assert not records[0].produced
        assert model.value(p(fn("f", a))) is False

    def test_duplicate_top_blocks_production(self):
        two = clause([p(fn("f", a)), p(fn("f", a))])
        model, records = produce_model([(two, frozenset({0, 1}))], WEIGHT)
        assert not records[0].produced

    def test_satisfied_clause_produces_nothing(self):
        first = clause([p(a)])
        second = clause([p(a), p(fn("f", a))])
        model, records = produce_model(
            [(first, frozenset({0})), (second, frozenset({1}))], WEIGHT)
        assert [r.produced for r in records] == [True, False]
        assert model.value(p(fn("f", a))) is False

    def test_produced_atoms_true_in_final_model(self):
        entries = [
            (clause([p(a)]), frozenset({0})),
            (clause([p(b, False), p(fn("f", b))]), frozenset({1})),
            (clause([p(fn("f", a), False), p(fn("f", fn("f", a)))]),
             frozenset({1})),
        ]
        model, records = produce_model(entries, WEIGHT)
        for r in records:
            if r.produced:
                assert model.value(Literal(r.atom)) is True

    @pytest.mark.parametrize("entries, produced", [
        ([], []), ([(clause([p(a)]), frozenset({0}))], [p(a)])])
    def test_subterm_order_on_ground_clauses(self, entries, produced):
        # The subterm order builds a model as the weight order does.
        model, records = produce_model(entries, OrderingSpec(kind="subterm"))
        assert model == Interpretation(produced)
        assert [r.produced for r in records] == [True] * len(produced)


@st.composite
def production_inputs(draw):
    """Ground (clause, selection) lists over a small literal pool, so that
    literals repeat; with an empty clause and a multiset-equal duplicate."""
    pool = draw(st.lists(ground_literals(max_depth=1), min_size=1,
                         max_size=5))
    shapes = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=3), min_size=1, max_size=8))
    shapes.append([])
    shapes.append(draw(st.permutations(draw(st.sampled_from(shapes)))))
    entries = []
    for lits in draw(st.permutations(shapes)):
        sel = draw(st.sets(st.integers(0, max(len(lits) - 1, 0)),
                           max_size=len(lits)))
        entries.append((Clause(tuple(lits), origin="instance"),
                        frozenset(sel)))
    return entries


class TestProduceModelReference:
    @given(production_inputs(), weight_orderings())
    def test_matches_reference(self, entries, o):
        model, records = produce_model(entries, o)
        ref_model, ref_records = ref_produce_model(entries, o)
        assert model == ref_model
        assert ([(r.clause.cid, r.produced, r.atom) for r in records]
                == [(r.clause.cid, r.produced, r.atom) for r in ref_records])

    @given(production_inputs(), weight_orderings())
    def test_subterm_order_builds_the_weight_orders_model(self, entries, o):
        # With no predicate weight every atom's subterm key is its weight
        # key less one in the weight, so both orders run the clauses alike.
        weights = {s: w for s, w in o.weights.items() if s not in PREDICATES}
        o = replace(o, weights=weights)
        model, records = produce_model(entries, replace(o, kind="subterm"))
        assert (model, records) == produce_model(entries, o)


class TestFilteringInvariants:
    @given(ground_literals(), st.lists(ground_literals(), max_size=4))
    def test_filtered_tautology_stays_tautology_or_drops(self, seed, pool):
        taut = Clause((seed, seed.complement()) + tuple(pool),
                      origin="input-ground")
        consistent = {}
        for q in pool:
            consistent.setdefault(q.atom, q)
        i = Interpretation(consistent.values())
        got = filter_clause(taut, i)
        if got is not None:
            pos = {l.atom for l in got.literals if l.positive}
            neg = {l.atom for l in got.literals if not l.positive}
            assert pos & neg

    @given(clauses(max_size=2), clauses(max_size=2), ground_substitutions(),
           st.lists(ground_literals(), max_size=3))
    def test_subsumption_survives_filtering(self, c1, extra, theta, pool):
        # c1 subsumes c1+extra; on ground instances, either the big
        # filtrate disappears or the small filtrate is included in it.
        big = Clause(c1.literals + extra.literals, origin="input-nonground")
        small_g, big_g = theta(c1), theta(big)
        if vars_of(small_g) or vars_of(big_g):
            return
        consistent = {}
        for q in pool:
            consistent.setdefault(q.atom, q)
        i = Interpretation(consistent.values())
        big_f = filter_clause(big_g, i)
        if big_f is None:
            return
        small_f = filter_clause(small_g, i)
        assert small_f is None or subsumes(small_f, big_f)

    def test_construction_never_overrides_ground_model(self):
        # Filtered instances only mention undefined atoms, so the two
        # interpretations are compatible by construction.
        text = "~p(X1, Y1) | *q(f(X1), Y1)\n*~q(X2, Y2) | p(X2, f(Y2))\n"
        problem = parse_problem(text)
        ground_model = Interpretation([
            lit(Atom("p", (fn("f", a), fn("f", b))), False)])
        entries = [(c, problem.selection[c.cid]) for c in problem.theory]
        filtered = filtered_ground_instances(entries, ground_model,
                                             problem.signature, 2)
        constructed, _ = produce_model(filtered, WEIGHT)
        assert constructed.compatible(ground_model)
        for literal in constructed:
            assert not ground_model.defines(literal.atom)


class TestVerifyNoFalsified:
    def goodsel_run_model(self):
        return Interpretation([
            lit(Atom("p", (fn("f", a), fn("f", b))), False),
            lit(Atom("q", (fn("f", a), b)), False),
            lit(Atom("p", (a, b)), False),
        ])

    def test_goodsel_combined_model_clean_at_depth_two(self):
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "*~q(X2, Y2) | p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n")
        problem = parse_problem(text)
        ground_model = self.goodsel_run_model()
        entries = [(c, problem.selection[c.cid]) for c in problem.theory]
        filtered = filtered_ground_instances(entries, ground_model,
                                             problem.signature, 2)
        constructed, _ = produce_model(filtered, WEIGHT)
        combined = combine(constructed, ground_model)
        report = verify_no_falsified(combined, problem.theory, problem.ground,
                                     problem.signature, 2)
        assert report.ok
        assert report.checked > 0
        # Stronger, for this fixture: every depth-2 instance is satisfied.
        for c in problem.theory:
            for inst in enumerate_ground_instances(c, problem.signature, 2):
                assert combined.satisfies_clause(inst) is True

    def test_unsaturated_trap_is_caught_at_depth_one(self):
        # The all-negative q-trigger theory with the contradictory ground
        # pair: the bounded check exposes a falsified instance.
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "*~q(X2, Y2) | p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n"
                "p(a, b)\n")
        problem = parse_problem(text)
        ground_model = Interpretation([
            lit(Atom("p", (fn("f", a), fn("f", b))), False),
            lit(Atom("p", (a, b))),
        ])
        entries = [(c, problem.selection[c.cid]) for c in problem.theory]
        filtered = filtered_ground_instances(entries, ground_model,
                                             problem.signature, 1)
        constructed, _ = produce_model(filtered, WEIGHT)
        combined = combine(constructed, ground_model)
        report = verify_no_falsified(combined, problem.theory, problem.ground,
                                     problem.signature, 1)
        assert not report.ok

    def test_incompatible_models_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            combine(Interpretation([p(a)]), Interpretation([p(a, False)]))
