"""Selection validity and the automatic strategies."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigsat.ordering import Comparison, OrderingSpec, compare_literals
from trigsat.selection import (
    SelectionError,
    auto_select,
    extend_selection,
    validate_selection,
)
from trigsat.terms import Atom, Literal, Var, const, fn, vars_of

from oracles import clause
from strategies import clauses

X1, Y1, X2, Y2 = Var("X1"), Var("Y1"), Var("X2"), Var("Y2")
X4, Y4 = Var("X4"), Var("Y4")
a = const("a")

COUNTERSEL = OrderingSpec(kind="weight", precedence=("r", "q", "p"),
                          precedence_dominant=True)
WEIGHT = OrderingSpec(kind="weight")


def lit(atom, positive=True):
    return Literal(atom, positive)


def countersel_c4():
    # p(X4) | q(X4) | ~r(Y4)
    return clause([lit(Atom("p", (X4,))), lit(Atom("q", (X4,))),
                   lit(Atom("r", (Y4,)), False)])


class TestValidateSelection:
    def test_variable_coverage_failure(self):
        c4 = countersel_c4()
        result = validate_selection(c4, {2}, COUNTERSEL)
        assert not result
        assert result.witness == frozenset({2})  # T = the whole selection
        assert "do not cover" in result.reason

    def test_subset_condition_failure(self):
        # Selecting p plus the r-guard: dropping the guard leaves p, which
        # is neither maximal nor negative next to q.
        c4 = countersel_c4()
        result = validate_selection(c4, {0, 2}, COUNTERSEL)
        assert not result
        assert result.witness == frozenset({2})

    def test_valid_variant(self):
        c4 = countersel_c4()
        assert validate_selection(c4, {1, 2}, COUNTERSEL)

    def test_ground_clause_rejected(self):
        c = clause([lit(Atom("p", (a,)))])
        with pytest.raises(ValueError, match="non-ground"):
            validate_selection(c, {0}, WEIGHT)

    def test_cap_on_selection_size(self):
        lits = [lit(Atom("p", (Var(f"V{i}"), Var(f"V{i+1}"))))
                for i in range(9)]
        big = clause(lits)
        with pytest.raises(ValueError, match="cap"):
            validate_selection(big, set(range(9)), WEIGHT)

    def test_agrees_with_bruteforce_checker(self):
        # Independent re-derivation of the condition for every subset of
        # every candidate selection on a fixed clause.
        c = clause([lit(Atom("p", (X1, Y1)), False),
                    lit(Atom("q", (fn("f", X1), Y1))),
                    lit(Atom("p", (Y1, Y1)))])
        order = WEIGHT

        def naive_maximal(literals):
            return [x for x in set(literals)
                    if not any(compare_literals(order, y, x) is Comparison.GT
                               for y in set(literals) if y != x)]

        def naive_valid(sel_positions):
            all_pos = list(range(len(c.literals)))
            cvars = vars_of(c)
            for r in range(len(sel_positions) + 1):
                for t in itertools.combinations(sorted(sel_positions), r):
                    tvars = vars_of([c.literals[i] for i in t])
                    if tvars == cvars:
                        continue
                    rest_sel = [c.literals[i] for i in sel_positions
                                if i not in t]
                    if any(not l.positive for l in rest_sel):
                        continue
                    rest = [c.literals[i] for i in all_pos if i not in t]
                    if not set(naive_maximal(rest)) <= set(rest_sel):
                        return False
            return True

        for r in range(1, 4):
            for sel in itertools.combinations(range(3), r):
                got = bool(validate_selection(c, set(sel), order))
                assert got == naive_valid(set(sel)), f"selection {sel}"

    @given(clauses(max_size=3))
    def test_valid_selections_cover_variables(self, c):
        # Consequence of validity: the selected literals span the clause.
        if c.is_ground:
            return
        n = len(c.literals)
        for r in range(1, n + 1):
            for sel in itertools.combinations(range(n), r):
                if validate_selection(c, set(sel), WEIGHT):
                    assert vars_of([c.literals[i] for i in sel]) == vars_of(c)

    @given(clauses(max_size=3))
    def test_sufficient_forms_always_validate(self, c):
        # All-negative-and-covering, or singleton-maximum-and-covering.
        if c.is_ground:
            return
        negatives = {i for i, l in enumerate(c.literals) if not l.positive}
        if negatives and vars_of([c.literals[i] for i in negatives]) == vars_of(c):
            assert validate_selection(c, negatives, WEIGHT)
        from trigsat.ordering import maximum_literal
        top = maximum_literal(WEIGHT, c)
        if top is not None and vars_of(top) == vars_of(c):
            assert validate_selection(c, {c.literals.index(top)}, WEIGHT)


class TestAutoSelect:
    def test_max_on_structurally_larger_literal(self):
        c1 = clause([lit(Atom("p", (X1, Y1)), False),
                     lit(Atom("q", (fn("f", X1), Y1)))])
        order = OrderingSpec(kind="subterm", precedence=("q", "p"))
        assert auto_select(c1, order, "max") == frozenset({1})

    def test_unit_clause_any_strategy(self):
        c = clause([lit(Atom("g", (fn("s", X1), X1)))])
        for strategy in ("max", "maximal", "all"):
            assert auto_select(c, WEIGHT, strategy) == frozenset({0})

    def test_all_negative_coverage_failure(self):
        c4 = countersel_c4()
        with pytest.raises(SelectionError) as exc:
            auto_select(c4, COUNTERSEL, "neg")
        assert [v.name for v in exc.value.uncovered] == ["X4"]

    def test_max_failure_without_maximum(self):
        c = clause([lit(Atom("p", (X1, a))), lit(Atom("p", (Y1, a)))])
        with pytest.raises(SelectionError):
            auto_select(c, OrderingSpec(kind="subterm"), "max")

    def test_maximal_is_validated(self):
        # Maximal literals that miss the subset condition must be refused.
        c4 = countersel_c4()
        with pytest.raises(SelectionError):
            auto_select(c4, COUNTERSEL, "maximal")

    def test_all_is_always_valid(self):
        c4 = countersel_c4()
        sel = auto_select(c4, COUNTERSEL, "all")
        assert sel == frozenset({0, 1, 2})
        assert validate_selection(c4, sel, COUNTERSEL)

    @given(clauses(max_size=3), st.sampled_from(["max", "maximal", "neg", "all"]))
    def test_successful_outputs_validate(self, c, strategy):
        if c.is_ground or len(c.literals) > 8:
            return
        try:
            sel = auto_select(c, WEIGHT, strategy)
        except SelectionError:
            return
        assert validate_selection(c, sel, WEIGHT)


class TestExtendSelection:
    def test_error_mode_refuses(self):
        c = clause([lit(Atom("p", (X1,)))])
        with pytest.raises(SelectionError, match="derived clause"):
            extend_selection(c, WEIGHT, "error")

    def test_auto_cascade_lands_on_all(self):
        # p(X) | p(X) | ~r(Y): no maximum, maximal/negative miss X.
        c = clause([lit(Atom("p", (X1,))), lit(Atom("p", (X1,))),
                    lit(Atom("r", (Y1,)), False)])
        sel = extend_selection(c, COUNTERSEL, "auto")
        assert sel == frozenset({0, 1, 2})

    def test_auto_prefers_maximum(self):
        c7 = clause([lit(Atom("p", (X1, Y1)), False),
                     lit(Atom("p", (fn("f", X1), fn("f", Y1))))])
        assert extend_selection(c7, WEIGHT, "auto") == frozenset({1})
