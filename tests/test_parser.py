"""Problem grammar, error positions, and round-tripping."""

import pytest

from trigsat.parser import (
    ParseError,
    format_clause,
    model_lines,
    parse_model_text,
    parse_problem,
)
from trigsat.terms import Atom, Literal, Var, const, fn

from oracles import format_problem


def lit(name, positive=True, *args):
    return Literal(Atom(name, tuple(args)), positive)


class TestParseProblem:
    def test_selection_marker(self):
        problem = parse_problem("~p(X1, Y1) | *q(f(X1), Y1)\n")
        assert len(problem.theory) == 1
        c = problem.theory[0]
        assert problem.selection[c.cid] == frozenset({1})
        assert c.literals[0] == lit("p", False, Var("X1"), Var("Y1"))
        assert c.literals[1] == lit("q", True, fn("f", Var("X1")), Var("Y1"))

    def test_ground_unit(self):
        problem = parse_problem("g(a, b)\n")
        assert problem.theory == []
        assert len(problem.ground) == 1
        assert problem.ground[0].literals == (lit("g", True, const("a"),
                                                  const("b")),)
        assert problem.ground[0].origin == "input-ground"

    def test_unterminated_args_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_problem("p(X,")
        assert err.value.line == 1
        assert err.value.col == 5

    def test_marker_on_ground_clause(self):
        with pytest.raises(ParseError, match="ground"):
            parse_problem("*p(a)\n")

    def test_arity_clash_reported_with_line(self):
        with pytest.raises(ParseError, match="arity clash") as err:
            parse_problem("p(a)\np(a, b)\n")
        assert err.value.line == 2

    def test_comments_and_blank_lines(self):
        text = "% a comment\n\np(a) % trailing\n"
        problem = parse_problem(text)
        assert len(problem.ground) == 1

    def test_unknown_token(self):
        with pytest.raises(ParseError, match="unknown token"):
            parse_problem("p(a) & q(b)\n")

    def test_digit_symbols(self):
        problem = parse_problem("number(n1)\ntriple(1, 2, 3)\n")
        assert len(problem.ground) == 2

    def test_variables_are_uppercase(self):
        problem = parse_problem("p(X) | ~q(Abc, x)\n")
        c = problem.theory[0]
        assert c.literals[1].atom.args[0] == Var("Abc")
        assert c.literals[1].atom.args[1] == const("x")

    def test_injected_constant_for_pure_variable_problem(self):
        problem = parse_problem("*p(f(X))\n")
        assert problem.signature.constants != []


class TestRoundTrip:
    def test_parse_print_parse(self):
        text = ("~p(X1, Y1) | *q(f(X1), Y1)\n"
                "~q(X2, Y2) | *p(X2, f(Y2))\n"
                "~p(f(a), f(b))\n")
        problem = parse_problem(text)
        printed = format_problem(problem)
        again = parse_problem(printed)
        assert [c.literals for c in again.theory] == \
            [c.literals for c in problem.theory]
        assert [c.literals for c in again.ground] == \
            [c.literals for c in problem.ground]
        assert list(again.selection.values()) == \
            list(problem.selection.values())
        assert format_problem(again) == printed

    def test_format_clause_with_markers(self):
        problem = parse_problem("*~s(p(X, Y), nil)\n")
        c = problem.theory[0]
        assert format_clause(c, problem.selection[c.cid]) == \
            "*~s(p(X, Y), nil)"


class TestModelFiles:
    def test_round_trip(self):
        text = "~p(f(a), f(b))\n~q(f(a), b)\n"
        lits = parse_model_text(text)
        assert lits == [lit("p", False, fn("f", const("a")),
                            fn("f", const("b"))),
                        lit("q", False, fn("f", const("a")), const("b"))]
        assert "".join(model_lines(lits)) == text

    def test_nonground_rejected(self):
        with pytest.raises(ParseError, match="ground"):
            parse_model_text("p(X)\n")


class TestDeepTerms:
    TEXT = "p(" + "f(" * 5000 + "a" + ")" * 5000 + ", X) | ~q(b)\n"

    def test_parse_print_reparse(self):
        first = parse_problem(self.TEXT)
        second = parse_problem(self.TEXT)
        c1, c2 = first.theory[0], second.theory[0]
        assert c1 == c2
        assert all(l1 is l2 for l1, l2 in zip(c1.literals, c2.literals))
        printed = format_clause(c1) + "\n"
        assert printed == self.TEXT
        again = parse_problem(printed).theory[0]
        assert again.literals[0] is c1.literals[0]

    def test_deep_model_literal(self):
        text = "~p(" + "f(" * 5000 + "a" + ")" * 5000 + ")\n"
        lits = parse_model_text(text)
        assert "".join(model_lines(lits)) == text
