"""Shared hypothesis strategies for random terms, atoms, and clauses."""

from __future__ import annotations

from hypothesis import strategies as st

from trigsat.ordering import OrderingSpec
from trigsat.terms import App, Atom, Clause, Literal, Substitution, Var

FUNCTIONS = {"f": 2, "g": 1, "a": 0, "b": 0}
PREDICATES = {"p": 2, "q": 1, "r": 1}
VARIABLES = ("X", "Y", "Z")


def terms(max_depth: int = 3, variables: tuple[str, ...] = VARIABLES):
    base = st.sampled_from([App("a"), App("b")])
    if variables:
        base = base | st.sampled_from([Var(v) for v in variables])

    def extend(children):
        return st.one_of(
            st.builds(lambda t: App("g", (t,)), children),
            st.builds(lambda s, t: App("f", (s, t)), children, children),
        )

    return st.recursive(base, extend, max_leaves=max_depth + 2)


def ground_terms_st(max_depth: int = 2):
    return terms(max_depth=max_depth, variables=())


def atoms(max_depth: int = 2, variables: tuple[str, ...] = VARIABLES):
    def build(pred, args):
        return Atom(pred, tuple(args))

    choices = []
    for pred, arity in sorted(PREDICATES.items()):
        choices.append(st.builds(
            build, st.just(pred),
            st.lists(terms(max_depth, variables),
                     min_size=arity, max_size=arity)))
    return st.one_of(choices)


def ground_atoms(max_depth: int = 2):
    return atoms(max_depth=max_depth, variables=())


def literals(max_depth: int = 2, variables: tuple[str, ...] = VARIABLES):
    return st.builds(Literal, atoms(max_depth, variables), st.booleans())


def ground_literals(max_depth: int = 2):
    return st.builds(Literal, ground_atoms(max_depth), st.booleans())


def clauses(max_size: int = 4, max_depth: int = 2,
            variables: tuple[str, ...] = VARIABLES):
    return st.builds(
        lambda lits: Clause(tuple(lits), origin="input-nonground"),
        st.lists(literals(max_depth, variables), min_size=1,
                 max_size=max_size))


def ground_substitutions(variables: tuple[str, ...] = VARIABLES,
                         max_depth: int = 2):
    return st.builds(
        lambda ts: Substitution(dict(zip((Var(v) for v in variables), ts))),
        st.lists(ground_terms_st(max_depth), min_size=len(variables),
                 max_size=len(variables)))


SYMBOLS = ("f", "g", "a", "b", "p", "q", "r")


@st.composite
def weight_orderings(draw):
    """A weight ordering with random weights, precedence and dominance."""
    weights = draw(st.dictionaries(st.sampled_from(SYMBOLS),
                                   st.integers(1, 4), max_size=4))
    precedence = draw(st.permutations(SYMBOLS))[:draw(st.integers(0, 7))]
    return OrderingSpec(kind="weight", weights=weights,
                        precedence=tuple(precedence),
                        precedence_dominant=draw(st.booleans()))
