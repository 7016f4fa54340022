"""Shared hypothesis strategies for random terms, atoms, and clauses."""

from __future__ import annotations

from hypothesis import strategies as st

from trigsat.ordering import OrderingSpec
from trigsat.terms import App, Atom, Clause, Literal, Substitution, Var

FUNCTIONS = {"f": 2, "g": 1, "a": 0, "b": 0}
PREDICATES = {"p": 2, "q": 1, "r": 1}
VARIABLES = ("X", "Y", "Z")


def terms(max_depth: int = 3, variables: tuple[str, ...] = VARIABLES,
          unary: tuple[str, ...] = ("g",)):
    base = st.sampled_from([App("a"), App("b")])
    if variables:
        base = base | st.sampled_from([Var(v) for v in variables])

    def extend(children):
        return st.one_of(
            *(st.builds(lambda t, name=name: App(name, (t,)), children)
              for name in unary),
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
def orderings(draw, kind: str):
    """An ordering of `kind` with random weights, precedence and dominance."""
    weights = draw(st.dictionaries(st.sampled_from(SYMBOLS),
                                   st.integers(1, 4), max_size=4))
    precedence = draw(st.permutations(SYMBOLS))[:draw(st.integers(0, 7))]
    return OrderingSpec(kind=kind, weights=weights,
                        precedence=tuple(precedence),
                        precedence_dominant=draw(st.booleans()))


def weight_orderings():
    return orderings("weight")


# -- deeper terms, for the per-symbol subsumption counts ---------------

# Renaming a function symbol keeps its arity: f is binary, g and h unary.
SWAPS = {"f": "f2", "g": "h", "h": "g", "a": "b", "b": "a"}


def nested_terms(max_leaves: int = 8):
    """Terms over f/2, g/1, h/1, a, b and `VARIABLES`, up to `max_leaves`
    leaves."""
    return terms(max_depth=max_leaves - 2, unary=("g", "h"))


def nested_clauses(max_size: int = 3, max_leaves: int = 6):
    def literal(pred, args, positive):
        return Literal(Atom(pred, tuple(args)), positive)

    lits = st.one_of([st.builds(
        literal, st.just(pred),
        st.lists(nested_terms(max_leaves), min_size=arity, max_size=arity),
        st.booleans()) for pred, arity in sorted(PREDICATES.items())])
    return st.builds(lambda ls: Clause(tuple(ls), origin="input-nonground"),
                     st.lists(lits, min_size=1, max_size=max_size))


def _change_symbol(t, draw):
    """t with one function symbol occurrence renamed (see `SWAPS`), or
    one subterm wrapped in g or cut down to its first argument."""
    path = []
    while isinstance(t, App) and t.args and draw(st.booleans()):
        i = draw(st.integers(0, len(t.args) - 1))
        path.append((t, i))
        t = t.args[i]
    how = draw(st.sampled_from(("rename", "wrap", "cut")))
    if how == "wrap" or isinstance(t, Var):
        t = App("g", (t,))
    elif how == "cut" and t.args:
        t = t.args[0]
    else:
        t = App(SWAPS.get(t.fn, t.fn + "2"), t.args)
    for parent, i in reversed(path):
        t = App(parent.fn, parent.args[:i] + (t,) + parent.args[i + 1:])
    return t


@st.composite
def nested_subsumption_pairs(draw):
    """(c, d): d an instance of c with nested terms, then with some
    function symbols changed, literals flipped, dropped or added, and
    shuffled, so that each count of the feature vector gets to decide."""
    c = draw(nested_clauses())
    theta = Substitution(dict(zip(
        (Var(v) for v in VARIABLES),
        draw(st.lists(nested_terms(4), min_size=3, max_size=3)))))
    d_lits = list(theta(c).literals)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(d_lits) - 1))
        lit = d_lits[i]
        how = draw(st.sampled_from(("symbol", "flip", "drop", "add")))
        if how == "symbol" and lit.atom.args:
            j = draw(st.integers(0, len(lit.atom.args) - 1))
            args = list(lit.atom.args)
            args[j] = _change_symbol(args[j], draw)
            d_lits[i] = Literal(Atom(lit.atom.pred, tuple(args)), lit.positive)
        elif how == "flip":
            d_lits[i] = lit.complement()
        elif how == "drop" and len(d_lits) > 1:
            del d_lits[i]
        else:
            d_lits.append(draw(nested_clauses(max_size=1)).literals[0])
    return c, Clause(tuple(draw(st.permutations(d_lits))),
                     origin="input-nonground")
