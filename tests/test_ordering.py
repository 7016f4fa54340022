"""Ordering: stability, ground totality, finiteness, polynomial bound."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigsat.ordering import (
    Comparison,
    OrderingSpec,
    atom_order_key,
    atom_weight,
    clause_order_key,
    compare_atoms,
    compare_clauses,
    compare_literals,
    literal_order_key,
    maximal_literals,
    maximum_literal,
    term_weight,
)
from trigsat.terms import (
    App,
    Atom,
    Clause,
    Literal,
    Var,
    const,
    fn,
    symbol_count,
)

from oracles import (_ref_weight, clause, ref_compare_atoms,
                     ref_compare_clauses)
from strategies import (
    atoms,
    ground_atoms,
    ground_literals,
    ground_substitutions,
    literals,
    orderings,
    terms,
    weight_orderings,
)

X, Y = Var("X"), Var("Y")
a, b, c = const("a"), const("b"), const("c")

WEIGHT = OrderingSpec(kind="weight")
SUBTERM = OrderingSpec(kind="subterm")
COUNTERSEL = OrderingSpec(kind="weight", precedence=("r", "q", "p"),
                          precedence_dominant=True)


def lit(atom, positive=True):
    return Literal(atom, positive)


class TestCompareAtoms:
    def test_subterm_product_pairwise(self):
        small = Atom("p", (a, b))
        big = Atom("p", (fn("f", a), fn("f", b)))
        assert compare_atoms(SUBTERM, small, big) is Comparison.LT
        assert compare_atoms(SUBTERM, big, small) is Comparison.GT

    def test_precedence_dominant_ignores_size(self):
        r_atom = Atom("r", (Y,))
        q_atom = Atom("q", (fn("f", fn("f", X)),))
        assert compare_atoms(COUNTERSEL, r_atom, q_atom) is Comparison.GT

    def test_reflexive_equality(self):
        atom = Atom("p", (fn("f", X), Y))
        assert compare_atoms(WEIGHT, atom, atom) is Comparison.EQ
        assert compare_atoms(SUBTERM, atom, atom) is Comparison.EQ

    def test_weight_var_condition(self):
        # Same weight, mismatched variables: stability forbids a verdict.
        assert compare_atoms(
            WEIGHT, Atom("p", (X, a)), Atom("p", (Y, a))) \
            is Comparison.INCOMPARABLE
        assert compare_atoms(
            WEIGHT, Atom("p", (X, a)), Atom("p", (a, a))) \
            is Comparison.INCOMPARABLE

    def test_subterm_incomparable_swapped_args(self):
        assert compare_atoms(
            SUBTERM, Atom("p", (a, b)), Atom("p", (b, a))) \
            is Comparison.INCOMPARABLE

    def test_subterm_cross_predicate_pointwise(self):
        # Arguments grow pointwise across equal-arity predicates.
        p_atom = Atom("p", (X, Y))
        q_atom = Atom("q", (fn("f", X), Y))
        assert compare_atoms(SUBTERM, p_atom, q_atom) is Comparison.LT

    def test_subterm_predicate_weight_makes_no_cycle(self):
        # Across predicates only the arguments and then the precedence
        # decide, never a weight: p's weight puts p(a) above neither atom.
        o = OrderingSpec(kind="subterm", precedence=("p", "r", "q"),
                         weights={"p": 5})
        pa, rb = Atom("p", (a,)), Atom("r", (b,) * 5)
        qf = Atom("q", (nest(4, a),))
        assert compare_atoms(o, rb, qf) is Comparison.INCOMPARABLE
        assert compare_atoms(o, qf, pa) is Comparison.GT
        assert compare_atoms(o, pa, rb) is Comparison.INCOMPARABLE

    def test_subterm_identical_arguments_order_by_precedence(self):
        o = OrderingSpec(kind="subterm", precedence=("r", "q"))
        ra, qa = Atom("r", (a,)), Atom("q", (a,))
        qfa = Atom("q", (fn("f", a),))
        assert compare_atoms(o, ra, qa) is Comparison.GT
        assert compare_atoms(o, qfa, ra) is Comparison.GT
        # Equal argument weight does not decide across predicates.
        for x, y in ((ra, Atom("q", (b,))), (qfa, Atom("p", (b, b)))):
            assert compare_atoms(o, x, y) is Comparison.INCOMPARABLE


class TestCompareLiterals:
    def test_negative_above_positive(self):
        atom = Atom("p", (a,))
        assert compare_literals(WEIGHT, lit(atom, False), lit(atom)) \
            is Comparison.GT

    def test_atom_comparison_dominates(self):
        order = OrderingSpec(kind="weight", precedence=("q", "p"))
        assert compare_literals(order, lit(Atom("q", (a,))),
                                lit(Atom("p", (a,)), False)) is Comparison.GT

    def test_subterm_weight_growth(self):
        assert compare_literals(WEIGHT, lit(Atom("p", (X, a))),
                                lit(Atom("p", (fn("f", X), a)))) \
            is Comparison.LT

    def test_atom_ordering_condition(self):
        # L > M with distinct atoms implies L > complement(M).
        order = COUNTERSEL
        l = lit(Atom("r", (Y,)), False)
        m = lit(Atom("q", (X,)))
        assert compare_literals(order, l, m) is Comparison.GT
        assert compare_literals(order, l, m.complement()) is Comparison.GT


class TestMaximalMaximum:
    def test_countersel_split_clause(self):
        c4 = clause([lit(Atom("p", (Var("X4"),))),
                     lit(Atom("q", (Var("X4"),))),
                     lit(Atom("r", (Var("Y4"),)), False)])
        assert maximal_literals(COUNTERSEL, c4.literals) == \
            [lit(Atom("r", (Var("Y4"),)), False)]
        assert maximum_literal(COUNTERSEL, c4) == \
            lit(Atom("r", (Var("Y4"),)), False)

    def test_incomparable_pair_has_no_maximum(self):
        c = clause([lit(Atom("p", (X, a))), lit(Atom("p", (Y, a)))])
        assert set(maximal_literals(SUBTERM, c.literals)) == set(c.literals)
        assert maximum_literal(SUBTERM, c) is None

    def test_unit_clause(self):
        c = clause([lit(Atom("p", (a, a)))])
        assert maximal_literals(WEIGHT, c.literals) == [c.literals[0]]
        assert maximum_literal(WEIGHT, c) == c.literals[0]

    def test_duplicate_literal_never_maximum(self):
        c = clause([lit(Atom("p", (a, a))), lit(Atom("p", (a, a)))])
        assert maximum_literal(WEIGHT, c) is None

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            maximal_literals(WEIGHT, ())


class TestCompareClauses:
    def test_proper_submultiset_is_smaller(self):
        small = clause([lit(Atom("p", (a, a)))])
        big = clause([lit(Atom("p", (a, a))), lit(Atom("q", (a,)))])
        assert compare_clauses(WEIGHT, small, big) is Comparison.LT

    def test_dominated_difference(self):
        # Every extra literal on the left is below the negative r-literal.
        order = COUNTERSEL
        left = clause([lit(Atom("q", (a,))), lit(Atom("p", (b, b)))])
        right = clause([lit(Atom("r", (a,)), False), lit(Atom("p", (b, b)))])
        assert compare_clauses(order, left, right) is Comparison.LT

    def test_empty_clause_is_least(self):
        bottom = Clause((), origin="input-ground")
        c = clause([lit(Atom("p", (a, a)))])
        assert compare_clauses(WEIGHT, bottom, c) is Comparison.LT
        assert compare_clauses(WEIGHT, c, bottom) is Comparison.GT

    def test_multiset_not_set_comparison(self):
        one = clause([lit(Atom("p", (a, a)))])
        two = clause([lit(Atom("p", (a, a))), lit(Atom("p", (a, a)))])
        assert compare_clauses(WEIGHT, one, two) is Comparison.LT

    def test_repeated_literal_is_not_compared_as_a_set(self):
        px, qx = lit(Atom("p", (X,))), lit(Atom("q", (X,)))
        three, two = clause([px, px, qx]), clause([px, qx])
        assert compare_clauses(WEIGHT, three, two) is Comparison.GT
        assert compare_clauses(WEIGHT, two, three) is Comparison.LT

    @given(weight_orderings(), st.lists(literals(), min_size=1, max_size=4),
           st.data())
    def test_matches_reference_with_repeated_literals(self, o, pool, data):
        # Clauses over a small pool, so that they share literals and repeat
        # them; one memo for all pairs, as `_pick_given` keeps it.
        draw = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
        cs = [clause(data.draw(draw)) for _ in range(3)]
        cs.append(clause(pool[:1] + pool))
        weights, memo = dict(o.weights), {}
        for c1, c2 in itertools.product(cs, repeat=2):
            assert (compare_clauses(o, c1, c2, memo)
                    is ref_compare_clauses(o, weights, c1, c2))

    @given(weight_orderings(), st.lists(literals(), min_size=1, max_size=3),
           st.data())
    def test_maximum_is_unique_and_greatest(self, o, pool, data):
        c = clause(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                      max_size=4)))
        weights = dict(o.weights)

        def greater(x, y):
            cmp = ref_compare_atoms(o, weights, x.atom, y.atom)
            if cmp is Comparison.EQ:
                return not x.positive and y.positive
            return cmp is Comparison.GT

        want = [l for l in c.literals if c.literals.count(l) == 1
                and all(greater(l, m) for m in c.literals if m is not l)]
        assert maximum_literal(o, c) is (want[0] if want else None)


class TestStability:
    @given(atoms(max_depth=2), atoms(max_depth=2), ground_substitutions())
    def test_weight_comparisons_stable(self, a1, a2, theta):
        verdict = compare_atoms(WEIGHT, a1, a2)
        if verdict in (Comparison.LT, Comparison.GT):
            assert compare_atoms(WEIGHT, theta(a1), theta(a2)) is verdict

    @given(atoms(max_depth=2), atoms(max_depth=2), ground_substitutions())
    def test_subterm_comparisons_stable(self, a1, a2, theta):
        verdict = compare_atoms(SUBTERM, a1, a2)
        if verdict in (Comparison.LT, Comparison.GT):
            assert compare_atoms(SUBTERM, theta(a1), theta(a2)) is verdict

    @given(atoms(max_depth=2), atoms(max_depth=2), ground_substitutions())
    def test_dominant_comparisons_stable(self, a1, a2, theta):
        verdict = compare_atoms(COUNTERSEL, a1, a2)
        if verdict in (Comparison.LT, Comparison.GT):
            assert compare_atoms(COUNTERSEL, theta(a1), theta(a2)) is verdict


_CONVERSE = {Comparison.LT: Comparison.GT, Comparison.GT: Comparison.LT,
             Comparison.EQ: Comparison.EQ,
             Comparison.INCOMPARABLE: Comparison.INCOMPARABLE}


@st.composite
def order_pools(draw):
    """Atoms, ground or not, each with its one-step shrinks (an argument
    replaced by one of its own arguments), so that chains are common."""
    pool = draw(st.lists(ground_atoms(max_depth=2) | atoms(max_depth=2),
                         min_size=2, max_size=6))
    shrinks = [Atom(x.pred, x.args[:i] + (u,) + x.args[i + 1:])
               for x in pool for i, t in enumerate(x.args)
               for u in getattr(t, "args", ())]
    return list(dict.fromkeys(pool + shrinks))


class TestOrderLaws:
    """Under both kinds, with drawn precedence, weights and dominance,
    `compare_atoms` is a strict partial order: irreflexive, asymmetric
    and transitive."""

    @pytest.mark.parametrize("kind", ["weight", "subterm"])
    @given(data=st.data())
    def test_strict_partial_order(self, kind, data):
        o = data.draw(orderings(kind))
        pool = data.draw(order_pools())
        verdict = {(x, y): compare_atoms(o, x, y)
                   for x, y in itertools.product(pool, repeat=2)}
        for (x, y), c in verdict.items():
            assert (c is Comparison.EQ) == (x is y)
            assert verdict[y, x] is _CONVERSE[c]
        for x, y, z in itertools.product(pool, repeat=3):
            if verdict[x, y] is Comparison.GT is verdict[y, z]:
                assert verdict[x, z] is Comparison.GT, (x, y, z)


class TestGroundTotality:
    @given(ground_atoms(max_depth=2), ground_atoms(max_depth=2))
    def test_weight_total_on_ground(self, a1, a2):
        assert compare_atoms(WEIGHT, a1, a2) is not Comparison.INCOMPARABLE


def _enumerate_ground_atoms(functions, predicates, max_weight):
    """All ground atoms up to a symbol-count budget (small signatures)."""
    from trigsat.terms import symbol_count

    terms = [App(n) for n, ar in functions.items() if ar == 0]
    grown = True
    while grown:
        grown = False
        for name, arity in functions.items():
            if arity == 0:
                continue
            for combo in itertools.product(list(terms), repeat=arity):
                t = App(name, combo)
                if t not in terms and symbol_count(t) <= max_weight:
                    terms.append(t)
                    grown = True
    out = []
    for pred, arity in predicates.items():
        for combo in itertools.product(terms, repeat=arity):
            atom = Atom(pred, combo)
            if 1 + sum(symbol_count(t) for t in combo) <= max_weight:
                out.append(atom)
    return out


class TestFinitenessBounds:
    def test_omega_isomorphism_weight(self):
        # Every atom below p(g(a), a) sits in the finite weight-bounded pool.
        functions = {"a": 0, "g": 1}
        predicates = {"p": 2, "q": 2}
        top = Atom("p", (fn("g", a), a))
        w = atom_weight(WEIGHT, top)
        pool = _enumerate_ground_atoms(functions, predicates, w)
        below = [at for at in pool
                 if compare_atoms(WEIGHT, at, top) is Comparison.LT]
        assert 0 < len(below) < len(pool) + 1
        # Anything heavier can never be below.
        heavy = Atom("q", (fn("g", fn("g", fn("g", a))), fn("g", a)))
        assert compare_atoms(WEIGHT, heavy, top) is not Comparison.LT

    def test_polynomial_bound_subterm(self):
        # Count of strictly smaller ground atoms <= n^2 for binary atoms.
        functions = {"a": 0, "g": 1}
        predicates = {"p": 2, "q": 2}
        order = SUBTERM
        for d1 in range(0, 4):
            for d2 in range(0, 4):
                t1 = a
                for _ in range(d1):
                    t1 = fn("g", t1)
                t2 = a
                for _ in range(d2):
                    t2 = fn("g", t2)
                top = Atom("p", (t1, t2))
                n = atom_weight(WEIGHT, top)
                pool = _enumerate_ground_atoms(functions, predicates, n + 2)
                below = [at for at in pool
                         if compare_atoms(order, at, top) is Comparison.LT]
                assert len(below) <= n * n

    def test_few_atoms_below_under_subterm(self):
        # Equal-size arguments of different predicates are incomparable,
        # so below r(t) lie r(s) for s a proper subterm of t and q(s) for
        # s a subterm of t: fewer than twice t's subterms, where a
        # precedence tie on equal argument weight puts every q(s) with
        # |s| = |t| there too (Catalan-many s for a binary f).
        order = OrderingSpec(kind="subterm", precedence=("r", "q"))
        pool = _enumerate_ground_atoms({"a": 0, "f": 2},
                                       {"q": 1, "r": 1}, 10)
        tops = [at for at in pool if at.pred == "r"]
        assert max(symbol_count(at.args[0]) for at in tops) == 9
        for top in tops:
            below = [at for at in pool
                     if compare_atoms(order, at, top) is Comparison.LT]
            assert len(below) <= 2 * len(_subterms(top.args[0])), top


def _subterms(t):
    out = {t}
    for u in getattr(t, "args", ()):
        out |= _subterms(u)
    return out


class TestCachedWeightOrdering:
    """`compare_atoms` reads atom weights and variable counts from a cache
    kept per `OrderingSpec`; it must agree with the uncached reference."""

    @given(weight_orderings(), st.lists(atoms(max_depth=2), min_size=2,
                                        max_size=6))
    def test_matches_uncached_reference(self, o, pool):
        for _ in range(2):  # the second round reads the filled cache
            for a1, a2 in itertools.product(pool, repeat=2):
                assert (compare_atoms(o, a1, a2)
                        is ref_compare_atoms(o, dict(o.weights), a1, a2))

    @given(weight_orderings(), weight_orderings(),
           st.lists(atoms(max_depth=2), min_size=2, max_size=6))
    def test_two_specs_over_the_same_atoms(self, first, second, pool):
        # Interleaved, so a cache shared between specs would show.
        for a1, a2 in itertools.product(pool, repeat=2):
            for o in (first, second):
                assert (compare_atoms(o, a1, a2)
                        is ref_compare_atoms(o, dict(o.weights), a1, a2))

    def test_equal_atoms_different_weights(self):
        light = OrderingSpec(kind="weight", precedence=("g", "f"))
        heavy = OrderingSpec(kind="weight", precedence=("g", "f"),
                             weights={"f": 3})
        fa, gga = Atom("p", (fn("f", a),)), Atom("p", (fn("g", fn("g", a)),))
        for _ in range(2):
            assert compare_atoms(light, fa, gga) is Comparison.LT
            assert compare_atoms(heavy, fa, gga) is Comparison.GT


class TestWeightsAreCopied:
    def test_caller_dict_mutation_does_not_reach_the_spec(self):
        d = {"f": 2}
        o = OrderingSpec(weights=d)
        d["f"] = 0
        d["g"] = 5
        assert o.symbol_weight("f") == 2
        assert o.symbol_weight("g") == 1
        assert dict(o.weights) == {"f": 2}

    def test_weights_cannot_be_changed_through_the_spec(self):
        o = OrderingSpec(weights={"f": 2})
        with pytest.raises(TypeError):
            o.weights["f"] = 0

    def test_zero_weight_still_refused(self):
        with pytest.raises(ValueError, match=">= 1"):
            OrderingSpec(weights={"f": 0})

    def test_symbol_listed_twice_in_precedence_refused(self):
        with pytest.raises(ValueError, match="precedence lists 'p' twice"):
            OrderingSpec(precedence=("p", "q", "p"))

    def test_specs_with_equal_weights_are_equal(self):
        assert (OrderingSpec(weights={"f": 2}, precedence=("f",))
                == OrderingSpec(weights={"f": 2}, precedence=("f",)))
        assert OrderingSpec(weights={"f": 2}) != OrderingSpec()


def _order(x, y) -> Comparison:
    """The comparison that two sort keys stand for."""
    if x == y:
        return Comparison.EQ
    return Comparison.LT if x < y else Comparison.GT


def nest(depth, t, name="f"):
    for _ in range(depth):
        t = fn(name, t)
    return t


class TestGroundOrderKeys:
    """Under the weight order, ground atoms, literals and clauses have keys
    that compare as the pairwise comparisons do; under the subterm order,
    keys that order every strictly comparable pair as they do."""

    @given(orderings("subterm"), st.lists(ground_atoms(max_depth=3),
                                          min_size=2, max_size=8))
    def test_subterm_keys_extend_compare_atoms(self, o, pool):
        for a1, a2 in itertools.product(pool, repeat=2):
            c = compare_atoms(o, a1, a2)
            if c is not Comparison.INCOMPARABLE:
                assert _order(atom_order_key(o, a1),
                              atom_order_key(o, a2)) is c

    @given(weight_orderings(), st.lists(ground_atoms(max_depth=3),
                                        min_size=2, max_size=6))
    def test_atom_keys_match_reference(self, o, pool):
        weights = dict(o.weights)
        for a1, a2 in itertools.product(pool, repeat=2):
            assert (_order(atom_order_key(o, a1), atom_order_key(o, a2))
                    is ref_compare_atoms(o, weights, a1, a2))

    @given(weight_orderings(), st.lists(ground_literals(max_depth=2),
                                        min_size=2, max_size=6))
    def test_literal_keys_match_compare_literals(self, o, pool):
        for l1, l2 in itertools.product(pool, repeat=2):
            assert (_order(literal_order_key(o, l1), literal_order_key(o, l2))
                    is compare_literals(o, l1, l2))

    @given(weight_orderings(), st.lists(
        st.lists(ground_literals(max_depth=1), max_size=4).map(
            lambda lits: Clause(tuple(lits))), min_size=2, max_size=5))
    def test_clause_keys_match_multiset_extension(self, o, pool):
        # Literals over a small pool, so that clauses share literals and
        # repeat them.
        weights = dict(o.weights)
        pool = pool + [Clause(pool[0].literals + pool[0].literals[:1])]
        for c1, c2 in itertools.product(pool, repeat=2):
            by_key = _order(clause_order_key(o, c1), clause_order_key(o, c2))
            assert by_key is ref_compare_clauses(o, weights, c1, c2)
            assert by_key is compare_clauses(o, c1, c2)

    @given(weight_orderings(), terms(max_depth=3))
    def test_term_weight_reads_the_cache(self, o, t):
        for _ in range(2):  # the second call reads the filled cache
            assert term_weight(o, t) == _ref_weight(dict(o.weights), t)

    def test_nonground_atom_has_no_key(self):
        with pytest.raises(ValueError, match="ground"):
            atom_order_key(WEIGHT, Atom("p", (X,)))

    @pytest.mark.parametrize("o", [
        WEIGHT, COUNTERSEL, OrderingSpec(kind="weight", weights={"f": 3})])
    def test_deep_atoms_of_equal_weight(self, o):
        # Keys of depth 5000 compare by a loop, not by C recursion.
        deep_a = Atom("p", (nest(5000, a), b))
        deep_b = Atom("p", (nest(5000, b), b))
        deep_c = Atom("p", (nest(4999, fn("g", a)), b))
        ka, kb, kc = (atom_order_key(o, x) for x in (deep_a, deep_b, deep_c))
        assert ka < kb and kb > ka and ka != kb and not ka == kb
        assert ka == atom_order_key(o, Atom("p", (nest(5000, a), b)))
        assert compare_atoms(o, deep_a, deep_b) is Comparison.LT
        for x, kx in ((deep_a, ka), (deep_b, kb), (deep_c, kc)):
            for y, ky in ((deep_a, ka), (deep_b, kb), (deep_c, kc)):
                assert _order(kx, ky) is compare_atoms(o, x, y)
        c1 = Clause((Literal(deep_b, False), Literal(deep_a)))
        c2 = Clause((Literal(deep_a), Literal(deep_b)))
        assert compare_clauses(o, c1, c2) is Comparison.GT
        assert compare_clauses(o, c2, c1) is Comparison.LT
        assert term_weight(o, nest(5000, a)) == 5000 * o.symbol_weight("f") + 1


def deep_pair(depth, bottom_s, bottom_t, side=None):
    """f^depth(bottom_s) and f^depth(bottom_t) with unary f, or with
    binary f and `side(i)` as the second argument at level i."""
    s, t = bottom_s, bottom_t
    for i in range(depth):
        if side is None:
            s, t = fn("f", s), fn("f", t)
        else:
            s, t = fn("f", s, side(i)), fn("f", t, side(i))
    return s, t


@st.composite
def context_pairs(draw):
    """Two terms that differ only at one position below a random context,
    whose siblings carry variables on both sides of the path."""
    s = draw(terms(max_depth=2))
    t = draw(terms(max_depth=2))
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(("g", "left", "right")))
        if how == "g":
            s, t = fn("g", s), fn("g", t)
        else:
            other = draw(terms(max_depth=2))
            s, t = ((fn("f", s, other), fn("f", t, other)) if how == "left"
                    else (fn("f", other, s), fn("f", other, t)))
    return s, t


class TestDeepNonGroundKbo:
    """`_kbo` keeps its variable counts as it descends instead of
    recounting them, so comparing deep non-ground terms is linear."""

    @given(weight_orderings(), context_pairs())
    def test_matches_reference_below_a_context(self, o, pair):
        s, t = pair
        for a1, a2 in ((Atom("q", (s,)), Atom("q", (t,))),
                       (Atom("p", (s, X)), Atom("p", (t, Y)))):
            assert (compare_atoms(o, a1, a2)
                    is ref_compare_atoms(o, dict(o.weights), a1, a2))
            assert (compare_atoms(o, a2, a1)
                    is ref_compare_atoms(o, dict(o.weights), a2, a1))

    @pytest.mark.parametrize("o", [
        WEIGHT, COUNTERSEL, OrderingSpec(kind="weight", weights={"f": 3})])
    @pytest.mark.parametrize("bottoms, side", [
        ((fn("g", X), fn("h", X)), None),
        ((fn("g", X), fn("h", Y)), None),
        ((fn("g", X), fn("g", fn("g", Y))), None),
        ((fn("g", X), fn("h", X)), lambda i: Var(f"V{i % 7}")),
        ((fn("h", X), fn("g", Y)), lambda i: X if i % 2 else Y),
        ((X, fn("g", Y)), lambda i: fn("g", Var(f"V{i % 3}"))),
    ])
    def test_matches_reference_at_depth_150(self, o, bottoms, side):
        s, t = deep_pair(150, *bottoms, side=side)
        a1, a2 = Atom("p", (s,)), Atom("p", (t,))
        for x, y in ((a1, a2), (a2, a1)):
            assert (compare_atoms(o, x, y)
                    is ref_compare_atoms(o, dict(o.weights), x, y))

    @pytest.mark.parametrize("o", [
        WEIGHT, OrderingSpec(kind="weight", weights={"f": 3})])
    def test_depth_5000(self, o):
        s, t = deep_pair(5000, fn("g", X), fn("h", X))
        # Equal weight down to g(X) against h(X): h > g by name.
        assert compare_atoms(o, Atom("p", (s,)), Atom("p", (t,))) \
            is Comparison.LT
        s, t = deep_pair(5000, fn("g", X), fn("h", Y))
        assert compare_atoms(o, Atom("p", (s,)), Atom("p", (t,))) \
            is Comparison.INCOMPARABLE
        s, t = deep_pair(5000, fn("h", X), fn("g", X),
                         side=lambda i: Var(f"V{i % 3}"))
        assert compare_atoms(o, Atom("p", (s, Y)), Atom("p", (t, Y))) \
            is Comparison.GT

    @pytest.mark.parametrize("side", [None, lambda i: Var(f"V{i % 50}")])
    def test_variables_are_counted_once_per_node(self, monkeypatch, side):
        # Every call to `var_counts` walks its argument, so the nodes it is
        # given bound the work.  Each atom is counted once (for its cached
        # variable condition), the first differing arguments once more, and
        # each sibling once: under three times the atoms' size.  Recounting
        # at each level would give about depth^2 / 2 nodes.
        import trigsat.ordering as ordering

        walked = []
        real = ordering.var_counts

        def counting(obj):
            walked.append(symbol_count(obj))
            return real(obj)

        monkeypatch.setattr(ordering, "var_counts", counting)
        s, t = deep_pair(2000, fn("g", X), fn("h", X), side=side)
        a1, a2 = Atom("p", (s,)), Atom("p", (t,))
        o = OrderingSpec(kind="weight")  # fresh: nothing cached yet
        assert compare_atoms(o, a1, a2) is Comparison.LT
        assert sum(walked) <= 3 * (symbol_count(a1) + symbol_count(a2))
