"""Term core: unification, matching, substitution, ground enumeration."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigsat.ordering import Comparison, OrderingSpec, compare_atoms
from trigsat.terms import (
    App,
    Atom,
    Literal,
    Signature,
    Substitution,
    Var,
    canonicalize,
    const,
    enumerate_ground_instances,
    fn,
    ground_terms,
    is_subterm,
    match_literal,
    preorder,
    symbol_count,
    unify,
    vars_of,
)

from oracles import (
    apply,
    clause,
    compose,
    ground_terms_by_depth,
    match_onto,
    ref_depth,
    ref_ground,
    ref_rebuild,
    ref_preorder,
    ref_symbol_count,
    ref_term_key,
)
from strategies import (
    atoms,
    clauses,
    ground_substitutions,
    ground_terms_st,
    literals,
    terms,
)

X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = const("a"), const("b")


def lit(atom, positive=True):
    return Literal(atom, positive)


class TestUnify:
    def test_binds_both_sides(self):
        # unify(p(X, f(Y)), p(g(a), f(b)))
        left = Atom("p", (X, fn("f", Y)))
        right = Atom("p", (fn("g", a), fn("f", b)))
        sigma = unify(left, right)
        assert sigma is not None
        assert sigma(left) == sigma(right)
        assert sigma[X] == fn("g", a)
        assert sigma[Y] == b

    def test_occurs_check(self):
        # g(s(X), X) vs g(X', X') forces X' = s(X) and X' = X
        left = Atom("g", (fn("s", X), X))
        right = Atom("g", (Y, Y))
        assert unify(left, right) is None

    def test_identity(self):
        atom = Atom("p", (X,))
        sigma = unify(atom, atom)
        assert sigma is not None
        assert len(sigma) == 0

    def test_idempotent_and_domain_restricted(self):
        left = Atom("p", (X, fn("f", X)))
        right = Atom("p", (fn("g", Y), Z))
        sigma = unify(left, right)
        assert sigma is not None
        for v in sigma:
            assert v in vars_of(left) | vars_of(right)
            assert sigma(sigma[v]) == sigma[v]  # idempotent

    @given(atoms(max_depth=2), ground_substitutions())
    def test_unifies_common_instances(self, pattern, theta):
        # Rename one copy apart, ground the other: always unifiable, and
        # the mgu must be at least as general as the known common instance.
        renamed = Substitution(
            {v: Var(v.name + "_r") for v in vars_of(pattern)})(pattern)
        grounded = theta(pattern)
        sigma = unify(renamed, grounded)
        assert sigma is not None
        assert sigma(renamed) == sigma(grounded)
        # There is a rho with (L sigma) rho = grounded for both sides.
        rho = match_literal(Literal(sigma(renamed)), Literal(grounded), {})
        assert rho is not None

    def test_most_general_against_bounded_enumeration(self):
        from oracles import bounded_substitutions

        left = Atom("p", (X, Y))
        right = Atom("p", (Y, X))
        sigma = unify(left, right)
        assert sigma is not None
        pool = [a, b, fn("g", a)]
        for candidate in bounded_substitutions([X, Y], pool):
            theta = Substitution(candidate)
            if theta(left) != theta(right):
                continue
            # sigma composed with some rho agrees with theta.
            rho = {}
            ok = True
            for v in (X, Y):
                progress = match_literal(
                    Literal(Atom("q", (sigma.apply_term(v),))),
                    Literal(Atom("q", (theta.apply_term(v),))), rho)
                if progress is None:
                    ok = False
                    break
                rho = progress
            assert ok, f"mgu not more general than {theta}"


class TestMatchOnto:
    def test_example_instantiation_match(self):
        pattern = lit(Atom("p", (Var("X2"), fn("f", Var("Y2")))), False)
        target = lit(Atom("p", (fn("f", a), fn("f", b))), False)
        theta = match_onto(pattern, target)
        assert theta is not None
        assert theta(pattern) == target
        assert theta[Var("X2")] == fn("f", a)
        assert theta[Var("Y2")] == b

    def test_conflicting_bindings(self):
        pattern = lit(Atom("g", (X, X)))
        target = lit(Atom("g", (a, b)))
        assert match_onto(pattern, target) is None

    def test_polarity_mismatch(self):
        assert match_onto(lit(Atom("p", (X,))),
                          lit(Atom("p", (a,)), False)) is None

    def test_nonground_target_rejected(self):
        with pytest.raises(ValueError, match="not ground"):
            match_onto(lit(Atom("p", (X,))), lit(Atom("p", (Y,))))

    @given(st.booleans(), atoms(max_depth=2), ground_substitutions())
    def test_matches_own_instances(self, positive, atom, theta):
        pattern = Literal(atom, positive)
        target = theta(pattern)
        got = match_onto(pattern, target)
        assert got is not None
        for v in vars_of(pattern):
            assert got.apply_term(v) == theta.apply_term(v)


class TestApply:
    def test_literalwise(self):
        c = clause([lit(Atom("p", (X,))), lit(Atom("q", (X,)))])
        out = apply(Substitution({X: a}), c)
        assert out.literals == (lit(Atom("p", (a,))), lit(Atom("q", (a,))))

    def test_identity(self):
        c = clause([lit(Atom("p", (X,)))])
        assert apply(Substitution(), c) == c

    def test_two_variable_instance(self):
        x1, y1 = Var("X1"), Var("Y1")
        c = clause([lit(Atom("p", (x1, y1)), False),
                    lit(Atom("q", (fn("f", x1), y1)))])
        out = apply(Substitution({x1: a, y1: b}), c)
        assert out.literals == (
            lit(Atom("p", (a, b)), False),
            lit(Atom("q", (fn("f", a), b))))

    @given(clauses(), ground_substitutions())
    def test_preserves_multiset_size_and_vars(self, c, theta):
        out = apply(theta, c)
        assert len(out) == len(c)
        allowed = (vars_of(c) - set(theta)) | vars_of(
            [Literal(Atom("q", (t,))) for t in theta.values()])
        assert vars_of(out) <= allowed

    def test_composition_law(self):
        sigma = Substitution({X: fn("g", Y)})
        rho = Substitution({Y: a})
        composed = compose(sigma, rho)
        for v in (X, Y, Z):
            assert composed.apply_term(v) == rho.apply_term(sigma.apply_term(v))


class TestGroundEnumeration:
    def sig(self, functions):
        s = Signature()
        s.functions.update(functions)
        return s

    def test_depth_one_chain(self):
        # Expected values computed by the independent depth recursion.
        sig = self.sig({"a": 0, "f": 1})
        expected_terms = ground_terms_by_depth({"a": 0, "f": 1}, 1)
        assert set(ground_terms(sig, 1)) == expected_terms

        c = clause([lit(Atom("p", (X,)), False),
                    lit(Atom("p", (fn("f", X),)))])
        got = set(enumerate_ground_instances(c, sig, 1))
        expected = {
            clause([lit(Atom("p", (a,)), False),
                    lit(Atom("p", (fn("f", a),)))]),
            clause([lit(Atom("p", (fn("f", a),)), False),
                    lit(Atom("p", (fn("f", fn("f", a)),)))]),
        }
        assert got == expected

    def test_ground_clause_is_its_own_instance(self):
        sig = self.sig({"a": 0})
        c = clause([lit(Atom("p", (a,)))])
        assert enumerate_ground_instances(c, sig, 3) == [c]

    def test_depth_zero_constants_only(self):
        sig = self.sig({"a": 0, "b": 0})
        c = clause([lit(Atom("q", (X,)))])
        got = set(enumerate_ground_instances(c, sig, 0))
        assert got == {clause([lit(Atom("q", (a,)))]),
                       clause([lit(Atom("q", (b,)))])}

    def test_no_constant_is_an_error(self):
        sig = self.sig({"f": 1})
        with pytest.raises(ValueError, match="no constant"):
            ground_terms(sig, 1)

    def test_signature_injects_constant_when_missing(self):
        c = clause([lit(Atom("p", (fn("f", X),)))])
        sig = Signature.from_clauses([c])
        assert sig.injected_constant is not None
        assert sig.constants == [sig.injected_constant]

    @given(st.integers(min_value=0, max_value=2))
    def test_matches_oracle_at_every_depth(self, depth):
        functions = {"a": 0, "b": 0, "g": 1}
        sig = self.sig(functions)
        assert set(ground_terms(sig, depth)) == \
            ground_terms_by_depth(functions, depth)

    def test_deterministic_order(self):
        sig = self.sig({"a": 0, "b": 0, "g": 1})
        assert ground_terms(sig, 2) == ground_terms(sig, 2)
        depths = [t.depth for t in ground_terms(sig, 2)]
        assert depths == sorted(depths)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_order_is_depth_then_structure(self, depth):
        # Names that prefix one another, or sort apart from their length.
        sig = self.sig({"a": 0, "a0": 0, "_x": 0, "n1": 0, "n10": 0,
                        "n2": 0, "f": 1, "fa": 2})
        out = ground_terms(sig, depth)
        assert len(out) == len(set(out))
        assert out == sorted(set(out),
                             key=lambda t: (ref_depth(t), ref_term_key(t)))


class TestClauseSemantics:
    def test_multiset_equality_ignores_order(self):
        c1 = clause([lit(Atom("p", (a,))), lit(Atom("q", (b,)))])
        c2 = clause([lit(Atom("q", (b,))), lit(Atom("p", (a,)))])
        assert c1 == c2
        assert hash(c1) == hash(c2)

    @given(st.lists(literals(), min_size=1, max_size=4), st.data())
    def test_equal_exactly_when_literal_multisets_are(self, pool, data):
        # Drawn from a small pool, so that literals repeat.
        draw = st.lists(st.sampled_from(pool), max_size=6)
        l1 = data.draw(draw)
        l2 = data.draw(st.one_of(draw, st.permutations(l1)))
        c1, c2 = clause(l1), clause(l2)
        assert (c1 == c2) == (Counter(l1) == Counter(l2))
        if c1 == c2:
            assert hash(c1) == hash(c2)

    def test_duplicates_are_preserved(self):
        single = clause([lit(Atom("p", (a,)))])
        double = clause([lit(Atom("p", (a,))), lit(Atom("p", (a,)))])
        assert single != double
        assert len(double) == 2

    def test_complement_involution(self):
        l = lit(Atom("p", (a,)), False)
        assert l.complement().complement() == l

    def test_arity_clash_detected(self):
        bad = [clause([lit(Atom("p", (a,)))]),
               clause([lit(Atom("p", (a, b)))])]
        with pytest.raises(ValueError, match="arity clash"):
            Signature.from_clauses(bad)


def nest(depth, leaf, name="f"):
    t = leaf
    for _ in range(depth):
        t = App(name, (t,))
    return t


class TestHashConsing:
    def test_equal_values_are_one_object(self):
        assert fn("f", X, a) is fn("f", Var("X"), const("a"))
        assert Atom("p", [X]) is Atom("p", (X,))
        assert lit(Atom("p", (X,)), False) is lit(Atom("p", (X,)), False)
        assert lit(Atom("p", (X,))).complement().complement() is \
            lit(Atom("p", (X,)))

    @given(terms(max_depth=5))
    def test_cached_fields_match_reference_definitions(self, t):
        rebuilt = ref_rebuild(t)
        assert rebuilt is t
        assert hash(rebuilt) == hash(t)
        assert t.depth == ref_depth(t)
        assert t.ground == ref_ground(t)
        assert symbol_count(t) == ref_symbol_count(t)
        if t.ground:
            assert preorder(t) == ref_preorder(t)

    @given(ground_terms_st(max_depth=4), ground_terms_st(max_depth=4),
           st.sampled_from([0, 1, 70]), st.sampled_from([0, 1, 70]))
    def test_preorder_orders_as_reference_key_at_any_depth(self, s, t, ds,
                                                            dt):
        s, t = nest(ds, s, "g"), nest(dt, t, "g")
        ks, kt = preorder(s), preorder(t)
        rs, rt = ref_term_key(s), ref_term_key(t)
        assert (ks < kt) == (rs < rt)
        assert (ks > kt) == (rs > rt)
        assert (ks == kt) == (rs == rt) == (s is t)
        assert sorted([kt, ks]) == ([ks, kt] if rs <= rt else [kt, ks])


class TestDeepTerms:
    """Depth 5000 is far past Python's recursion limit."""

    DEPTH = 5000

    def test_preorder_and_variables(self):
        deep_a, deep_b = nest(self.DEPTH, a), nest(self.DEPTH, b)
        # ref_term_key recurses, so it orders the same pairs 50 deep.
        assert ref_term_key(nest(50, a)) < ref_term_key(nest(50, b)) < \
            ref_term_key(nest(50, fn("h", a)))
        assert preorder(deep_a) < preorder(deep_b) < \
            preorder(nest(self.DEPTH, fn("h", a)))
        assert preorder(deep_a) == preorder(nest(self.DEPTH, a))
        assert sorted([preorder(deep_b), preorder(a), preorder(deep_a)]) == \
            [preorder(a), preorder(deep_a), preorder(deep_b)]
        assert vars_of(nest(self.DEPTH, X)) == {X}
        assert vars_of(deep_a) == set()
        assert deep_a.depth == self.DEPTH

    def test_subterms(self):
        deep = nest(self.DEPTH, X)
        assert is_subterm(nest(self.DEPTH - 1000, X), deep)
        assert is_subterm(X, deep)
        assert not is_subterm(deep, nest(self.DEPTH - 1, X))
        assert not is_subterm(a, deep)

    @pytest.mark.parametrize("kind", ["weight", "subterm"])
    def test_compare_atoms(self, kind):
        o = OrderingSpec(kind=kind)
        big = Atom("p", (nest(self.DEPTH, a),))
        small = Atom("p", (nest(self.DEPTH - 1, a),))
        assert compare_atoms(o, big, small) is Comparison.GT
        assert compare_atoms(o, small, big) is Comparison.LT
        assert compare_atoms(o, big, big) is Comparison.EQ
        open_big = Atom("p", (nest(self.DEPTH, X),))
        assert compare_atoms(o, open_big, small) is not Comparison.EQ

    def test_unify_match_apply_canonicalize(self):
        pattern = Atom("p", (nest(self.DEPTH, X), Y))
        target = Atom("p", (nest(self.DEPTH, a), b))
        sigma = unify(pattern, target)
        assert sigma is not None and sigma[X] == a and sigma[Y] == b
        assert unify(Atom("p", (X, X)), Atom("p", (Y, nest(self.DEPTH, Y)))) \
            is None
        assert match_literal(lit(pattern), lit(target)) == {X: a, Y: b}
        c = clause([lit(pattern, False)])
        assert apply(sigma, c) == clause([lit(target, False)])
        renamed = clause([lit(Atom("p", (nest(self.DEPTH, Z), Y)))])
        assert canonicalize(renamed) == clause(
            [lit(Atom("p", (nest(self.DEPTH, X), Y)))])
