"""Built-in clause-set fixtures: term matching/subsumption, and set theory.

The subsumption theory encodes matching of terms over a binary symbol f, a
unary symbol g, and a constant a; object-level variables appear as v(x).
Lists of atoms are built from p(head, tail) and nil; s(l1, l2) holds when
the clause l1 subsumes the clause l2 (second list capped at two atoms).
Selected literals follow the most-symbols rule; clause 13 selects both of
its v-guarded literals since they tie.

The set-theory fixture covers union, intersection, and complement plus a
three-set distribution layer used by the triple-sum problem: number(n)
puts n in the universe, triple(x,y,z) requires that x, y, z do not all
land in one of the sets a, b, c.  Selections here favour the structurally
larger membership literal, the negative side for the bookkeeping clauses,
and the distinctness literal for the three-way split; with distinct given
symbol weight 3 every selection is valid and the set is saturated.
"""

from __future__ import annotations

from .ordering import OrderingSpec
from .parser import Problem, parse_problem

# Paper-reading notes for the subsumption fixture: two clauses arrive with
# unbalanced parentheses in the source material; they are transcribed in
# the bracketing consistent with their four siblings (clauses 19-22).

SUBSUMPTION_TEXT = """\
% Term matching and clause subsumption, over f/2, g/1, a, with v/1
% wrapping object-level variables.  Selection: literal with the most
% symbols; both v-literals in the consistency clause (they tie).
% Transcription note: the last two clauses arrived with unbalanced
% parentheses and are written here with the bracketing of their four
% siblings, s(p(L, C), p(K1, p(K2, nil))).
*~m(f(X1, Y1), f(X2, Y2)) | m(X1, X2)
*~m(f(X1, Y1), f(X2, Y2)) | m(Y1, Y2)
~m(X1, X2) | ~m(Y1, Y2) | *m(f(X1, Y1), f(X2, Y2))
*~m(g(X), g(Y)) | m(X, Y)
~m(X, Y) | *m(g(X), g(Y))
m(a, a)
*~m(f(X, Y), a)
*~m(a, f(X, Y))
*~m(f(X, Y), g(Z))
*~m(g(Z), f(X, Y))
*~m(g(X), a)
*~m(a, g(X))
*~m(v(X), Y) | *~m(v(X), Z) | m(Y, Z)
*s(nil, C)
*~s(p(X, Y), nil)
*~s(p(L, C), p(K, nil)) | m(L, K)
*~s(p(L, C), p(K, nil)) | s(C, nil)
~m(L, K) | ~s(C, nil) | *s(p(L, C), p(K, nil))
*~s(p(L, C), p(K1, p(K2, nil))) | m(L, K1) | m(L, K2)
*~s(p(L, C), p(K1, p(K2, nil))) | m(L, K1) | s(C, p(K1, nil))
*~s(p(L, C), p(K1, p(K2, nil))) | s(C, p(K2, nil)) | m(L, K2)
*~s(p(L, C), p(K1, p(K2, nil))) | s(C, p(K2, nil)) | s(C, p(K1, nil))
~m(L, K1) | ~s(C, p(K2, nil)) | *s(p(L, C), p(K1, p(K2, nil)))
~m(L, K2) | ~s(C, p(K1, nil)) | *s(p(L, C), p(K1, p(K2, nil)))
"""

# One membership literal in the source set theory is written with a bare
# `m`; it is normalized to `mem` as an evident slip.
SETTHEORY_TEXT = """\
% Set theory (union, intersection, complement) without subset, plus the
% three-set distribution layer for triple-sum problems.
% Run with symbol weight distinct=3 so the three-way split clause may
% select its distinctness literal as the maximum.
% Transcription note: one membership literal arrived as bare m(Y, S) and
% is normalized to mem(Y, S).
~mem(E, X) | *mem(E, union(X, Y))
~mem(E, Y) | *mem(E, union(X, Y))
*~mem(E, union(X, Y)) | mem(E, X) | mem(E, Y)
*~mem(E, int(X, Y)) | mem(E, X)
*~mem(E, int(X, Y)) | mem(E, Y)
~mem(E, X) | ~mem(E, Y) | *mem(E, int(X, Y))
*mem(E, comp(X)) | mem(E, X)
~mem(E, X) | *~mem(E, comp(X))
*~both(X, Y, S) | mem(X, S)
*~both(X, Y, S) | mem(Y, S)
~mem(X, S) | ~mem(Y, S) | *both(X, Y, S)
*~distinct(X, Y) | ~both(X, Y, a)
*~distinct(X, Y) | ~both(X, Y, b)
*~distinct(X, Y) | ~both(X, Y, c)
both(X, Y, a) | both(X, Y, b) | both(X, Y, c) | *distinct(X, Y)
*~number(X) | mem(X, union(union(a, b), c))
*~triple(X, Y, Z) | distinct(X, Y) | distinct(X, Z) | distinct(Y, Z)
"""

CORPORA = {
    "subsumption": SUBSUMPTION_TEXT,
    "settheory": SETTHEORY_TEXT,
}


def corpus_ordering(name: str) -> OrderingSpec:
    """The ordering under which the corpus selection validates."""
    if name == "settheory":
        return OrderingSpec(kind="weight", weights={"distinct": 3})
    return OrderingSpec(kind="weight")


def schur_triples(n: int) -> list[tuple[int, int, int]]:
    """All (x, y, x+y) with 1 <= x <= y and x+y <= n."""
    out = []
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            if x + y <= n:
                out.append((x, y, x + y))
    return out


def schur_problem(n: int) -> Problem:
    """Set-theory fixture plus ground facts asking for a distribution of
    1..n over the sets a, b, c with no additive triple in one set."""
    lines = [CORPORA["settheory"]]
    for i in range(1, n + 1):
        lines.append(f"number(n{i})")
    for x, y, z in schur_triples(n):
        lines.append(f"triple(n{x}, n{y}, n{z})")
    return parse_problem("\n".join(lines) + "\n")
