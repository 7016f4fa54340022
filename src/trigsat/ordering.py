"""Stable, well-founded atom orderings with a four-valued comparison.

Two built-ins:

* ``weight``: compare total symbol count (per-symbol weights default to 1)
  with the usual variable-occurrence condition, tie-break by symbol
  precedence, then lexicographic recursion on arguments.  Total on ground
  atoms and isomorphic to the natural numbers (finitely many atoms below
  any atom).
* ``subterm``: p(s1,...,sn) < q(t1,...,tn) iff each si is a subterm of ti
  and some si differs from ti, or every si is ti and p is below q in the
  precedence; atoms of different arity are incomparable.  A lexicographic
  combination of two strict orders, so it is a strict order.  Polynomial:
  the atoms strictly below an atom are bounded by the product of its
  arguments' subterm counts times the number of predicates.

``precedence_dominant`` lifts predicate precedence above everything else,
so r(t1) > q(t2) whenever r > q, for all arguments.  That ordering is
total on ground atoms but not omega-isomorphic; the solver flags it so
termination claims are only made when they apply.

Comparisons are stable under substitution: s < t implies sθ < tθ.
INCOMPARABLE is an explicit verdict, and maximality below uses "no
strictly greater clause-mate" so partial orders need no totalization.

Ground atoms, literals and clauses also have sort keys.  Under the weight
order they compare as the comparisons here do; under the subterm order
they are a total extension of it, which orders every strictly comparable
pair as `compare_atoms` does.  They serve the CDCL decide heap and model
production, so that a minimum or a sort costs one key each instead of
pairwise comparisons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional, Sequence
from weakref import WeakKeyDictionary

from .terms import (
    Atom,
    Clause,
    Literal,
    Term,
    Var,
    is_subterm,
    var_counts,
)


class Comparison(Enum):
    LT = "lt"
    GT = "gt"
    EQ = "eq"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderingSpec:
    kind: str = "weight"  # "weight" | "subterm"
    precedence: tuple[str, ...] = ()  # greatest symbol first
    weights: Mapping[str, int] = field(default_factory=dict)
    precedence_dominant: bool = False
    # atom -> (atom_weight, var_counts) under this spec, for `_kbo_atoms`;
    # weak, so that a spec shared by many runs keeps no dead atom alive.
    _atoms: WeakKeyDictionary = field(default_factory=WeakKeyDictionary,
                                      init=False, repr=False, compare=False)
    # term or ground atom -> its key under this spec (see `_term_entry` and
    # `atom_order_key`), weak like `_atoms`.
    _keys: WeakKeyDictionary = field(default_factory=WeakKeyDictionary,
                                     init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("weight", "subterm"):
            raise ValueError(f"unknown ordering kind: {self.kind!r}")
        twice = [n for i, n in enumerate(self.precedence)
                 if n in self.precedence[:i]]
        if twice:
            raise ValueError(f"precedence lists {twice[0]!r} twice")
        # A frozen copy, so that neither the check nor `_atoms` goes stale.
        weights = MappingProxyType(dict(self.weights))
        for name, w in weights.items():
            if w < 1:
                raise ValueError(f"weight for {name!r} must be >= 1")
        object.__setattr__(self, "weights", weights)

    def symbol_weight(self, name: str) -> int:
        return self.weights.get(name, 1)

    def prec_key(self, name: str) -> tuple:
        # Listed symbols outrank unlisted ones; unlisted compare by name.
        if name in self.precedence:
            return (1, len(self.precedence) - self.precedence.index(name))
        return (0, name)

    def compare_symbols(self, a: str, b: str) -> Comparison:
        if a == b:
            return Comparison.EQ
        ka, kb = self.prec_key(a), self.prec_key(b)
        return Comparison.GT if ka > kb else Comparison.LT


# Terms at least this deep have a `_DeepWeightKey`; shallower ones a plain
# nested tuple, which compares in C with a recursion depth bounded by about
# twice this.
_DEEP = 64


class _DeepWeightKey(tuple):
    """The key of a term of depth >= _DEEP: the same (weight, precedence
    key, argument keys) tuple, compared by `_key_order`, a loop, instead of
    C recursion."""

    __slots__ = ()
    __hash__ = None  # hashing would recurse in C

    def __eq__(self, other) -> bool:
        return isinstance(other, tuple) and _key_order(self, other) == 0

    def __ne__(self, other) -> bool:
        return not self == other

    def __lt__(self, other) -> bool:
        return _key_order(self, other) < 0

    def __le__(self, other) -> bool:
        return _key_order(self, other) <= 0

    def __gt__(self, other) -> bool:
        return _key_order(self, other) > 0

    def __ge__(self, other) -> bool:
        return _key_order(self, other) >= 0


def _key_order(x, y) -> int:
    """-1, 0 or 1 as ground term key x sorts before, with or after y."""
    todo = [(x, y)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not _DeepWeightKey and type(y) is not _DeepWeightKey:
            # Two shallow keys, or two argument counts.
            if x == y:
                continue
            return -1 if x < y else 1
        if x[:2] != y[:2]:
            return -1 if x[:2] < y[:2] else 1
        todo.append((len(x[2]), len(y[2])))
        todo.extend(reversed(list(zip(x[2], y[2]))))
    return 0


_VAR_ENTRY = (1,)  # a variable weighs 1; it has no place in the order


def _term_entry(o: OrderingSpec, t: Term) -> tuple:
    """t's key under o, (weight, precedence key of the head symbol,
    argument keys), built once per term from its arguments' keys.  On
    ground terms these keys order as the weight order does; on other
    terms only the weight, the first field, is meaningful."""
    keys = o._keys
    entry = keys.get(t)
    if entry is not None:
        return entry
    stack = [t]
    while stack:
        u = stack[-1]
        if u in keys:
            stack.pop()
        elif isinstance(u, Var):
            keys[u] = _VAR_ENTRY
            stack.pop()
        else:
            todo = [a for a in u.args if a not in keys]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            args = tuple(keys[a] for a in u.args)
            entry = (o.symbol_weight(u.fn) + sum(a[0] for a in args),
                     o.prec_key(u.fn), args)
            keys[u] = entry if u.depth < _DEEP else _DeepWeightKey(entry)
    return keys[t]


def term_weight(o: OrderingSpec, t: Term) -> int:
    if not o.weights:
        return t.size  # every symbol weighs 1
    return _term_entry(o, t)[0]


def atom_weight(o: OrderingSpec, a: Atom) -> int:
    return o.symbol_weight(a.pred) + sum(term_weight(o, t) for t in a.args)


def _covers(big: Counter, small: Counter) -> bool:
    return all(big[v] >= n for v, n in small.items())


def _kbo(o: OrderingSpec, s: Term, t: Term, can_gt: bool = True,
         can_lt: bool = True) -> Comparison:
    """KBO on terms.  A loop down the first differing argument pair;
    `can_gt`/`can_lt` carry the variable conditions of the levels above.

    `diff` holds each variable's occurrences in s minus those in t, and
    `fewer`/`more` count the variables that s has fewer/more of.  A level
    takes off the variables of the arguments after the pair it descends
    into (those before it are equal on both sides), so each subterm is
    counted once and the walk is linear in the size of s and t."""
    diff = var_counts(s)
    diff.subtract(var_counts(t))
    fewer = sum(n < 0 for n in diff.values())
    more = sum(n > 0 for n in diff.values())

    def take_off(u: Term, sign: int) -> None:
        nonlocal fewer, more
        for v, n in var_counts(u).items():
            old = diff[v]
            new = diff[v] = old - sign * n
            fewer += (new < 0) - (old < 0)
            more += (new > 0) - (old > 0)

    while s is not t:
        can_gt = can_gt and not fewer
        can_lt = can_lt and not more
        ws, wt = term_weight(o, s), term_weight(o, t)
        if ws != wt:
            c = Comparison.GT if ws > wt else Comparison.LT
        elif isinstance(s, Var) or isinstance(t, Var):
            return Comparison.INCOMPARABLE
        elif s.fn != t.fn:
            c = o.compare_symbols(s.fn, t.fn)
        else:
            for i, (sa, ta) in enumerate(zip(s.args, t.args)):
                if sa is not ta:
                    break
            else:
                raise AssertionError("equal-argument atoms must compare EQ earlier")
            for u in s.args[i + 1:]:
                take_off(u, 1)
            for u in t.args[i + 1:]:
                take_off(u, -1)
            s, t = sa, ta
            continue
        if c is Comparison.GT:
            return Comparison.GT if can_gt else Comparison.INCOMPARABLE
        return Comparison.LT if can_lt else Comparison.INCOMPARABLE
    return Comparison.EQ


def _weight_and_vars(o: OrderingSpec, a: Atom) -> tuple[int, Counter]:
    entry = o._atoms.get(a)
    if entry is None:
        entry = o._atoms[a] = (atom_weight(o, a), var_counts(a))
    return entry


def _kbo_atoms(o: OrderingSpec, a: Atom, b: Atom) -> Comparison:
    wa, vs = _weight_and_vars(o, a)
    wb, vt = _weight_and_vars(o, b)
    can_gt = _covers(vs, vt)
    can_lt = _covers(vt, vs)
    if wa > wb:
        return Comparison.GT if can_gt else Comparison.INCOMPARABLE
    if wa < wb:
        return Comparison.LT if can_lt else Comparison.INCOMPARABLE
    if a.pred != b.pred:
        c = o.compare_symbols(a.pred, b.pred)
        if c is Comparison.GT:
            return Comparison.GT if can_gt else Comparison.INCOMPARABLE
        return Comparison.LT if can_lt else Comparison.INCOMPARABLE
    for sa, ta in zip(a.args, b.args):
        if sa is not ta:
            return _kbo(o, sa, ta, can_gt, can_lt)
    raise AssertionError("distinct atoms with all-equal arguments")


def compare_atoms(o: OrderingSpec, a: Atom, b: Atom) -> Comparison:
    if a is b:
        return Comparison.EQ
    if o.precedence_dominant and a.pred != b.pred:
        return o.compare_symbols(a.pred, b.pred)
    if o.kind == "weight":
        return _kbo_atoms(o, a, b)
    # subterm: the pointwise subterm product on the arguments, then
    # predicate precedence on identical arguments
    if a.arity != b.arity:
        return Comparison.INCOMPARABLE
    if a.args == b.args:  # terms are interned: this compares identities
        if a.pred == b.pred:
            raise AssertionError("distinct atoms with identical arguments")
        return o.compare_symbols(a.pred, b.pred)
    if all(is_subterm(s, t) for s, t in zip(a.args, b.args)):
        return Comparison.LT
    if all(is_subterm(t, s) for s, t in zip(a.args, b.args)):
        return Comparison.GT
    return Comparison.INCOMPARABLE


def compare_literals(o: OrderingSpec, l1: Literal, l2: Literal) -> Comparison:
    """Atom comparison first; on equal atoms the negative literal is greater."""
    c = compare_atoms(o, l1.atom, l2.atom)
    if c is not Comparison.EQ:
        return c
    if l1.positive == l2.positive:
        return Comparison.EQ
    return Comparison.LT if l1.positive else Comparison.GT


def atom_order_key(o: OrderingSpec, a: Atom) -> tuple:
    """The key of ground atom a under o, equal only for the same atom.
    Under the weight order keys compare as `compare_atoms` does.  Under
    the subterm order they order each strictly comparable pair as it
    does: a proper subterm weighs less, and the key leaves out the
    predicate's weight so that identical arguments order by precedence.
    Cached per spec."""
    key = o._keys.get(a)
    if key is None:
        if not a.ground:
            raise ValueError(f"order keys are for ground atoms only: {a}")
        args = tuple(_term_entry(o, t) for t in a.args)
        weight = sum(k[0] for k in args)
        if o.kind == "weight":
            weight += o.symbol_weight(a.pred)
        head = o.prec_key(a.pred)
        key = o._keys[a] = ((head, weight, args) if o.precedence_dominant
                            else (weight, head, args))
    return key


def literal_order_key(o: OrderingSpec, lit: Literal) -> tuple:
    """As `atom_order_key`, with the negative literal greater on equal
    atoms (as in `compare_literals`)."""
    return (atom_order_key(o, lit.atom), not lit.positive)


def clause_order_key(o: OrderingSpec, c: Clause) -> tuple:
    """The literal keys of ground clause c in descending order.  The
    multiset extension of a total order is lexicographic on this sequence,
    so these keys compare as `compare_clauses` does under the weight order
    and extend it under the subterm order."""
    return tuple(sorted((literal_order_key(o, l) for l in c.literals),
                        reverse=True))


def maximal_literals(o: OrderingSpec,
                     literals: Sequence[Literal]) -> list[Literal]:
    """Distinct literal values of a clause's literals with no strictly
    greater clause-mate."""
    if not literals:
        raise ValueError("empty clause has no maximal literals")
    values = dict.fromkeys(literals)
    out = []
    for lit in values:
        if not any(compare_literals(o, other, lit) is Comparison.GT
                   for other in values if other != lit):
            out.append(lit)
    return out


def maximum_literal(o: OrderingSpec, c: Clause) -> Optional[Literal]:
    """The unique literal strictly greater than all others, if it exists."""
    if c.is_empty:
        raise ValueError("empty clause has no maximum literal")
    values = candidates = c.literals
    if c.distinct is None:  # a repeated literal is never the maximum
        counts = Counter(c.literals)
        values = list(counts)
        candidates = [l for l in values if counts[l] == 1]
    for lit in candidates:
        if all(compare_literals(o, lit, other) is Comparison.GT
               for other in values if other is not lit):
            return lit
    return None


def compare_clauses(o: OrderingSpec, c1: Clause, c2: Clause,
                    memo: Optional[dict] = None) -> Comparison:
    """Multiset extension of the literal ordering; INCOMPARABLE propagates.
    `memo`, kept by a caller across calls under o, maps (x, y) to
    `compare_literals(o, x, y)`.  Clauses without a repeated literal are
    compared as sets."""
    s1, s2 = c1.distinct, c2.distinct
    if s1 is not None and s2 is not None:
        only1 = [x for x in c1.literals if x not in s2]
        only2 = [y for y in c2.literals if y not in s1]
    else:
        m1, m2 = Counter(c1.literals), Counter(c2.literals)
        only1 = list((m1 - m2).elements())
        only2 = list((m2 - m1).elements())
    if not only1 and not only2:
        return Comparison.EQ
    memo = {} if memo is None else memo

    def greater(x: Literal, y: Literal) -> bool:
        c = memo.get((x, y))
        if c is None:
            c = memo[x, y] = compare_literals(o, x, y)
        return c is Comparison.GT

    gt = all(any(greater(x, y) for x in only1) for y in only2)
    lt = all(any(greater(y, x) for y in only2) for x in only1)
    if gt and not lt:
        return Comparison.GT
    if lt and not gt:
        return Comparison.LT
    if gt and lt:  # impossible for a strict partial order; defensive
        raise AssertionError("multiset comparison claims both directions")
    return Comparison.INCOMPARABLE
