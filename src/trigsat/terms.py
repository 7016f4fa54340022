"""First-order syntax: terms, atoms, literals, clauses, substitutions.

Variables, terms, atoms and literals are hash-consed (Filliâtre &
Conchon, "Type-Safe Modular Hash-Consing", 2006): each distinct value is
built once, through a weak intern table, so equal values are the same
object and equal subterms are shared.  Equality and hash are therefore
object identity, which plays the part of the paper's unique tags.  A term
computes at construction, from its children's cached fields, its ground
flag, its depth and its symbol count.  Nodes must never be mutated.  Where
a deterministic order on ground terms is needed, `preorder` lists their
symbols as a flat tuple on demand.

Clauses are multisets of literals (duplicates are preserved); equality and
hashing go through a canonical multiset key, the literals in identity
order, while the stored literal order is kept for display.  Every walk over
a term is a loop, so terms of any depth are safe; every operation here is
a pure function.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union
from weakref import KeyedRef


class _WeakTable(dict):
    """An intern table: key -> weak reference to the one live node with
    that key.  An entry goes when its node dies."""

    __slots__ = ("_drop",)

    def __init__(self) -> None:
        super().__init__()

        def drop(ref: KeyedRef, table: dict = self) -> None:
            if table.get(ref.key) is ref:
                del table[ref.key]

        self._drop = drop

    def add(self, key, node) -> None:
        self[key] = KeyedRef(node, self._drop, key)


def _find(tables: dict, head, key):
    """The intern table of `head` and the live node under `key` in it, or
    None.  Tables are kept per head symbol (per polarity for literals), so
    a node's own argument tuple, atom or name serves as its key."""
    table = tables.get(head)
    if table is None:
        table = tables[head] = _WeakTable()
    ref = table.get(key)
    return table, (None if ref is None else ref())


class _Node:
    """Base of the hash-consed nodes.  Equality and hash are object
    identity, which hash-consing makes structural."""

    __slots__ = ("__weakref__",)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


_vars: dict = {}
_apps: dict = {}
_atoms: dict = {}
_literals: dict = {}


class Var(_Node):
    __slots__ = ("name",)
    ground = False
    depth = 0
    size = 1

    def __new__(cls, name: str) -> "Var":
        table, node = _find(_vars, None, name)
        if node is None:
            node = object.__new__(cls)
            node.name = name
            table.add(name, node)
        return node

    def __str__(self) -> str:
        return self.name


class App(_Node):
    __slots__ = ("fn", "args", "ground", "depth", "size")

    def __new__(cls, fn: str, args: tuple["Term", ...] = ()) -> "App":
        if type(args) is not tuple:
            args = tuple(args)
        table, node = _find(_apps, fn, args)
        if node is None:
            node = object.__new__(cls)
            node.fn = fn
            node.args = args
            node.ground = all(a.ground for a in args)
            node.depth = 1 + max(a.depth for a in args) if args else 0
            node.size = 1 + sum(a.size for a in args)
            table.add(args, node)
        return node

    def __str__(self) -> str:
        return _text(self.fn, self.args)


Term = Union[Var, App]


def _text(head: str, args: tuple[Term, ...]) -> str:
    """head(arg, ...) as text, written by a loop over (arguments, next
    index) frames."""
    if not args:
        return head
    out = [head, "("]
    todo: list[tuple[tuple[Term, ...], int]] = []
    sub, i = args, 0
    while True:
        while i < len(sub):
            a = sub[i]
            if i:
                out.append(", ")
            i += 1
            if isinstance(a, Var):
                out.append(a.name)
            elif a.args:
                out += (a.fn, "(")
                todo.append((sub, i))
                sub, i = a.args, 0
            else:
                out.append(a.fn)
        out.append(")")
        if not todo:
            return "".join(out)
        sub, i = todo.pop()


def const(name: str) -> App:
    return App(name, ())


def fn(name: str, *args: Term) -> App:
    return App(name, tuple(args))


class Atom(_Node):
    __slots__ = ("pred", "args", "ground")

    def __new__(cls, pred: str, args: tuple[Term, ...] = ()) -> "Atom":
        if type(args) is not tuple:
            args = tuple(args)
        table, node = _find(_atoms, pred, args)
        if node is None:
            node = object.__new__(cls)
            node.pred = pred
            node.args = args
            node.ground = all(a.ground for a in args)
            table.add(args, node)
        return node

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return _text(self.pred, self.args)


class Literal(_Node):
    __slots__ = ("atom", "positive", "_complement")

    def __new__(cls, atom: Atom, positive: bool = True) -> "Literal":
        table, node = _find(_literals, positive, atom)
        if node is None:
            node = object.__new__(cls)
            node.atom = atom
            node.positive = positive
            node._complement = None
            table.add(atom, node)
        return node

    def complement(self) -> "Literal":
        # Interned once, then linked both ways: a pair that refers to each
        # other only is a cycle the garbage collector frees.
        other = self._complement
        if other is None:
            other = self._complement = Literal(self.atom, not self.positive)
            other._complement = self
        return other

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"~{self.atom}"


def preorder(t: App) -> tuple[str, ...]:
    """The symbols of ground term t in preorder.  With one arity per
    symbol (as `Signature` enforces) these flat tuples order ground terms
    as their structure does lexicographically, and they compare in C
    without recursion at any depth."""
    out = [t.fn]
    stack = list(reversed(t.args))
    while stack:
        u = stack.pop()
        out.append(u.fn)
        stack.extend(reversed(u.args))
    return tuple(out)


_clause_ids = itertools.count()

# Feature key -> its bit in `Clause.signature`; past 64 keys, bits repeat.
_feature_bits: dict[tuple, int] = {}


@dataclass(frozen=True, eq=False, slots=True)
class Clause:
    """A multiset of literals with a stable identifier and an origin tag.

    Origin is one of: input-ground, input-nonground, resolvent, factor,
    instance, learned.  Two clauses are equal iff their literal multisets
    are equal; `cid` and `origin` never participate in comparison.
    """

    literals: tuple[Literal, ...]
    origin: str = "input-ground"
    cid: int = field(default_factory=lambda: next(_clause_ids))
    _key: Optional[tuple] = field(default=None, init=False, repr=False)
    _features: Optional[tuple] = field(default=None, init=False, repr=False)
    _signature: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def signature(self) -> tuple[int, dict[tuple[bool, str], list[int]]]:
        # (mask, positions) for `subsumes`: a bit per key of the `features`
        # Counter, and the literal positions per (sign, predicate) in order.
        if self._signature is None:
            mask = 0
            for k in self.features[1]:
                mask |= _feature_bits.setdefault(k, 1 << len(_feature_bits) % 64)
            positions: dict[tuple[bool, str], list[int]] = {}
            for j, l in enumerate(self.literals):
                positions.setdefault((l.positive, l.atom.pred), []).append(j)
            object.__setattr__(self, "_signature", (mask, positions))
        return self._signature

    @property
    def features(self) -> tuple[int, Counter]:
        # (symbol count, literals per (sign, predicate) and occurrences per
        # (sign, function symbol, arity)): a substitution only adds symbol
        # occurrences, and C subsumes D by a sign-preserving injection of
        # its literals, so only if D's vector dominates (Schulz 2013).
        if self._features is None:
            counts = Counter((l.positive, l.atom.pred) for l in self.literals)
            for l in self.literals:
                stack = [t for t in l.atom.args if not isinstance(t, Var)]
                while stack:
                    t = stack.pop()
                    counts[l.positive, t.fn, len(t.args)] += 1
                    stack.extend(a for a in t.args if not isinstance(a, Var))
            object.__setattr__(self, "_features", (
                sum(symbol_count(l.atom) for l in self.literals), counts))
        return self._features

    @property
    def key(self) -> tuple:
        # The literals in identity order, computed once: interned literals
        # make this a canonical form of the multiset (within a process)
        # whose hash and equality cost O(literals).
        key = self._key
        if key is None:
            key = tuple(sorted(self.literals, key=id))
            if key == self.literals:
                key = self.literals
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clause) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    @property
    def is_empty(self) -> bool:
        return not self.literals

    @property
    def is_ground(self) -> bool:
        return all(lit.atom.ground for lit in self.literals)

    def without_position(self, pos: int) -> tuple[Literal, ...]:
        return self.literals[:pos] + self.literals[pos + 1:]

    def __str__(self) -> str:
        if not self.literals:
            return "⊥"
        return " | ".join(str(l) for l in self.literals)


def _term_tuple_vars(args: tuple[Term, ...]) -> set[Var]:
    out: set[Var] = set()
    stack = [t for t in args if not t.ground]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t)
        else:
            stack.extend(a for a in t.args if not a.ground)
    return out


def vars_of(obj: Union[Term, Atom, Literal, Clause, Iterable]) -> set[Var]:
    """Variables occurring in a term, atom, literal, clause, or collection."""
    if isinstance(obj, Var):
        return {obj}
    if isinstance(obj, (App, Atom)):
        return _term_tuple_vars(obj.args)
    if isinstance(obj, Literal):
        return _term_tuple_vars(obj.atom.args)
    if isinstance(obj, Clause):
        out: set[Var] = set()
        for lit in obj.literals:
            out |= _term_tuple_vars(lit.atom.args)
        return out
    out = set()
    for item in obj:
        out |= vars_of(item)
    return out


def var_counts(obj: Union[Term, Atom]) -> Counter:
    """Occurrence counts per variable (multiset of variable occurrences)."""
    counts: Counter = Counter()
    stack: list[Term] = list(obj.args) if isinstance(obj, (App, Atom)) else [obj]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            counts[t] += 1
        elif not t.ground:
            stack.extend(t.args)
    return counts


def symbol_count(obj: Union[Term, Atom]) -> int:
    if isinstance(obj, Atom):
        return 1 + sum(a.size for a in obj.args)
    return obj.size


def is_subterm(s: Term, t: Term) -> bool:
    """True iff s occurs in t (every term is a subterm of itself)."""
    if s is t:
        return True
    # Only terms deeper than s, and non-ground ones when s is, can hold s.
    depth, ground = s.depth, s.ground
    if t.depth <= depth or (t.ground and not ground):
        return False
    stack = [t]
    seen: set[Term] = set()
    while stack:
        for a in stack.pop().args:
            if a is s:
                return True
            if a.depth > depth and (ground or not a.ground) and a not in seen:
                seen.add(a)
                stack.append(a)
    return False


def _rewrite(t: Term, image: Callable[[Var], Optional[Term]],
             chase: bool = False) -> Term:
    """t with every variable v replaced by image(v) when that is not None.

    With `chase`, an image is itself rewritten (a triangular substitution,
    which must be acyclic).  A loop, memoised on shared subterms; ground
    subterms are kept as they are.
    """
    if t.ground:
        return t
    done: dict[Term, Term] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
        elif isinstance(node, Var):
            new = image(node)
            if new is None or not chase or new.ground:
                done[node] = node if new is None else new
                stack.pop()
            elif new in done:
                done[node] = done[new]
                stack.pop()
            else:
                stack.append(new)
        else:
            todo = [a for a in node.args if not a.ground and a not in done]
            if todo:
                stack.extend(todo)
            else:
                stack.pop()
                done[node] = App(node.fn, tuple(
                    a if a.ground else done[a] for a in node.args))
    return done[t]


class Substitution(Mapping[Var, Term]):
    """Finite map from variables to terms.

    Identity bindings are dropped on construction, so the domain never maps
    a variable to itself.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Union[Mapping[Var, Term], Iterable[tuple[Var, Term]]] = ()):
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        self._map: dict[Var, Term] = {v: t for v, t in items if t is not v}

    def __getitem__(self, v: Var) -> Term:
        return self._map[v]

    def __iter__(self) -> Iterator[Var]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{t}" for v, t in sorted(
            self._map.items(), key=lambda kv: kv[0].name))
        return "{" + inner + "}"

    def apply_term(self, t: Term) -> Term:
        if isinstance(t, Var):
            return self._map.get(t, t)
        return _rewrite(t, self._map.get)

    def apply_atom(self, a: Atom) -> Atom:
        if a.ground:
            return a
        return Atom(a.pred, tuple(self.apply_term(t) for t in a.args))

    def apply_literal(self, lit: Literal) -> Literal:
        if lit.atom.ground:
            return lit
        return Literal(self.apply_atom(lit.atom), lit.positive)

    def apply_clause(self, c: Clause, origin: Optional[str] = None) -> Clause:
        return Clause(tuple(self.apply_literal(l) for l in c.literals),
                      origin if origin is not None else c.origin)

    def __call__(self, obj):
        if isinstance(obj, (Var, App)):
            return self.apply_term(obj)
        if isinstance(obj, Atom):
            return self.apply_atom(obj)
        if isinstance(obj, Literal):
            return self.apply_literal(obj)
        if isinstance(obj, Clause):
            return self.apply_clause(obj)
        raise TypeError(f"cannot apply substitution to {type(obj).__name__}")


def unify_terms(pairs: Sequence[tuple[Term, Term]]) -> Optional[Substitution]:
    """Most general unifier of the given term pairs, with occurs-check.

    The result is idempotent and its domain is a subset of the variables of
    the input pairs.  Returns None when not unifiable.
    """
    subst: dict[Var, Term] = {}

    def resolve(t: Term) -> Term:
        while isinstance(t, Var) and t in subst:
            t = subst[t]
        return t

    def occurs(v: Var, t: Term) -> bool:
        # v in t under the bindings made so far.
        stack = [t]
        seen: set[Term] = set()
        while stack:
            u = stack.pop()
            if u is v:
                return True
            if u.ground or u in seen:
                continue
            seen.add(u)
            if isinstance(u, Var):
                if u in subst:
                    stack.append(subst[u])
            else:
                stack.extend(u.args)
        return False

    stack: list[tuple[Term, Term]] = list(reversed(pairs))
    while stack:
        s, t = stack.pop()
        s, t = resolve(s), resolve(t)
        if s is t:
            continue
        if isinstance(s, Var):
            if occurs(s, t):
                return None
            subst[s] = t
        elif isinstance(t, Var):
            if occurs(t, s):
                return None
            subst[t] = s
        else:
            if s.fn != t.fn or len(s.args) != len(t.args):
                return None
            stack.extend(reversed(list(zip(s.args, t.args))))

    # Flatten the triangular form into an idempotent substitution.
    return Substitution({v: _rewrite(t, subst.get, chase=True)
                         for v, t in subst.items()})


def unify(a: Atom, b: Atom) -> Optional[Substitution]:
    """Idempotent mgu of two atoms, or None when not unifiable."""
    if a.pred != b.pred or a.arity != b.arity:
        return None
    return unify_terms(list(zip(a.args, b.args)))


def match_terms(pairs: Sequence[tuple[Term, Term]],
                bindings: Optional[Mapping[Var, Term]] = None) -> Optional[dict[Var, Term]]:
    """One-sided matching: pattern variables bind, target stays rigid."""
    out: dict[Var, Term] = dict(bindings) if bindings else {}
    stack: list[tuple[Term, Term]] = list(reversed(pairs))
    while stack:
        p, t = stack.pop()
        if p.ground:
            if p is not t:
                return None
        elif isinstance(p, Var):
            bound = out.get(p)
            if bound is None:
                out[p] = t
            elif bound is not t:
                return None
        else:
            if isinstance(t, Var) or p.fn != t.fn or len(p.args) != len(t.args):
                return None
            stack.extend(reversed(list(zip(p.args, t.args))))
    return out


def match_atom(pattern: Atom, target: Atom,
               bindings: Optional[Mapping[Var, Term]] = None) -> Optional[dict[Var, Term]]:
    if pattern.pred != target.pred or pattern.arity != target.arity:
        return None
    return match_terms(list(zip(pattern.args, target.args)), bindings)


def match_literal(pattern: Literal, target: Literal,
                  bindings: Optional[Mapping[Var, Term]] = None) -> Optional[dict[Var, Term]]:
    if pattern.positive != target.positive:
        return None
    return match_atom(pattern.atom, target.atom, bindings)


@dataclass
class Signature:
    """Function and predicate symbols with arities, harvested from a problem."""

    functions: dict[str, int] = field(default_factory=dict)
    predicates: dict[str, int] = field(default_factory=dict)
    injected_constant: Optional[str] = None

    @property
    def constants(self) -> list[str]:
        return sorted(name for name, ar in self.functions.items() if ar == 0)

    def _add_term(self, t: Term) -> None:
        stack = [t]  # preorder, so the first arity seen is the leftmost
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                continue
            seen = self.functions.setdefault(t.fn, len(t.args))
            if seen != len(t.args):
                raise ValueError(
                    f"arity clash for function '{t.fn}': {seen} vs {len(t.args)}")
            stack.extend(reversed(t.args))

    def add_clause(self, c: Clause) -> None:
        for lit in c.literals:
            seen = self.predicates.setdefault(lit.atom.pred, lit.atom.arity)
            if seen != lit.atom.arity:
                raise ValueError(
                    f"arity clash for predicate '{lit.atom.pred}': "
                    f"{seen} vs {lit.atom.arity}")
            for t in lit.atom.args:
                self._add_term(t)

    @classmethod
    def from_clauses(cls, clauses: Iterable[Clause],
                     ensure_constant: bool = True) -> "Signature":
        sig = cls()
        for c in clauses:
            sig.add_clause(c)
        if ensure_constant and not sig.constants:
            # Herbrand enumeration needs a nonempty universe.
            name = "c"
            k = 0
            while name in sig.functions or name in sig.predicates:
                name = f"c{k}"
                k += 1
            sig.functions[name] = 0
            sig.injected_constant = name
        return sig


def ground_terms(sig: Signature, depth: int) -> list[Term]:
    """All ground terms of depth <= depth, in a deterministic order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not sig.constants:
        raise ValueError("signature has no constant")
    out: list[Term] = [const(c) for c in sig.constants]
    prev = set(out)
    fns = sorted((n, a) for n, a in sig.functions.items() if a > 0)
    for _ in range(depth):
        # Each term of the next depth once: a distinct combination with an
        # argument of exactly the previous depth.
        level = [App(name, combo) for name, arity in fns
                 for combo in itertools.product(out, repeat=arity)
                 if any(c in prev for c in combo)]
        out += level
        prev = set(level)
    return sorted(out, key=lambda t: (t.depth, preorder(t)))


def enumerate_ground_instances(c: Clause, sig: Signature, depth: int) -> list[Clause]:
    """All instances with each variable mapped to a ground term of depth <= depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    variables = sorted(vars_of(c), key=lambda v: v.name)
    if not variables:
        return [c]
    terms = ground_terms(sig, depth)
    out: list[Clause] = []
    for combo in itertools.product(terms, repeat=len(variables)):
        theta = Substitution(dict(zip(variables, combo)))
        out.append(theta.apply_clause(c, origin="instance"))
    return out


_CANONICAL_NAMES = ("X", "Y", "Z", "U", "V", "W")


def canonicalize(c: Clause, origin: Optional[str] = None) -> Clause:
    """Rename variables to a fixed alphabet in first-occurrence order."""
    order: list[Var] = []
    seen: set[Var] = set()
    for lit in c.literals:
        stack = [t for t in reversed(lit.atom.args) if not t.ground]
        while stack:  # preorder, left to right
            t = stack.pop()
            if isinstance(t, Var):
                if t not in seen:
                    seen.add(t)
                    order.append(t)
            else:
                stack.extend(a for a in reversed(t.args) if not a.ground)
    names = list(_CANONICAL_NAMES) + [f"V{i}" for i in range(1, len(order) + 1)]
    ren = Substitution({v: Var(names[i]) for i, v in enumerate(order)})
    return ren.apply_clause(c, origin=origin if origin is not None else c.origin)


def rename_apart(c: Clause, taken: set[Var]) -> Clause:
    """Rename c's variables away from `taken` (primes appended as needed)."""
    mine = vars_of(c)
    if not (mine & taken):
        return c
    used = set(taken) | mine
    mapping: dict[Var, Term] = {}
    for v in sorted(mine, key=lambda v: v.name):
        if v not in taken:
            continue
        fresh = Var(v.name + "'")
        while fresh in used:
            fresh = Var(fresh.name + "'")
        used.add(fresh)
        mapping[v] = fresh
    return Substitution(mapping).apply_clause(c)
