"""Partial interpretations, clause filtering, and model construction.

An interpretation is a consistent set of ground literals; atoms absent in
both polarities are undefined.  Filtering removes clauses true in an
interpretation and literals false in it.  `produce_model` runs the
candidate-model construction on a finite set of filtered ground clauses:
in ascending multiset order each clause may contribute its largest,
selected, once-occurring positive atom.  `verify_no_falsified` then checks
a depth-bounded grounding for instances the combined interpretation
falsifies.

The bounded check reports "no falsified instance" rather than full
modelhood: instances over atoms outside the constructed universe stay
undefined, and falsification is the refutable condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .ordering import OrderingSpec, clause_order_key, literal_order_key
from .terms import (
    Atom,
    Clause,
    Literal,
    Signature,
    enumerate_ground_instances,
    vars_of,
)


class Interpretation:
    """Consistent set of ground literals; truth is membership."""

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[Literal] = ()):
        lits = frozenset(literals)
        for lit in lits:
            if vars_of(lit):
                raise ValueError(f"interpretation literal not ground: {lit}")
            if lit.complement() in lits:
                raise ValueError(
                    f"inconsistent interpretation: both {lit.atom} and its "
                    f"negation are present")
        self.literals = lits

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.literals

    def __iter__(self):
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Interpretation) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def defines(self, atom: Atom) -> bool:
        return (Literal(atom, True) in self.literals
                or Literal(atom, False) in self.literals)

    def value(self, lit: Literal) -> Optional[bool]:
        if lit in self.literals:
            return True
        if lit.complement() in self.literals:
            return False
        return None

    def satisfies_clause(self, c: Clause) -> Optional[bool]:
        """True if some literal is true, False if all are false, else None."""
        any_undef = False
        for lit in c.literals:
            v = self.value(lit)
            if v is True:
                return True
            if v is None:
                any_undef = True
        return None if any_undef else False

    def compatible(self, other: "Interpretation") -> bool:
        return not any(lit.complement() in other.literals for lit in self.literals)

    def __repr__(self) -> str:
        inner = ", ".join(sorted(str(l) for l in self.literals))
        return "{" + inner + "}"


def combine(i1: Interpretation, i2: Interpretation) -> Interpretation:
    if not i1.compatible(i2):
        clash = sorted(str(l) for l in i1 if l.complement() in i2.literals)
        raise ValueError(f"incompatible interpretations: {', '.join(clash)}")
    return Interpretation(set(i1.literals) | set(i2.literals))


def filter_clause_indexed(c: Clause, i: Interpretation
                          ) -> tuple[Optional[Clause], tuple[int, ...]]:
    """(None, ()) when i satisfies c; otherwise c minus the literals false
    in i, and the original positions of the literals it keeps."""
    if not c.is_ground:
        raise ValueError(f"filter applies to ground clauses only: {c}")
    kept: list[Literal] = []
    kept_positions: list[int] = []
    for pos, lit in enumerate(c.literals):
        v = i.value(lit)
        if v is True:
            return None, ()
        if v is None:
            kept.append(lit)
            kept_positions.append(pos)
    return Clause(tuple(kept), origin=c.origin), tuple(kept_positions)


def int_of(t: Iterable[Literal], u: Iterable[Literal]) -> Interpretation:
    """All atoms of t true; every atom of u not made true in t is false."""
    true_lits = set(t)
    for lit in true_lits:
        if not lit.positive:
            raise ValueError(f"int_of expects positive literals, got {lit}")
    true_atoms = {lit.atom for lit in true_lits}
    result = set(true_lits)
    for lit in set(u) - true_lits:
        if lit.atom not in true_atoms:
            result.add(Literal(lit.atom, False))
    return Interpretation(result)


@dataclass(frozen=True)
class ProductionRecord:
    clause: Clause
    produced: bool
    atom: Optional[Atom] = None


def produce_model(fs: list[tuple[Clause, frozenset[int]]], o: OrderingSpec
                  ) -> tuple[Interpretation, list[ProductionRecord]]:
    """Run the production construction over filtered ground clauses.

    `fs` pairs each clause with its selected literal positions (inherited
    from the parent non-ground clause).  A clause produces its largest
    positive literal when the partial interpretation built so far does not
    satisfy the clause, the literal is selected, and it occurs exactly once.
    Returns the final interpretation and a per-clause record.  Clauses run
    in the order of their keys (`clause_order_key`), multiset-equal ones by
    cid: under the weight order that is its order on ground clauses, and
    under the subterm order a total extension of it.
    """
    ordered = sorted(fs, key=lambda e: (clause_order_key(o, e[0]), e[0].cid))
    produced: list[Literal] = []
    true_atoms: set[Atom] = set()
    universe: list[Literal] = []
    records: list[ProductionRecord] = []
    for c, sel in ordered:
        universe.extend(c.literals)
        # Every atom of c is in the universe now, and each one not produced
        # so far is false in the interpretation built up to c.
        if c.is_empty or any((lit.atom in true_atoms) == lit.positive
                             for lit in c.literals):
            records.append(ProductionRecord(c, False))
            continue
        top = max(c.literals, key=lambda l: literal_order_key(o, l))
        occurrences = [i for i, l in enumerate(c.literals) if l == top]
        if (top.positive and len(occurrences) == 1
                and occurrences[0] in sel):
            produced.append(top)
            true_atoms.add(top.atom)
            records.append(ProductionRecord(c, True, top.atom))
        else:
            records.append(ProductionRecord(c, False))
    final = int_of(produced, universe)
    return final, records


def filtered_ground_instances(
        theory: list[tuple[Clause, frozenset[int]]],
        model: Interpretation, sig: Signature, depth: int
) -> list[tuple[Clause, frozenset[int]]]:
    """Depth-bounded filtered grounding, with selection carried over.

    A literal of an instance counts as selected exactly when it survives
    filtering and its parent literal was selected.  Duplicate filtered
    clauses keep the first selection encountered.
    """
    out: list[tuple[Clause, frozenset[int]]] = []
    seen = set()
    for c, sel in theory:
        for inst in enumerate_ground_instances(c, sig, depth):
            filtered, kept = filter_clause_indexed(inst, model)
            if filtered is None or filtered.key in seen:
                continue
            seen.add(filtered.key)
            inherited = frozenset(new_pos for new_pos, old_pos in enumerate(kept)
                                  if old_pos in sel)
            out.append((filtered, inherited))
    return out


@dataclass
class VerifyReport:
    falsified: list[Clause] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.falsified


def verify_no_falsified(combined: Interpretation, theory: Iterable[Clause],
                        ground: Iterable[Clause], sig: Signature,
                        depth: int) -> VerifyReport:
    """Check that no instance at the given depth is fully falsified.

    Undefined instances are permitted; only outright falsification refutes
    the combined interpretation.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    report = VerifyReport()
    for c in list(ground) + list(theory):
        for inst in enumerate_ground_instances(c, sig, depth):
            report.checked += 1
            if combined.satisfies_clause(inst) is False:
                report.falsified.append(inst)
    return report
