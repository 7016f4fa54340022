"""Literal selection (= trigger) functions: validation and auto-generation.

A selection for a clause C is a set of literal positions.  It is valid when
for every subset T of the selected literals with Vars(T) != Vars(C), the
remaining selected literals contain all maximal literals of C - T or
contain a negative literal.  Validity implies Vars(selected) = Vars(C):
taking T to be the whole selection is a failing witness otherwise.

Subset enumeration is exponential in the selection size, so selections are
capped at 8 literals; real selections are far smaller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .ordering import OrderingSpec, maximal_literals, maximum_literal
from .terms import Clause, Var

MAX_SELECTED = 8

STRATEGIES = ("max", "maximal", "neg", "all")


class SelectionError(Exception):
    """A strategy could not produce a valid selection for a clause."""

    def __init__(self, clause: Clause, reason: str,
                 uncovered: Iterable[Var] = ()):
        self.clause = clause
        self.reason = reason
        self.uncovered = sorted(uncovered, key=lambda v: v.name)
        detail = f"{reason} (clause: {clause})"
        if self.uncovered:
            names = ", ".join(v.name for v in self.uncovered)
            detail += f"; uncovered variables: {names}"
        super().__init__(detail)


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    witness: Optional[frozenset[int]] = None  # failing subset T, as positions
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid

    def describe(self) -> str:
        if self.witness is None:
            return self.reason
        return f"{self.reason} (witness positions {sorted(self.witness)})"


def validate_selection(c: Clause, sel: Iterable[int],
                       o: OrderingSpec) -> ValidationResult:
    """Check the validity condition by enumerating every subset of sel."""
    positions = sorted(set(sel))
    if c.is_ground:
        raise ValueError("selection applies to non-ground clauses only")
    for p in positions:
        if not 0 <= p < len(c.literals):
            raise ValueError(f"selected position {p} not in clause {c}")
    if len(positions) > MAX_SELECTED:
        raise ValueError(
            f"selection of {len(positions)} literals exceeds the cap of "
            f"{MAX_SELECTED}")
    cvars, pvars = c.variables, c.position_vars
    for size in range(len(positions) + 1):
        for subset in itertools.combinations(positions, size):
            t = set(subset)
            if set().union(*(pvars[p] for p in subset)) == cvars:
                continue
            rest_sel = [c.literals[p] for p in positions if p not in t]
            if any(not lit.positive for lit in rest_sel):
                continue
            # T never removes the whole clause here: that would force
            # Vars(T) = Vars(C), which is filtered out above.
            rest_clause = Clause(
                tuple(l for i, l in enumerate(c.literals) if i not in t),
                origin=c.origin)
            needed = maximal_literals(o, rest_clause)
            if not set(needed) <= set(rest_sel):
                missing = cvars.difference(*(pvars[p] for p in positions))
                if t == set(positions) and missing:
                    reason = ("selected literals do not cover the clause "
                              "variables: missing "
                              + ", ".join(sorted(v.name for v in missing)))
                else:
                    reason = ("removing the witness subset leaves a selection "
                              "that misses a maximal literal and contains no "
                              "negative literal")
                return ValidationResult(False, frozenset(t), reason)
    return ValidationResult(True)


def check_selection(c: Clause, sel: Iterable[int],
                    o: OrderingSpec) -> ValidationResult:
    """validate_selection, reporting an oversized or malformed selection as
    invalid instead of raising."""
    try:
        return validate_selection(c, sel, o)
    except ValueError as exc:
        return ValidationResult(False, None, str(exc))


class CheckedSelection(dict):
    """Selections by clause id, each passed by `check_selection` under the
    ordering they are saturated with, so saturation does not check them."""


def _coverage_or_raise(c: Clause, positions: set[int], what: str) -> None:
    missing = c.variables.difference(*(c.position_vars[p] for p in positions))
    if missing:
        raise SelectionError(
            c, f"{what} does not cover all clause variables", missing)


def auto_select(c: Clause, o: OrderingSpec, strategy: str) -> frozenset[int]:
    """Generate a selection; raises SelectionError when inapplicable.

    max     -> singleton maximum literal
    maximal -> all maximal literals (validated explicitly)
    neg     -> all negative literals
    all     -> every literal (always valid when it covers the variables)
    """
    if c.is_ground:
        raise ValueError("selection applies to non-ground clauses only")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown selection strategy: {strategy!r}")
    if strategy == "max":
        best = maximum_literal(o, c)
        if best is None:
            raise SelectionError(c, "clause has no maximum literal")
        positions = {c.literals.index(best)}
        _coverage_or_raise(c, positions, "the maximum literal")
        return frozenset(positions)
    if strategy == "maximal":
        values = set(maximal_literals(o, c))
        positions = {i for i, l in enumerate(c.literals) if l in values}
        _coverage_or_raise(c, positions, "the maximal literals")
        result = check_selection(c, positions, o)
        if not result:
            raise SelectionError(
                c, "maximal-literal selection is not valid: "
                   f"{result.describe()}")
        return frozenset(positions)
    if strategy == "neg":
        positions = {i for i, l in enumerate(c.literals) if not l.positive}
        if not positions:
            raise SelectionError(c, "clause has no negative literal")
        _coverage_or_raise(c, positions, "the negative literals")
        return frozenset(positions)
    # all
    return frozenset(range(len(c.literals)))


def extend_selection(c: Clause, o: OrderingSpec, mode: str) -> frozenset[int]:
    """Selection for a clause generated during saturation.

    ``auto`` cascades max -> maximal -> neg -> all; ``error`` refuses, for
    annotated problems where silent extension would change the triggers.
    """
    if mode == "error":
        raise SelectionError(
            c, "annotated selection has no rule for derived clause")
    if mode == "auto":
        for strategy in ("max", "maximal", "neg", "all"):
            try:
                return auto_select(c, o, strategy)
            except SelectionError:
                continue
        raise SelectionError(c, "no strategy produced a valid selection")
    if mode not in STRATEGIES:
        raise ValueError(f"unknown extension mode: {mode!r}")
    return auto_select(c, o, mode)
