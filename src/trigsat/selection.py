"""Literal selection (= trigger) functions: validation and auto-generation.

A selection for a clause C is a set of literal positions.  It is valid when
for every subset T of the selected literals with Vars(T) != Vars(C), the
remaining selected literals contain all maximal literals of C - T or
contain a negative literal.  Validity implies Vars(selected) = Vars(C):
taking T to be the whole selection is a failing witness otherwise.

Subset enumeration is exponential in the selection size, so selections are
capped at 8 literals; real selections are far smaller.

A strategy here or a file's `*` marks pick a selection; saturation
validates it once, where it starts.  `auto_select`'s picks meet the
condition by construction, so saturation trusts them for derived clauses.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .ordering import OrderingSpec, maximal_literals, maximum_literal
from .terms import Clause, Var

MAX_SELECTED = 8

STRATEGIES = ("max", "maximal", "neg", "all")


class SelectionError(Exception):
    """No selection could be picked for a clause: a strategy does not apply
    to it, or it has no annotation.  The message names the clause unless
    `named` is False."""

    def __init__(self, clause: Clause, reason: str,
                 uncovered: Iterable[Var] = (), named: bool = True):
        self.clause = clause
        self.uncovered = sorted(uncovered, key=lambda v: v.name)
        detail = f"{reason} (clause: {clause})" if named else reason
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
    """Check the validity condition by enumerating every subset of sel; a
    position outside c and a selection over the cap are invalid too."""
    positions = sorted(set(sel))
    if c.is_ground:
        raise ValueError("selection applies to non-ground clauses only")
    for p in positions:
        if not 0 <= p < len(c.literals):
            return ValidationResult(
                False, None, f"selected position {p} not in clause {c}")
    if len(positions) > MAX_SELECTED:
        return ValidationResult(
            False, None, f"selection of {len(positions)} literals exceeds "
                         f"the cap of {MAX_SELECTED}")
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
            needed = maximal_literals(
                o, [l for i, l in enumerate(c.literals) if i not in t])
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


def auto_select(c: Clause, o: OrderingSpec, strategy: str) -> frozenset[int]:
    """Generate a selection; raises SelectionError when inapplicable.

    max     -> singleton maximum literal
    maximal -> all maximal literals (validated explicitly)
    neg     -> all negative literals
    all     -> every literal (always valid when it covers the variables)
    auto    -> the first of max, maximal, neg and all that applies
    error   -> refuses: the default for clauses derived when annotated
    """
    if c.is_ground:
        raise ValueError("selection applies to non-ground clauses only")
    if strategy == "error":
        raise SelectionError(
            c, "annotated selection has no rule for derived clause")
    if strategy == "auto":
        for cascaded in ("max", "maximal", "neg"):
            with contextlib.suppress(SelectionError):
                return auto_select(c, o, cascaded)
        strategy = "all"
    if strategy == "all":
        return frozenset(range(len(c.literals)))
    if strategy == "max":
        best = maximum_literal(o, c)
        if best is None:
            raise SelectionError(c, "clause has no maximum literal")
        positions, what = {c.literals.index(best)}, "the maximum literal"
    elif strategy == "maximal":
        values = set(maximal_literals(o, c.literals))
        positions = {i for i, l in enumerate(c.literals) if l in values}
        what = "the maximal literals"
    elif strategy == "neg":
        positions = {i for i, l in enumerate(c.literals) if not l.positive}
        if not positions:
            raise SelectionError(c, "clause has no negative literal")
        what = "the negative literals"
    else:
        raise ValueError(f"unknown selection strategy: {strategy!r}")
    missing = c.variables.difference(*(c.position_vars[p] for p in positions))
    if missing:
        raise SelectionError(
            c, f"{what} does not cover all clause variables", missing)
    if strategy == "maximal":
        result = validate_selection(c, positions, o)
        if not result:
            raise SelectionError(
                c, "maximal-literal selection is not valid: "
                   f"{result.describe()}")
    return frozenset(positions)
