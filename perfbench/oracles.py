"""Answer checkers that share no code with trigsat.

Everything here works on text: the problem lines the benchmark generated
and the lines the trigsat command printed.  Atoms are compared with all
whitespace removed, so `p(f(a), b)` and `p(f(a),b)` are the same atom.
Nothing in this module imports trigsat.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Optional

# A ground literal is (atom text without whitespace, polarity).
GroundLiteral = tuple[str, bool]
GroundClause = tuple[GroundLiteral, ...]


def atom_text(text: str) -> str:
    return re.sub(r"\s+", "", text)


def parse_literal(text: str) -> GroundLiteral:
    text = atom_text(text).lstrip("*")
    if text.startswith("~"):
        return text[1:], False
    return text, True


def format_literal(lit: GroundLiteral) -> str:
    atom, positive = lit
    return atom if positive else "~" + atom


def format_clause(c: GroundClause) -> str:
    return " | ".join(format_literal(lit) for lit in c)


def parse_model(lines: Iterable[str]) -> dict[str, bool]:
    """Model lines as printed by `solve --emit-model`: one literal each."""
    model: dict[str, bool] = {}
    for line in lines:
        if not line.strip():
            continue
        atom, positive = parse_literal(line)
        if model.get(atom, positive) != positive:
            raise ValueError(f"model assigns both polarities to {atom}")
        model[atom] = positive
    return model


def falsified_clauses(model: dict[str, bool],
                      clauses: Iterable[GroundClause]) -> list[GroundClause]:
    """Ground clauses with no literal true in the model."""
    return [c for c in clauses
            if not any(model.get(atom) is positive for atom, positive in c)]


# -- triple-sum (Schur) colourings -----------------------------------------


def schur_triples(n: int) -> list[tuple[int, int, int]]:
    return [(x, y, x + y) for x in range(1, n + 1)
            for y in range(x, n + 1) if x + y <= n]


def colouring_exists(n: int, colours: int) -> bool:
    """Brute force: can 1..n be coloured with no monochromatic x+y=z?"""
    triples = schur_triples(n)
    for assignment in itertools.product(range(colours), repeat=n):
        if all(len({assignment[x - 1], assignment[y - 1],
                    assignment[z - 1]}) > 1 for x, y, z in triples):
            return True
    return False


def colouring_error(model: dict[str, bool], n: int,
                    sets: tuple[str, ...]) -> Optional[str]:
    """Read the set memberships off a model and check them as a colouring."""
    members: dict[str, set[int]] = {s: set() for s in sets}
    for atom, positive in model.items():
        m = re.fullmatch(r"mem\(n(\d+),(\w+)\)", atom)
        if positive and m and m.group(2) in members:
            members[m.group(2)].add(int(m.group(1)))
    for i in range(1, n + 1):
        if not any(i in ms for ms in members.values()):
            return f"n{i} is in none of the sets {', '.join(sets)}"
    for s, ms in members.items():
        for x, y, z in schur_triples(n):
            if {x, y, z} <= ms:
                return f"triple ({x}, {y}, {z}) lies inside set {s}"
    return None


# -- propositional satisfiability -------------------------------------------


def dpll(clauses: list[frozenset[GroundLiteral]]) -> bool:
    """Plain DPLL with unit propagation; fine for a few dozen atoms."""
    clauses = list(clauses)
    while True:
        if any(not c for c in clauses):
            return False
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, next(iter(unit)))
    if not clauses:
        return True
    lit = next(iter(clauses[0]))
    return (dpll(_assign(clauses, lit))
            or dpll(_assign(clauses, (lit[0], not lit[1]))))


def _assign(clauses: list[frozenset[GroundLiteral]],
            lit: GroundLiteral) -> list[frozenset[GroundLiteral]]:
    flipped = (lit[0], not lit[1])
    return [c - {flipped} for c in clauses if lit not in c]


# -- depth-bounded instance counts ------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z0-9_]+|[()|,*~])")


def _tokens(line: str) -> list[str]:
    out, pos = [], 0
    line = line.split("%", 1)[0].rstrip()
    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if m is None:
            raise ValueError(f"cannot read {line!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _scan_clause(tokens: list[str], functions: dict[str, int]) -> set[str]:
    """Record function symbols with their arities; return the variables."""
    variables: set[str] = set()
    pos = 0

    def term(inside: bool) -> None:
        nonlocal pos
        name = tokens[pos]
        pos += 1
        if name[0].isupper():
            variables.add(name)
            return
        arity = 0
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            while True:
                term(True)
                arity += 1
                if tokens[pos] == ")":
                    pos += 1
                    break
                pos += 1  # ','
        if inside:
            functions[name] = arity

    while pos < len(tokens):
        if tokens[pos] in ("|", "*", "~"):
            pos += 1
            continue
        term(False)  # an atom: its predicate is not a function symbol
    return variables


def instance_count(problem_lines: Iterable[str],
                   model_lines: Iterable[str], depth: int) -> int:
    """Number of ground instances of depth <= `depth`, one per variable
    assignment, summed over the clauses; ground clauses count once.

    The universe is built from the function symbols of the problem and
    the model, as `verify-model` does.
    """
    functions: dict[str, int] = {}
    clause_vars: list[int] = []
    for line in problem_lines:
        tokens = _tokens(line)
        if tokens:
            clause_vars.append(len(_scan_clause(tokens, functions)))
    for line in model_lines:
        tokens = _tokens(line)
        if tokens:
            _scan_clause(tokens, functions)
    constants = sum(1 for a in functions.values() if a == 0)
    terms = constants
    for _ in range(depth):
        terms = constants + sum(terms ** a for a in functions.values() if a)
    return sum(terms ** v for v in clause_vars)
