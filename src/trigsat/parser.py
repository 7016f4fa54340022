"""Problem file parsing and printing.

Grammar (one clause per line):

    clause   ::= literal ('|' literal)*
    literal  ::= '*'? '~'? atom          # '*' marks a selected literal
    atom     ::= symbol | symbol '(' term (',' term)* ')'
    term     ::= VARIABLE | symbol | symbol '(' term (',' term)* ')'

Identifiers starting with an uppercase letter are variables; identifiers
starting with a lowercase letter, digit, or underscore are symbols.  '%'
starts a comment; blank lines are ignored.  Arities are inferred and
checked for consistency; a selection marker on a ground clause is an
error.  Errors carry one-based line and column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .terms import (
    App,
    Atom,
    Clause,
    Literal,
    Signature,
    Term,
    Var,
    vars_of,
)

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>%.*)
  | (?P<var>[A-Z][A-Za-z0-9_]*)
  | (?P<sym>[a-z0-9_][A-Za-z0-9_]*)
  | (?P<punct>[()|,*~])
""", re.VERBOSE)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


@dataclass(slots=True)
class _Token:
    kind: str  # "var" | "sym" | punctuation itself | "eol"
    text: str
    col: int


def _tokenize(text: str, line_no: int) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", line_no, pos + 1)
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        if m.lastgroup == "punct":
            out.append(_Token(m.group(), m.group(), m.start() + 1))
        else:
            out.append(_Token(m.lastgroup, m.group(), m.start() + 1))
    out.append(_Token("eol", "", len(text) + 1))
    return out


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.text or "end of line"
            raise ParseError(f"expected {kind!r}, found {what!r}",
                             self.line_no, tok.col)
        return self.take()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.line_no, self.peek().col)

    def term(self) -> Term:
        # A loop with one open (symbol, arguments) frame per unclosed '('.
        frames: list[tuple[str, list[Term]]] = []
        while True:
            tok = self.peek()
            if tok.kind == "var":
                self.take()
                t: Term = Var(tok.text)
            elif tok.kind == "sym":
                self.take()
                if self.peek().kind == "(":
                    self.take()
                    frames.append((tok.text, []))
                    continue
                t = App(tok.text, ())
            else:
                what = repr(tok.text) if tok.text else "end of line"
                raise self.fail(f"expected term, found {what}")
            while frames:
                name, args = frames[-1]
                args.append(t)
                if self.peek().kind == ",":
                    self.take()
                    break
                self.expect(")")
                frames.pop()
                t = App(name, tuple(args))
            else:
                return t

    def atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "sym":
            what = tok.text or "end of line"
            raise self.fail(f"expected predicate symbol, found {what!r}")
        self.take()
        args: list[Term] = []
        if self.peek().kind == "(":
            self.take()
            args.append(self.term())
            while self.peek().kind == ",":
                self.take()
                args.append(self.term())
            self.expect(")")
        return Atom(tok.text, tuple(args))

    def literal(self) -> tuple[Literal, bool]:
        selected = False
        if self.peek().kind == "*":
            self.take()
            selected = True
        positive = True
        if self.peek().kind == "~":
            self.take()
            positive = False
        return Literal(self.atom(), positive), selected

    def clause_line(self) -> tuple[list[Literal], set[int]]:
        lits: list[Literal] = []
        selected: set[int] = set()
        lit, sel = self.literal()
        lits.append(lit)
        if sel:
            selected.add(0)
        while self.peek().kind == "|":
            self.take()
            lit, sel = self.literal()
            if sel:
                selected.add(len(lits))
            lits.append(lit)
        tok = self.peek()
        if tok.kind != "eol":
            raise self.fail(f"unexpected {tok.text!r} after clause")
        return lits, selected


@dataclass
class Problem:
    """Parsed input: non-ground theory clauses with optional selection
    annotations, ground clauses, and the harvested signature."""

    theory: list[Clause] = field(default_factory=list)
    ground: list[Clause] = field(default_factory=list)
    selection: dict[int, frozenset[int]] = field(default_factory=dict)
    signature: Signature = field(default_factory=Signature)

    @property
    def clauses(self) -> list[Clause]:
        return self.theory + self.ground


def parse_problem(text: str) -> Problem:
    problem = Problem()
    sig = Signature()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if tokens[0].kind == "eol":
            continue
        parser = _LineParser(tokens, line_no)
        lits, selected = parser.clause_line()
        is_ground = not vars_of(lits)
        if selected and is_ground:
            star_col = min(t.col for t in tokens if t.kind == "*")
            raise ParseError("selection marker on a ground clause",
                             line_no, star_col)
        c = Clause(tuple(lits),
                   origin="input-ground" if is_ground else "input-nonground")
        try:
            sig.add_clause(c)
        except ValueError as exc:
            raise ParseError(str(exc), line_no, tokens[0].col) from exc
        if is_ground:
            problem.ground.append(c)
        else:
            problem.theory.append(c)
            if selected:
                problem.selection[c.cid] = frozenset(selected)
    if not sig.constants:
        sig = Signature.from_clauses(problem.clauses, ensure_constant=True)
    problem.signature = sig
    return problem


def format_literal(lit: Literal, selected: bool = False) -> str:
    return ("*" if selected else "") + str(lit)


def format_clause(c: Clause, selected: Optional[frozenset[int]] = None) -> str:
    sel = selected or frozenset()
    return " | ".join(format_literal(l, i in sel)
                      for i, l in enumerate(c.literals))


def parse_model_text(text: str) -> list[Literal]:
    """Model files hold one ground literal per line, '~' for negation."""
    out: list[Literal] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if tokens[0].kind == "eol":
            continue
        parser = _LineParser(tokens, line_no)
        lit, selected = parser.literal()
        if selected:
            raise ParseError("selection marker in a model file", line_no, 1)
        if parser.peek().kind != "eol":
            raise ParseError("expected one literal per line", line_no,
                             parser.peek().col)
        if vars_of(lit):
            raise ParseError("model literal must be ground", line_no, 1)
        out.append(lit)
    return out


def model_lines(literals: Sequence[Literal]) -> Iterator[str]:
    """A model file's text, one literal per line, yielded line by line so
    that a large model is never held whole."""
    if not literals:
        yield "\n"
    for lit in literals:
        yield f"{lit}\n"
