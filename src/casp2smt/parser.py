"""Concrete text syntax for ground programs.

Grammar (one statement per ``.``; ``%`` starts a comment outside the bars):

    rule       := (head | choice)? [":-" body] "."
    choice     := "{" atom "}"
    body       := lit { "," lit }
    lit        := ["not" ["not"]] atom
    atom       := name | "|" constraint "|"
    constraint := term { ("+" | "-") term } rel sign number
    term       := sign [number ["*"]] name
    sign       := { "+" | "-" }
    number     := digits ["." digits]
    rel        := "<" | ">" | "<=" | ">=" | "=" | "!="
    name       := [a-z][A-Za-z0-9_]*

A constraint may span lines, and between its bars ``not`` is a variable
like any other name. Names the encoder makes up start with ``__``.

A choice head ``{a} :- B`` abbreviates ``a :- not not a, B`` and is expanded
while parsing. Constraint atoms are identified with their constraint, so
``|x < 12|`` and ``|2*x < 24|`` denote the same atom, and the parser makes
one object per atom.
"""

from __future__ import annotations

import re
from collections import defaultdict, namedtuple
from fractions import Fraction
from typing import Optional

from .errors import IrregularHead, ParseError
from .lincon import LinearConstraint, LinExpr, Rel
from .program import AtomId, Program, Rule, constraint_atom

_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<punct>:-|[.,{}|+*-])
    | (?P<rel><=|>=|!=|[<>=])
    | (?P<num>\d+(?:\.\d+)?)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<word>[A-Z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

# the token kinds each side of the bars takes; outside them a word, which
# starts with a capital or "_", is read only to be refused as an atom
_OUTSIDE = set("|.,{}") | {":-", "ws", "comment", "name", "word"}
_INSIDE = set("|+-*") | {"ws", "rel", "num", "name"}

# how an error names the token kind it expected; punctuation names itself
_EXPECTED = {"name": "a name", "num": "a number", "rel": "a relation", "eof": "end of input"}

# kind is name, word, num, rel, eof, or the punctuation itself
_Token = namedtuple("_Token", "kind value line column")


def _tokens(text: str, bars: bool) -> list[_Token]:
    """The tokens of a program, or with bars unset of a constraint. A
    character that no token on its side of the bars takes is an error at
    once, as is a bar that no later bar closes, so the first such character
    in the text is the one reported."""
    tokens = []
    inside = not bars
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        kind = m and (m.group() if m.lastgroup == "punct" else m.lastgroup)
        column = pos - line_start + 1
        if kind not in (_INSIDE if inside else _OUTSIDE) or (kind == "|" and not bars):
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        value = m.group()
        if kind == "|":
            inside = not inside
            if inside and text.find("|", pos + 1) < 0:
                raise ParseError("unterminated constraint atom", line, column)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, column))
        if "\n" in value:
            line += value.count("\n")
            line_start = pos + value.rindex("\n") + 1
        pos += len(value)
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, bars: bool = True):
        self.tokens = _tokens(text, bars)
        self.pos = 0
        # one object per atom name, so rules share their atoms
        self.atoms: dict[str, AtomId] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: Optional[str] = None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            expected = _EXPECTED.get(kind, repr(kind))
            found = tok.value or "end of input"
            raise ParseError(f"expected {expected}, found {found!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def atom(self) -> AtomId:
        tok = self.take()
        if tok.kind == "|":
            a = constraint_atom(self.constraint(tok.line, tok.column + 1, "|"))
        elif tok.kind == "name" and tok.value != "not":
            a = AtomId(tok.value)
        else:
            found = tok.value or "end of input"
            raise ParseError(f"expected an atom, found {found!r}", tok.line, tok.column)
        return self.atoms.setdefault(a.name, a)

    def sign(self) -> int:
        sign = 1
        while self.peek().kind in ("+", "-"):
            sign *= -1 if self.take().kind == "-" else 1
        return sign

    def constraint(self, line: int, column: int, end: str) -> LinearConstraint:
        """The constraint whose text starts at the line and column given,
        read up to a token of the end kind."""
        coeffs: defaultdict[str, Fraction] = defaultdict(Fraction)
        while not coeffs or self.peek().kind in ("+", "-"):
            coeff = Fraction(self.sign())
            if self.peek().kind == "num":
                coeff *= Fraction(self.take().value)
                if self.peek().kind == "*":
                    self.take()
            coeffs[self.take("name").value] += coeff
        rel = Rel(self.take("rel").value)
        bound = self.sign() * Fraction(self.take("num").value)
        self.take(end)
        expr = LinExpr.of(coeffs)
        if not expr.terms:
            # zero terms are dropped, so |x - x >= 1| has none left
            raise ParseError("constraint has no variables", line, column)
        return LinearConstraint(expr, rel, bound)

    def rule(self) -> Rule:
        tok = self.peek()
        head: Optional[AtomId] = None
        choice = tok.kind == "{"
        if choice:
            self.take()
            tok = self.peek()
            head = self.atom()
            self.take("}")
        elif tok.kind in ("name", "|") and tok.value != "not":
            head = self.atom()
        if head is not None and head.constraint is not None:
            message = f"constraint atom {head.name} cannot head a rule"
            raise IrregularHead(message, tok.line, tok.column)
        # positive, negated and doubly negated body atoms
        parts: tuple[set[AtomId], ...] = (set(), set(), set())
        if self.peek().kind == ":-":
            self.take()
            while True:
                negations = 0
                while self.peek().value == "not" and negations < 2:
                    self.take()
                    negations += 1
                parts[negations].add(self.atom())
                if self.peek().kind != ",":
                    break
                self.take()
        self.take(".")
        if choice:
            parts[2].add(head)
        return Rule(head, *map(frozenset, parts))


def parse_program(text: str) -> Program:
    """Parse program text; choice rules are expanded, and each constraint
    atom carries the constraint parsed from between its bars."""
    parser = _Parser(text)
    rules = []
    while parser.peek().kind != "eof":
        rules.append(parser.rule())
    return Program(tuple(rules))


def parse_constraint(text: str) -> LinearConstraint:
    """Parse a constraint as written between the bars of its atom."""
    return _Parser(text, bars=False).constraint(1, 1, "eof")


def render_rule(r: Rule) -> str:
    body = [a.name for a in sorted(r.pos)]
    body += [f"not {a.name}" for a in sorted(r.neg)]
    body += [f"not not {a.name}" for a in sorted(r.dneg)]
    head = r.head.name if r.head is not None else ""
    if not body:
        return f"{head}."
    joined = ", ".join(body)
    return f"{head} :- {joined}." if head else f":- {joined}."


def render_program(p: Program) -> str:
    """Text form that parses back to an equal program (choice rules appear
    in their expanded form)."""
    return "\n".join(render_rule(r) for r in p.rules) + ("\n" if p.rules else "")
