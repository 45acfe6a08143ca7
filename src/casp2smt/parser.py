"""Concrete text syntax for ground programs.

Grammar (one statement per ``.``; ``%`` starts a comment):

    rule    := (head | choice)? [":-" body] "."
    choice  := "{" atom "}"
    body    := lit { "," lit }
    lit     := ["not" ["not"]] atom
    atom    := ident | "|" constraint "|"
    ident   := [a-z][A-Za-z0-9_]*

A choice head ``{a} :- B`` abbreviates ``a :- not not a, B`` and is expanded
while parsing. Constraint atoms are identified with their constraint, so
``|x < 12|`` and ``|2*x < 24|`` denote the same atom, and the parser makes
one object per atom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import IrregularHead, ParseError, ReservedPrefix
from .formula import FRESH_PREFIX
from .lincon import parse_constraint
from .program import AtomId, Program, Rule, constraint_atom
from .ranking import RANK_PREFIX

_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<arrow>:-)
    | (?P<dot>\.)
    | (?P<comma>,)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<bar>\|[^|\n]*(\||(?=\n)|$))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

_RESERVED = (FRESH_PREFIX, RANK_PREFIX)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


def _tokens(text: str) -> Iterator[_Token]:
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        assert m is not None
        kind = m.lastgroup
        value = m.group()
        column = pos - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, column)
        if kind == "bar" and not (len(value) >= 2 and value.endswith("|")):
            raise ParseError("unterminated constraint atom", line, column)
        if kind not in ("ws", "comment"):
            yield _Token(kind, value, line, column)
        for i, ch in enumerate(value):
            if ch == "\n":
                line += 1
                line_start = pos + i + 1
        pos = m.end()
    yield _Token("eof", "", line, len(text) - line_start + 1)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokens(text))
        self.pos = 0
        # one object per atom name, so rules share their atoms
        self.atoms: dict[str, AtomId] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: Optional[str] = None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            expected = {"dot": "'.'", "rbrace": "'}'"}.get(kind, kind)
            found = tok.value or "end of input"
            raise ParseError(f"expected {expected}, found {found!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def parse(self) -> Program:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.rule())
        return Program(tuple(rules))

    def atom(self) -> AtomId:
        tok = self.peek()
        if tok.kind == "ident":
            self.take()
            if tok.value == "not":
                raise ParseError("'not' is a keyword, not an atom", tok.line, tok.column)
            for prefix in _RESERVED:
                if tok.value.startswith(prefix):
                    raise ReservedPrefix(
                        f"prefix {prefix!r} is reserved", tok.line, tok.column
                    )
            if not re.fullmatch(r"[a-z][A-Za-z0-9_]*", tok.value):
                raise ParseError(
                    f"identifiers start with a lowercase letter: {tok.value!r}",
                    tok.line,
                    tok.column,
                )
            return self.atoms.setdefault(tok.value, AtomId(tok.value))
        if tok.kind == "bar":
            self.take()
            inner = tok.value[1:-1]
            for prefix in _RESERVED:
                if prefix in inner:
                    raise ReservedPrefix(
                        f"prefix {prefix!r} is reserved", tok.line, tok.column
                    )
            a = constraint_atom(parse_constraint(inner, tok.line, tok.column + 1))
            return self.atoms.setdefault(a.name, a)
        raise ParseError(
            f"expected an atom, found {tok.value or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def literal(self) -> tuple[int, AtomId]:
        negations = 0
        while self.peek().kind == "ident" and self.peek().value == "not" and negations < 2:
            self.take()
            negations += 1
        return negations, self.atom()

    def rule(self) -> Rule:
        tok = self.peek()
        head: Optional[AtomId] = None
        choice = tok.kind == "lbrace"
        if choice:
            self.take()
            tok = self.peek()
            head = self.atom()
            self.take("rbrace")
        elif tok.kind in ("ident", "bar") and tok.value != "not":
            head = self.atom()
        if head is not None and head.constraint is not None:
            raise IrregularHead(
                f"constraint atom {head.name} cannot head a rule", tok.line, tok.column
            )
        pos: set[AtomId] = set()
        neg: set[AtomId] = set()
        dneg: set[AtomId] = set()
        if self.peek().kind == "arrow":
            self.take()
            while True:
                negations, a = self.literal()
                (pos, neg, dneg)[negations].add(a)
                if self.peek().kind != "comma":
                    break
                self.take()
        self.take("dot")
        if choice:
            assert head is not None
            dneg.add(head)
        return Rule(head, frozenset(pos), frozenset(neg), frozenset(dneg))


def parse_program(text: str) -> Program:
    """Parse program text; choice rules are expanded, and each constraint
    atom carries the constraint parsed from between its bars."""
    return _Parser(text).parse()


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
