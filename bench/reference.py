"""Reference checker for the benchmark, written apart from ``casp2smt``.

It imports nothing from the package under test. Programs are given as
:class:`RefProgram` values built by the workload generators; answers that
the package reports are translated into the same terms by
:func:`answer_key`, which reads the package's atom names with its own
constraint parser.

* :func:`answer_sets` finds the constraint answer sets by brute force: for
  every guess over the atoms whose truth the reduct or the input facts
  depend on, take the reduct, add the guessed input atoms back as facts,
  compute the least model, and keep it when it reproduces the guess and no
  denial fires. The constraint problem of each survivor is then decided
  exactly, with ``Fraction`` arithmetic, over the integer points of the box.
* :func:`valuation_ok` checks one extended answer: the valuation satisfies
  the constraint of every selected constraint atom and the complement of
  every unselected one.
* :class:`SmtLibScript` reads an SMT-LIB 2 script, fills in a planted
  assignment by unit propagation and evaluates every assertion.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

# --- constraints -------------------------------------------------------------

_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
_COMPLEMENT = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "=": "!=", "!=": "="}


def _holds(lhs: Fraction, rel: str, rhs: Fraction) -> bool:
    if rel == "<":
        return lhs < rhs
    if rel == "<=":
        return lhs <= rhs
    if rel == ">":
        return lhs > rhs
    if rel == ">=":
        return lhs >= rhs
    if rel == "=":
        return lhs == rhs
    if rel == "!=":
        return lhs != rhs
    raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class Constraint:
    """``sum(coeff * var) rel bound`` in a canonical form: integer
    coefficients with gcd 1, sorted variables, first coefficient positive."""

    terms: tuple[tuple[str, int], ...]
    rel: str
    bound: Fraction

    @staticmethod
    def make(coeffs: Mapping[str, Fraction], rel: str, bound: Fraction) -> "Constraint":
        merged = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
        if not merged:
            raise ValueError("a constraint needs a variable")
        bound = Fraction(bound)
        scale = math.lcm(bound.denominator, *(c.denominator for c in merged.values()))
        ints = {v: int(c * scale) for v, c in merged.items()}
        k = bound * scale
        g = math.gcd(int(k), *ints.values()) or 1
        ints = {v: c // g for v, c in ints.items()}
        k = k / g
        first = sorted(ints)[0]
        if ints[first] < 0:
            ints = {v: -c for v, c in ints.items()}
            k, rel = -k, _FLIP[rel]
        return Constraint(tuple(sorted(ints.items())), rel, Fraction(k))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def holds(self, valuation: Mapping[str, Fraction]) -> bool:
        lhs = sum((c * Fraction(valuation[v]) for v, c in self.terms), Fraction(0))
        return _holds(lhs, self.rel, self.bound)

    def complement(self) -> "Constraint":
        return Constraint(self.terms, _COMPLEMENT[self.rel], self.bound)

    def text(self) -> str:
        """Input syntax of ``casp2smt`` constraint atoms, e.g. ``x - 2*y < 3``."""
        parts = []
        for i, (v, c) in enumerate(self.terms):
            mag = abs(c)
            term = v if mag == 1 else f"{mag}*{v}"
            if i == 0:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {term}")
        return f"{' '.join(parts)} {self.rel} {self.bound}"


_TERM = re.compile(r"([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?([a-z][A-Za-z0-9_]*)")
_REL = re.compile(r"(<=|>=|!=|<|>|=)")


def parse_constraint(text: str) -> Constraint:
    """Read a constraint written as ``terms rel number``, where terms are
    ``[+-] [n*]var`` and the number may be negative or a fraction."""
    pieces = _REL.split(text, maxsplit=1)
    if len(pieces) != 3:
        raise ValueError(f"no relation in constraint {text!r}")
    lhs, rel, rhs = pieces
    coeffs: dict[str, Fraction] = {}
    pos = 0
    lhs = lhs.strip()
    while pos < len(lhs):
        m = _TERM.match(lhs, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot read term at {lhs[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        coeffs[m.group(3)] = coeffs.get(m.group(3), Fraction(0)) + sign * coeff
        pos = m.end()
        while pos < len(lhs) and lhs[pos] == " ":
            pos += 1
    return Constraint.make(coeffs, rel, Fraction(rhs.strip().replace(" ", "")))


# --- programs ----------------------------------------------------------------


@dataclass(frozen=True)
class RefRule:
    """head <- pos, not neg, not not dneg; ``None`` is the empty head. Atoms
    are names of regular atoms or :class:`Constraint` values."""

    head: Optional[object]
    pos: tuple = ()
    neg: tuple = ()
    dneg: tuple = ()


@dataclass
class RefProgram:
    rules: list[RefRule]
    box: tuple[int, int] = (-4, 4)
    atoms: tuple = field(init=False)

    def __post_init__(self) -> None:
        seen: dict[object, None] = {}
        for r in self.rules:
            for a in ((r.head,) if r.head is not None else ()) + r.pos + r.neg + r.dneg:
                seen.setdefault(a)
        self.atoms = tuple(seen)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(a for a in self.atoms if isinstance(a, Constraint))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for c in self.constraints for v in c.variables}))


def is_tight(p: RefProgram) -> bool:
    """Acyclic positive dependency graph, by repeatedly removing atoms that
    no remaining head depends on positively."""
    succ: dict[object, set] = {a: set() for a in p.atoms}
    for r in p.rules:
        if r.head is not None:
            succ[r.head].update(r.pos)
    remaining = set(succ)
    while True:
        sinks = {a for a in remaining if not (succ[a] & remaining)}
        if not sinks:
            return not remaining
        remaining -= sinks


def _selection_problem(p: RefProgram, x: frozenset) -> list[Constraint]:
    return [c if c in x else c.complement() for c in p.constraints]


def box_points(variables: Sequence[str], box: tuple[int, int]) -> Iterator[dict[str, Fraction]]:
    lo, hi = box
    for values in itertools.product(range(lo, hi + 1), repeat=len(variables)):
        yield {v: Fraction(n) for v, n in zip(variables, values)}


def solutions(p: RefProgram, x: frozenset) -> list[dict[str, Fraction]]:
    """Every integer point of the box that satisfies the constraint problem
    x selects, over all of the program's constraint variables."""
    problem = _selection_problem(p, x)
    return [v for v in box_points(p.variables, p.box) if all(c.holds(v) for c in problem)]


class _Masks:
    """The program's rules as bit masks over its atoms."""

    def __init__(self, p: RefProgram):
        self.atoms = p.atoms
        self.index = {a: i for i, a in enumerate(p.atoms)}
        self.rules = [
            (None if r.head is None else 1 << self.index[r.head], self.mask(r.pos), self.mask(r.neg), self.mask(r.dneg))
            for r in p.rules
        ]
        self.inputs = self.mask(p.constraints)

    def mask(self, atoms: Iterable) -> int:
        m = 0
        for a in atoms:
            m |= 1 << self.index[a]
        return m

    def atoms_of(self, m: int) -> frozenset:
        return frozenset(a for a in self.atoms if m >> self.index[a] & 1)

    def reduct_model(self, x: int) -> Optional[int]:
        """Least model of the reduct by x plus the input atoms of x as
        facts, or None when a denial of the reduct fires."""
        kept = [(h, pos) for h, pos, neg, dneg in self.rules if not (neg & x) and (dneg & x) == dneg]
        model = x & self.inputs
        changed = True
        while changed:
            changed = False
            for h, pos in kept:
                if h is not None and not (model & h) and (pos & model) == pos:
                    model |= h
                    changed = True
        if any(h is None and (pos & model) == pos for h, pos in kept):
            return None
        return model


def input_answer_sets(p: RefProgram) -> list[frozenset]:
    """Sets x such that x is the least model of the reduct of the program
    by x plus the facts x has among the constraint atoms, with no denial
    firing. Only the atoms the reduct or the facts depend on are guessed:
    constraint atoms and atoms under ``not``."""
    m = _Masks(p)
    guess_atoms = [a for a in p.atoms if isinstance(a, Constraint)]
    guess_atoms += [
        a for a in p.atoms
        if not isinstance(a, Constraint) and any(a in r.neg or a in r.dneg for r in p.rules)
    ]
    guess_mask = m.mask(guess_atoms)
    found = []
    for choice in itertools.product((False, True), repeat=len(guess_atoms)):
        g = m.mask(a for a, on in zip(guess_atoms, choice) if on)
        model = m.reduct_model(g)
        if model is not None and model & guess_mask == g:
            found.append(m.atoms_of(model))
    return found


def is_input_answer_set(p: RefProgram, x: frozenset) -> bool:
    m = _Masks(p)
    if not x <= set(p.atoms):
        return False
    return m.reduct_model(m.mask(x)) == m.mask(x)


def is_supported_model(p: RefProgram, x: frozenset) -> bool:
    """x satisfies every rule, and every atom of x outside the constraint
    atoms heads a rule whose body x satisfies."""

    def body(r: RefRule) -> bool:
        return all(a in x for a in r.pos + r.dneg) and not any(a in x for a in r.neg)

    if any(body(r) and (r.head is None or r.head not in x) for r in p.rules):
        return False
    return all(
        isinstance(a, Constraint) or any(r.head == a and body(r) for r in p.rules) for a in x
    )


def feasible(problem: Sequence[Constraint], box: tuple[int, int]) -> bool:
    """Some integer point of the box satisfies every constraint. Groups of
    constraints that share no variable are decided apart."""
    groups: list[tuple[set, list]] = []
    for c in problem:
        vars_, cs = set(c.variables), [c]
        for g in [g for g in groups if g[0] & vars_]:
            groups.remove(g)
            vars_ |= g[0]
            cs += g[1]
        groups.append((vars_, cs))
    return all(
        any(all(c.holds(v) for c in cs) for v in box_points(sorted(vars_), box))
        for vars_, cs in groups
    )


def answer_sets(p: RefProgram) -> set[frozenset]:
    """Constraint answer sets: input answer sets whose constraint problem
    has an integer solution in the box."""
    decided: dict[frozenset, bool] = {}
    kept = set()
    for x in input_answer_sets(p):
        selected = frozenset(c for c in p.constraints if c in x)
        if selected not in decided:
            decided[selected] = feasible(_selection_problem(p, x), p.box)
        if decided[selected]:
            kept.add(x)
    return kept


def extended_answer_count(p: RefProgram) -> int:
    """Number of (answer set, valuation) pairs over the box."""
    return sum(len(solutions(p, x)) for x in input_answer_sets(p))


def valuation_ok(p: RefProgram, x: frozenset, valuation: Mapping[str, Fraction]) -> bool:
    """The valuation assigns exactly the program's variables, stays in the
    box, and satisfies what x selects."""
    if set(valuation) != set(p.variables):
        return False
    lo, hi = p.box
    if any(not (lo <= Fraction(v) <= hi) or Fraction(v).denominator != 1 for v in valuation.values()):
        return False
    return all(c.holds(valuation) for c in _selection_problem(p, x))


def answer_key(names: Iterable[str]) -> frozenset:
    """Translate atom names as ``casp2smt`` prints them: regular atoms keep
    their name, ``|...|`` atoms become :class:`Constraint` values."""
    return frozenset(
        parse_constraint(n[1:-1]) if n.startswith("|") else n for n in names
    )


# --- SMT-LIB scripts ---------------------------------------------------------


def _tokens(text: str) -> list[str]:
    text = re.sub(r";[^\n]*", "", text)
    return re.findall(r"\(|\)|[^\s()]+", text)


def _forms(tokens: list[str]) -> list:
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced '('")
    return stack[0]


class Unknown(Exception):
    """An expression reads a symbol the assignment does not fix yet."""


class SmtLibScript:
    """Declarations and assertions of an SMT-LIB 2 script over booleans and
    linear integer or real arithmetic."""

    def __init__(self, text: str):
        self.sorts: dict[str, str] = {}
        self.asserts: list = []
        for form in _forms(_tokens(text)):
            if not isinstance(form, list) or not form:
                raise ValueError(f"unexpected top-level token {form!r}")
            head = form[0]
            if head == "declare-fun":
                if form[2] != []:
                    raise ValueError(f"function with arguments: {form[1]}")
                self.sorts[form[1]] = form[3]
            elif head == "declare-const":
                self.sorts[form[1]] = form[2]
            elif head == "assert":
                self.asserts.append(form[1])
            elif head not in ("set-logic", "set-option", "set-info", "check-sat", "get-model", "exit"):
                raise ValueError(f"unsupported command {head!r}")

    def value(self, node, env: Mapping[str, object]):
        if isinstance(node, str):
            if node == "true":
                return True
            if node == "false":
                return False
            if re.fullmatch(r"\d+(\.\d+)?", node):
                return Fraction(node)
            if node not in self.sorts:
                raise ValueError(f"undeclared symbol {node!r}")
            if node not in env:
                raise Unknown(node)
            return env[node]
        op, args = node[0], node[1:]
        if op == "not":
            return not self.value(args[0], env)
        if op in ("and", "or"):
            # a decided argument can settle the result while others are open
            open_arg = None
            for arg in args:
                try:
                    v = self.value(arg, env)
                except Unknown as exc:
                    open_arg = exc
                    continue
                if v is (op == "or"):
                    return v
            if open_arg is not None:
                raise open_arg
            return op == "and"
        vals = [self.value(a, env) for a in args]
        if op == "+":
            return sum(vals, Fraction(0))
        if op == "-":
            return -vals[0] if len(vals) == 1 else vals[0] - sum(vals[1:], Fraction(0))
        if op == "*":
            out = Fraction(1)
            for v in vals:
                out *= v
            return out
        if op == "/":
            return vals[0] / vals[1]
        if op in ("<", "<=", ">", ">=", "=") and len(vals) == 2:
            if isinstance(vals[0], bool):
                if op != "=":
                    raise ValueError(f"{op} on booleans")
                return vals[0] == vals[1]
            return _holds(vals[0], op, vals[1])
        raise ValueError(f"unsupported operator {op!r}")

    def _clause(self, node) -> Optional[list[tuple[str, bool]]]:
        """Literals of an assertion that is a clause over boolean symbols."""
        parts = node[1:] if isinstance(node, list) and node and node[0] == "or" else [node]
        lits = []
        for part in parts:
            positive = True
            while isinstance(part, list) and len(part) == 2 and part[0] == "not":
                positive, part = not positive, part[1]
            if not (isinstance(part, str) and self.sorts.get(part) == "Bool"):
                return None
            lits.append((part, positive))
        return lits

    def complete(self, planted: Mapping[str, object]) -> dict[str, object]:
        """Extend the planted values to every declared symbol by unit
        propagation over the clauses and by evaluating definitions
        ``(= b term)``. Raises ``ValueError`` when a symbol stays open."""
        env = dict(planted)
        clauses = [c for c in (self._clause(a) for a in self.asserts) if c is not None]
        defs = [
            a for a in self.asserts
            if isinstance(a, list) and len(a) == 3 and a[0] == "="
            and isinstance(a[1], str) and self.sorts.get(a[1]) == "Bool"
        ]
        changed = True
        while changed:
            changed = False
            for d in defs:
                if d[1] in env:
                    continue
                try:
                    env[d[1]] = self.value(d[2], env)
                    changed = True
                except Unknown:
                    pass
            for clause in clauses:
                open_lits = []
                satisfied = False
                for sym, positive in clause:
                    if sym not in env:
                        open_lits.append((sym, positive))
                    elif env[sym] is positive:
                        satisfied = True
                        break
                if not satisfied and len(open_lits) == 1:
                    env[open_lits[0][0]] = open_lits[0][1]
                    changed = True
        missing = sorted(set(self.sorts) - set(env))
        if missing:
            raise ValueError(f"planted assignment leaves {len(missing)} symbols open, e.g. {missing[:3]}")
        return env

    def violated(self, env: Mapping[str, object]) -> list:
        """Assertions that are false under a complete assignment."""
        return [a for a in self.asserts if self.value(a, env) is not True]
