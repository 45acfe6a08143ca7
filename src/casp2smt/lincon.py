"""Linear and integer linear constraints, valuations, and bounded solving.

A constraint has the shape ``a1*x1 + ... + an*xn <rel> k``. All arithmetic is
exact (:class:`fractions.Fraction`); floats never enter a satisfaction check,
so evaluation results are bit-stable.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ParseError, UnboundVariable, UnsupportedMultivariate

NumberLike = Union[int, Fraction]

# total mapping from constraint variables to numbers
Valuation = Mapping[str, NumberLike]


class LexiconKind(enum.Enum):
    """Domain of the constraint variables for one solving session."""

    INTEGER_LINEAR = "int"
    REAL_LINEAR = "real"


class Rel(enum.Enum):
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "="
    NE = "!="

    def holds(self, lhs: Fraction, rhs: Fraction) -> bool:
        if self is Rel.LT:
            return lhs < rhs
        if self is Rel.GT:
            return lhs > rhs
        if self is Rel.LE:
            return lhs <= rhs
        if self is Rel.GE:
            return lhs >= rhs
        if self is Rel.EQ:
            return lhs == rhs
        return lhs != rhs

    @property
    def complement(self) -> "Rel":
        """Relation describing the exact complement of this one."""
        return _COMPLEMENT[self]

    @property
    def mirror(self) -> "Rel":
        """Relation obtained when both sides are multiplied by -1."""
        return _MIRROR[self]


_COMPLEMENT = {
    Rel.LT: Rel.GE,
    Rel.GE: Rel.LT,
    Rel.GT: Rel.LE,
    Rel.LE: Rel.GT,
    Rel.EQ: Rel.NE,
    Rel.NE: Rel.EQ,
}

_MIRROR = {
    Rel.LT: Rel.GT,
    Rel.GT: Rel.LT,
    Rel.LE: Rel.GE,
    Rel.GE: Rel.LE,
    Rel.EQ: Rel.EQ,
    Rel.NE: Rel.NE,
}


@dataclass(frozen=True)
class LinExpr:
    """Sum of coefficient*variable terms, kept sorted and zero-free."""

    terms: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        merged: dict[str, Fraction] = {}
        for name, coeff in self.terms:
            if not name:
                raise ValueError("variable names must be nonempty")
            merged[name] = merged.get(name, Fraction(0)) + Fraction(coeff)
        canon = tuple(
            (name, merged[name]) for name in sorted(merged) if merged[name] != 0
        )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def of(cls, coeffs: Mapping[str, NumberLike]) -> "LinExpr":
        return cls(tuple((v, Fraction(c)) for v, c in coeffs.items()))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def coeff(self, name: str) -> Fraction:
        for var, c in self.terms:
            if var == name:
                return c
        return Fraction(0)

    def scaled(self, factor: Fraction) -> "LinExpr":
        return LinExpr(tuple((v, c * factor) for v, c in self.terms))

    def value(self, valuation: Valuation) -> Fraction:
        total = Fraction(0)
        for name, coeff in self.terms:
            if name not in valuation:
                raise UnboundVariable(name)
            total += coeff * Fraction(valuation[name])
        return total


@dataclass(frozen=True)
class LinearConstraint:
    """``expr rel bound``, optionally wrapped in one classical negation."""

    expr: LinExpr
    rel: Rel
    bound: Fraction
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "bound", Fraction(self.bound))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.expr.variables

    def normalized(self) -> "LinearConstraint":
        """Canonical form: negation folded into the complement relation,
        integer coefficients with overall gcd 1, first coefficient positive."""
        rel = self.rel.complement if self.negated else self.rel
        expr, bound = self.expr, self.bound
        if expr.terms:
            scale = lcm(bound.denominator, *(c.denominator for _, c in expr.terms))
            if scale > 1:
                expr, bound = expr.scaled(Fraction(scale)), bound * scale
            g = gcd(int(bound), *(int(c) for _, c in expr.terms))
            if g > 1:
                expr, bound = expr.scaled(Fraction(1, g)), bound / g
            if expr.terms[0][1] < 0:
                expr, bound, rel = expr.scaled(Fraction(-1)), -bound, rel.mirror
        return LinearConstraint(expr, rel, bound, False)

    def __str__(self) -> str:
        return render_constraint(self)


def evaluate(c: LinearConstraint, v: Valuation) -> bool:
    """Decide whether the valuation satisfies the constraint literal."""
    result = c.rel.holds(c.expr.value(v), c.bound)
    return not result if c.negated else result


def negate(c: LinearConstraint) -> LinearConstraint:
    """Positive-form complement; double negation gives the constraint back."""
    if c.negated:
        return LinearConstraint(c.expr, c.rel, c.bound, False).normalized()
    return LinearConstraint(c.expr, c.rel.complement, c.bound, False).normalized()


def constraint_variables(cs: Iterable[LinearConstraint]) -> tuple[str, ...]:
    seen: set[str] = set()
    for c in cs:
        seen.update(c.variables)
    return tuple(sorted(seen))


def _boxed_solutions(
    cs: Sequence[LinearConstraint],
    lo: int,
    hi: int,
    variables: Sequence[str],
) -> Iterator[dict[str, int]]:
    """Depth-first search over the integer box, pruning a branch as soon as a
    fully assigned constraint fails."""
    order = list(variables)
    position = {name: i for i, name in enumerate(order)}
    by_last: list[list[LinearConstraint]] = [[] for _ in order]
    for c in cs:
        if not c.variables:
            if not evaluate(c, {}):
                return
            continue
        by_last[max(position[v] for v in c.variables)].append(c)

    assignment: dict[str, int] = {}

    def descend(depth: int) -> Iterator[dict[str, int]]:
        if depth == len(order):
            yield dict(assignment)
            return
        name = order[depth]
        for value in range(lo, hi + 1):
            assignment[name] = value
            if all(evaluate(c, assignment) for c in by_last[depth]):
                yield from descend(depth + 1)
        del assignment[name]

    yield from descend(0)


def _check_box_args(kind: LexiconKind, lo: int, hi: int) -> None:
    if kind is not LexiconKind.INTEGER_LINEAR:
        raise ValueError("bounded search applies to the integer lexicon only")
    if lo > hi:
        raise ValueError(f"empty box [{lo}, {hi}]")


def gcsp_solve_bounded(
    cs: Iterable[LinearConstraint],
    kind: LexiconKind,
    lo: int,
    hi: int,
    variables: Optional[Sequence[str]] = None,
) -> Optional[dict[str, int]]:
    """First solution of the constraint set inside the box, in lexicographic
    order of the sorted variable names, or None when there is none."""
    cs = tuple(cs)
    _check_box_args(kind, lo, hi)
    names = tuple(sorted(variables)) if variables is not None else constraint_variables(cs)
    return next(_boxed_solutions(cs, lo, hi, names), None)


def gcsp_enumerate_bounded(
    cs: Iterable[LinearConstraint],
    kind: LexiconKind,
    lo: int,
    hi: int,
    variables: Optional[Sequence[str]] = None,
) -> list[dict[str, int]]:
    """All solutions inside the box, lexicographic order."""
    cs = tuple(cs)
    _check_box_args(kind, lo, hi)
    names = tuple(sorted(variables)) if variables is not None else constraint_variables(cs)
    return list(_boxed_solutions(cs, lo, hi, names))


@dataclass
class _Interval:
    lo: Optional[Fraction] = None
    lo_strict: bool = False
    hi: Optional[Fraction] = None
    hi_strict: bool = False
    punctures: set = field(default_factory=set)

    def add_lower(self, v: Fraction, strict: bool) -> None:
        if self.lo is None or v > self.lo or (v == self.lo and strict):
            self.lo, self.lo_strict = v, strict

    def add_upper(self, v: Fraction, strict: bool) -> None:
        if self.hi is None or v < self.hi or (v == self.hi and strict):
            self.hi, self.hi_strict = v, strict

    def feasible(self) -> bool:
        if self.lo is None or self.hi is None or self.lo < self.hi:
            return True
        if self.lo > self.hi:
            return False
        # degenerate [v, v]: both ends closed and the point not punctured
        if self.lo_strict or self.hi_strict:
            return False
        return self.lo not in self.punctures


def _intervals(cs: Iterable[LinearConstraint]) -> Optional[dict[str, _Interval]]:
    """The interval of each variable of a univariate system over the reals,
    or None when the system is infeasible. Inequalities track open/closed
    endpoints; a disequality punctures the interval."""
    intervals: dict[str, _Interval] = {}
    for raw in cs:
        c = raw.normalized()
        names = c.variables
        if len(names) > 1:
            raise UnsupportedMultivariate(f"constraint '{c}' has {len(names)} variables")
        if not names:
            if not evaluate(c, {}):
                return None
            continue
        # normalization makes the single coefficient positive
        name = names[0]
        k = c.bound / c.expr.coeff(name)
        box = intervals.setdefault(name, _Interval())
        if c.rel is Rel.LT:
            box.add_upper(k, True)
        elif c.rel is Rel.LE:
            box.add_upper(k, False)
        elif c.rel is Rel.GT:
            box.add_lower(k, True)
        elif c.rel is Rel.GE:
            box.add_lower(k, False)
        elif c.rel is Rel.EQ:
            box.add_lower(k, False)
            box.add_upper(k, False)
        else:
            box.punctures.add(k)
    return intervals if all(box.feasible() for box in intervals.values()) else None


def real_feasible_1d(cs: Iterable[LinearConstraint]) -> bool:
    """Interval-intersection feasibility over the reals, one variable per
    constraint."""
    return _intervals(cs) is not None


def real_witness_1d(cs: Iterable[LinearConstraint]) -> Optional[dict[str, Fraction]]:
    """A rational witness for a feasible univariate system, or None."""
    intervals = _intervals(cs)
    if intervals is None:
        return None
    return {name: _pick_value(intervals[name]) for name in sorted(intervals)}


def _pick_value(box: _Interval) -> Fraction:
    if box.lo is not None and box.hi is not None and box.lo == box.hi:
        return box.lo
    # pick a closed subinterval strictly inside the feasible set, then walk
    # midpoints until clear of the finitely many punctures
    if box.lo is not None and box.hi is not None:
        a, b = box.lo + (box.hi - box.lo) / 4, box.lo + (box.hi - box.lo) / 2
    elif box.lo is not None:
        a, b = box.lo + 1, box.lo + 2
    elif box.hi is not None:
        a, b = box.hi - 2, box.hi - 1
    else:
        a, b = Fraction(0), Fraction(1)
    candidate = a
    while candidate in box.punctures:
        b = (a + b) / 2
        candidate = b
    return candidate


def is_difference_shape(c: LinearConstraint) -> bool:
    """True for the x - y <rel> k shape difference logic accepts."""
    n = c.normalized()
    if len(n.expr.terms) != 2:
        return False
    coeffs = sorted(coeff for _, coeff in n.expr.terms)
    return coeffs == [Fraction(-1), Fraction(1)]


# --- text syntax ------------------------------------------------------------
#
# The syntax used inside |...| atoms: integer*variable terms joined by + or -,
# one relation from  < > <= >= = != , and a number on the right. A bare
# variable stands for coefficient 1, e.g.  2*x2 + 3*x3 = 13  or  x >= 12.

_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?)|(?P<var>[a-z][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|!=|[*+<>=-])|(?P<bad>\S)"
)

_RELS = {r.value: r for r in Rel}


def _tokenize_constraint(text: str, line: int, col: int) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in constraint", line, col + m.start())
        tokens.append((m.lastgroup, m.group(), col + m.start()))
    return tokens


def parse_constraint(text: str, line: int = 0, col: int = 0) -> LinearConstraint:
    """Parse the text between constraint-atom bars into a normalized constraint."""
    tokens = _tokenize_constraint(text, line, col)
    pos = 0

    def peek() -> tuple[str, str, int]:
        return tokens[pos] if pos < len(tokens) else ("end", "", col + len(text))

    def take(kind: str) -> tuple[str, str, int]:
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}" if tok[1] else f"expected {kind}", line, tok[2])
        pos += 1
        return tok

    def number() -> Fraction:
        sign = Fraction(1)
        while peek()[0] == "op" and peek()[1] in "+-":
            if take("op")[1] == "-":
                sign = -sign
        return sign * Fraction(take("num")[1])

    coeffs: dict[str, Fraction] = {}
    sign = Fraction(1)
    while True:
        tok = peek()
        if tok[0] == "op" and tok[1] in "+-":
            take("op")
            sign = -sign if tok[1] == "-" else sign
            continue
        if tok[0] == "num":
            value = Fraction(take("num")[1])
            take_tok = peek()
            if take_tok[0] == "op" and take_tok[1] == "*":
                take("op")
            var = take("var")[1]
            coeffs[var] = coeffs.get(var, Fraction(0)) + sign * value
        elif tok[0] == "var":
            var = take("var")[1]
            coeffs[var] = coeffs.get(var, Fraction(0)) + sign
        else:
            raise ParseError("expected a term", line, tok[2])
        sign = Fraction(1)
        nxt = peek()
        if nxt[0] == "op" and nxt[1] in "+-":
            continue
        break

    tok = take("op")
    if tok[1] not in _RELS:
        raise ParseError(f"expected a relation, found {tok[1]!r}", line, tok[2])
    rel = _RELS[tok[1]]
    bound = number()
    if pos != len(tokens):
        raise ParseError(f"trailing input {peek()[1]!r} in constraint", line, peek()[2])
    if not coeffs:
        raise ParseError("constraint has no variables", line, col)
    return LinearConstraint(LinExpr.of(coeffs), rel, bound).normalized()


def render_constraint(c: LinearConstraint) -> str:
    """Compact canonical text of the normalized constraint, e.g. x>=12."""
    n = c.normalized()
    if not n.expr.terms:
        return f"0{n.rel.value}{n.bound}"
    parts: list[str] = []
    for i, (name, coeff) in enumerate(n.expr.terms):
        sign = "-" if coeff < 0 else ("+" if i else "")
        mag = abs(coeff)
        term = name if mag == 1 else f"{mag}*{name}"
        parts.append(f"{sign}{term}")
    return f"{''.join(parts)}{n.rel.value}{n.bound}"
