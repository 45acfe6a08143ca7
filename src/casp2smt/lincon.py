"""Linear and integer linear constraints, valuations, and their solving.

A constraint has the shape ``a1*x1 + ... + an*xn <rel> k`` with at least one
variable. All arithmetic is exact (:class:`fractions.Fraction`); floats never
enter a satisfaction check, so evaluation results are bit-stable.

Every :class:`LinearConstraint` is canonical once built, so constraints that
differ only by a rescaling are equal, hash alike and render the same text.

Over the integers a system is solved by search inside a box; over the reals,
exactly and in any number of variables, by :func:`real_solution`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import UnboundVariable

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
    """``expr rel bound`` in canonical form: integer coefficients with overall
    gcd 1 (bound included) and a positive first coefficient. The expression
    must have a term, so a constraint always has a variable."""

    expr: LinExpr
    rel: Rel
    bound: Fraction

    def __post_init__(self) -> None:
        expr, rel, bound = self.expr, self.rel, Fraction(self.bound)
        if not expr.terms:
            raise ValueError("a constraint needs a variable")
        scale = lcm(bound.denominator, *(c.denominator for _, c in expr.terms))
        if scale > 1:
            expr, bound = expr.scaled(Fraction(scale)), bound * scale
        g = gcd(int(bound), *(int(c) for _, c in expr.terms))
        if g > 1:
            expr, bound = expr.scaled(Fraction(1, g)), bound / g
        if expr.terms[0][1] < 0:
            expr, bound, rel = expr.scaled(Fraction(-1)), -bound, rel.mirror
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "bound", bound)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.expr.variables

    def __str__(self) -> str:
        return render_constraint(self)


def evaluate(c: LinearConstraint, v: Valuation) -> bool:
    """Decide whether the valuation satisfies the constraint."""
    return c.rel.holds(c.expr.value(v), c.bound)


def negate(c: LinearConstraint) -> LinearConstraint:
    """The complement constraint; negating twice gives the constraint back."""
    return LinearConstraint(c.expr, c.rel.complement, c.bound)


def constraint_variables(cs: Iterable[LinearConstraint]) -> tuple[str, ...]:
    seen: set[str] = set()
    for c in cs:
        seen.update(c.variables)
    return tuple(sorted(seen))


def _boxed_solutions(
    cs: Iterable[LinearConstraint], lo: int, hi: int
) -> Iterator[dict[str, int]]:
    """Depth-first search over the integer box, in lexicographic order of the
    sorted variable names of the constraints. Each constraint bounds the last
    of its variables once the others are set, so a variable walks only the
    range its constraints leave, minus the values a disequality excludes."""
    if lo > hi:
        raise ValueError(f"empty box [{lo}, {hi}]")
    cs = tuple(cs)
    order = constraint_variables(cs)
    position = {name: i for i, name in enumerate(order)}
    # per variable, the constraints it completes (their last term by name),
    # as a*var rel k - rest; over the integers < k is <= k-1 and > k is >= k+1
    by_last: list[list] = [[] for _ in order]
    for c in cs:
        *rest, (name, a) = c.expr.terms
        strict = {Rel.LT: (Rel.LE, c.bound - 1), Rel.GT: (Rel.GE, c.bound + 1)}
        rel, k = strict.get(c.rel, (c.rel, c.bound))
        by_last[position[name]].append((a, rest, rel if a > 0 else rel.mirror, k))

    assignment: dict[str, int] = {}

    def descend(depth: int) -> Iterator[dict[str, int]]:
        if depth == len(order):
            yield dict(assignment)
            return
        low, high, excluded = lo, hi, set()
        for a, rest, rel, k in by_last[depth]:
            q = (k - sum(b * assignment[v] for v, b in rest)) / a
            if rel in (Rel.LE, Rel.EQ):
                high = min(high, floor(q))
            if rel in (Rel.GE, Rel.EQ):
                low = max(low, ceil(q))
            if rel is Rel.NE and q.denominator == 1:
                excluded.add(q.numerator)
        name = order[depth]
        for value in range(low, high + 1):
            if value not in excluded:
                assignment[name] = value
                yield from descend(depth + 1)

    return descend(0)


def gcsp_solve_bounded(
    cs: Iterable[LinearConstraint], lo: int, hi: int
) -> Optional[dict[str, int]]:
    """First integer solution of the constraint set inside the box, in
    lexicographic order of the sorted variable names, or None when there is
    none."""
    return next(_boxed_solutions(cs, lo, hi), None)


def gcsp_enumerate_bounded(
    cs: Iterable[LinearConstraint], lo: int, hi: int
) -> Iterator[dict[str, int]]:
    """Every integer solution inside the box, lazily, in lexicographic order
    of the sorted variable names."""
    return _boxed_solutions(cs, lo, hi)


# a row  sum(coeff * var) <= k,  or < k when strict
_Row = tuple[dict[str, Fraction], bool, Fraction]


def _eliminate(rows: list[_Row], order: Sequence[str]) -> Optional[list[list[_Row]]]:
    """Fourier-Motzkin elimination of the variables in order: the rows in
    force as each one is eliminated, or None when the rows left without
    variables are contradictory."""
    stages = []
    for var in order:
        stages.append(rows)
        kept, lower, upper = [], [], []
        for coeffs, strict, k in rows:
            a = coeffs.get(var, 0)
            if a == 0:
                kept.append((coeffs, strict, k))
                continue
            # scaled so that var has coefficient 1 (upper) or -1 (lower)
            unit = {v: c / abs(a) for v, c in coeffs.items() if v != var}
            (upper if a > 0 else lower).append((unit, strict, k / abs(a)))
        for lc, ls, lk in lower:
            for uc, us, uk in upper:
                summed = {v: lc.get(v, 0) + uc.get(v, 0) for v in {**lc, **uc}}
                kept.append(({v: c for v, c in summed.items() if c}, ls or us, lk + uk))
        rows = kept
    if any(k < 0 or (strict and k == 0) for _, strict, k in rows):
        return None
    return stages


def real_solution(
    cs: Iterable[LinearConstraint], box: Optional[tuple[int, int]] = None
) -> Optional[dict[str, Fraction]]:
    """An exact rational solution of the system over the reals, or None when
    there is none. A box bounds every variable of the constraints.

    Each disequality in turn becomes the strict side, ``<`` or ``>``, that
    keeps the rows feasible; when neither does, the system is infeasible.
    The greedy choice is exact. Finitely many hyperplanes cover a nonempty
    convex set P only when one of them contains P. An open half-space that
    meets P cuts it without changing its affine hull, so a hyperplane that
    does not contain P does not contain the cut either."""
    cs = list(cs)
    order = constraint_variables(cs)
    if box is not None:
        cs += [
            LinearConstraint(LinExpr.of({v: 1}), rel, bound)
            for v in order
            for rel, bound in ((Rel.GE, box[0]), (Rel.LE, box[1]))
        ]
    rows: list[_Row] = []
    splits: list[tuple[_Row, _Row]] = []
    for c in cs:
        below = (dict(c.expr.terms), c.rel in (Rel.LT, Rel.NE), c.bound)
        above = ({v: -a for v, a in c.expr.terms}, c.rel in (Rel.GT, Rel.NE), -c.bound)
        if c.rel is Rel.NE:
            splits.append((below, above))
            continue
        if c.rel in (Rel.LT, Rel.LE, Rel.EQ):
            rows.append(below)
        if c.rel in (Rel.GT, Rel.GE, Rel.EQ):
            rows.append(above)
    stages = _eliminate(rows, order)
    for below, above in splits:
        if stages is None:
            return None
        rows.append(below)
        stages = _eliminate(rows, order)
        if stages is None:
            rows[-1] = above
            stages = _eliminate(rows, order)
    if stages is None:
        return None
    # back-substitution: the midpoint of the bounds, one past the only bound,
    # or 0; each lies in the nonempty interval the elimination leaves
    value: dict[str, Fraction] = {}
    for var, var_rows in reversed(list(zip(order, stages))):
        lows, highs = [], []
        for coeffs, _, k in var_rows:
            a = coeffs.get(var, 0)
            if a != 0:
                b = (k - sum(c * value[v] for v, c in coeffs.items() if v != var)) / a
                (highs if a > 0 else lows).append(b)
        if lows and highs:
            value[var] = (max(lows) + min(highs)) / 2
        elif lows or highs:
            value[var] = max(lows) + 1 if lows else min(highs) - 1
        else:
            value[var] = Fraction(0)
    return dict(sorted(value.items()))


def render_constraint(c: LinearConstraint) -> str:
    """Compact canonical text of the constraint, e.g. x>=12."""
    parts: list[str] = []
    for i, (name, coeff) in enumerate(c.expr.terms):
        sign = "-" if coeff < 0 else ("+" if i else "")
        mag = abs(coeff)
        term = name if mag == 1 else f"{mag}*{name}"
        parts.append(f"{sign}{term}")
    return f"{''.join(parts)}{c.rel.value}{c.bound}"
