"""Propositional formula trees and their definitional clausification; the
package builds formulas for the solver and never enumerates their models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .program import AtomId

FRESH_PREFIX = "__def_"


class PropFormula:
    """Base class of the formula tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(PropFormula):
    atom: AtomId


@dataclass(frozen=True)
class Const(PropFormula):
    value: bool


@dataclass(frozen=True)
class Not(PropFormula):
    arg: PropFormula


@dataclass(frozen=True)
class And(PropFormula):
    args: Tuple[PropFormula, ...]


@dataclass(frozen=True)
class Or(PropFormula):
    args: Tuple[PropFormula, ...]


@dataclass(frozen=True)
class Implies(PropFormula):
    lhs: PropFormula
    rhs: PropFormula


TOP = Const(True)
BOTTOM = Const(False)


def _fold(op: type, unit: Const, zero: Const, args: Iterable[PropFormula]) -> PropFormula:
    """n-ary ``op`` with constant folding and flattening: the unit drops out,
    the zero absorbs, nested ``op`` nodes are spliced in."""
    flat: list[PropFormula] = []
    for f in args:
        if f == unit:
            continue
        if f == zero:
            return zero
        if isinstance(f, op):
            flat.extend(f.args)
        else:
            flat.append(f)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else op(tuple(flat))


def conj(args: Iterable[PropFormula]) -> PropFormula:
    """n-ary conjunction with constant folding and flattening."""
    return _fold(And, TOP, BOTTOM, args)


def disj(args: Iterable[PropFormula]) -> PropFormula:
    """n-ary disjunction with constant folding and flattening."""
    return _fold(Or, BOTTOM, TOP, args)


def implies(lhs: PropFormula, rhs: PropFormula) -> PropFormula:
    if lhs == TOP:
        return rhs
    if lhs == BOTTOM:
        return TOP
    return Implies(lhs, rhs)


def unique_name(base: str, used: set[str]) -> str:
    """The base name, or the first of base_1, base_2, ... not yet used; the
    name returned is added to used."""
    candidate, i = base, 0
    while candidate in used:
        i += 1
        candidate = f"{base}_{i}"
    used.add(candidate)
    return candidate


# --- clausification ----------------------------------------------------------

Literal = Tuple[AtomId, bool]


@dataclass(frozen=True)
class ClauseSet:
    """Clauses equisatisfiable with a source formula; models project onto the
    source's models once the definitional atoms are dropped."""

    clauses: Tuple[Tuple[Literal, ...], ...]
    fresh_atoms: frozenset[AtomId]

    def atoms(self) -> frozenset[AtomId]:
        return frozenset(a for clause in self.clauses for a, _ in clause)


def _nnf(f: PropFormula, negated: bool = False) -> PropFormula:
    """Negation normal form of f, or of its negation when ``negated``; De
    Morgan swaps the connective and pushes the negation into the arguments."""
    if isinstance(f, Atom):
        return Not(f) if negated else f
    if isinstance(f, Const):
        return Const(f.value != negated)
    if isinstance(f, Not):
        return _nnf(f.arg, not negated)
    if isinstance(f, Implies):
        return _nnf(Or((Not(f.lhs), f.rhs)), negated)
    if isinstance(f, (And, Or)):
        fold = conj if isinstance(f, And) != negated else disj
        return fold(_nnf(g, negated) for g in f.args)
    raise TypeError(f"not a formula node: {f!r}")


class _Clausifier:
    def __init__(self, taken: Iterable[str]) -> None:
        self.clauses: list[tuple[Literal, ...]] = []
        self.fresh: list[AtomId] = []
        self.defined: dict[PropFormula, Literal] = {}
        self.used = set(taken)

    def fresh_atom(self) -> AtomId:
        a = AtomId(unique_name(f"{FRESH_PREFIX}{len(self.fresh) + 1}", self.used))
        self.fresh.append(a)
        return a

    def assert_formula(self, f: PropFormula) -> None:
        if isinstance(f, Const):
            if not f.value:
                self.clauses.append(())
            return
        if isinstance(f, And):
            for g in f.args:
                self.assert_formula(g)
            return
        if isinstance(f, (Atom, Not)):
            self.clauses.append((self.literal(f),))
            return
        if isinstance(f, Or):
            self.clauses.append(tuple(self.literal(g) for g in f.args))
            return
        raise TypeError(f"clausifier expects negation normal form, got {f!r}")

    def literal(self, f: PropFormula) -> Literal:
        if isinstance(f, Atom):
            return (f.atom, True)
        if isinstance(f, Not) and isinstance(f.arg, Atom):
            return (f.arg.atom, False)
        return self.define(f)

    def define(self, f: PropFormula) -> Literal:
        """Definitional atom equivalent to the subformula (both directions,
        so clause models stay in bijection with source models)."""
        if f in self.defined:
            return self.defined[f]
        if not isinstance(f, (And, Or)):
            raise TypeError(f"cannot define a literal for {f!r}")
        parts = [self.literal(g) for g in f.args]
        d = self.fresh_atom()
        if isinstance(f, And):
            for a, sign in parts:
                self.clauses.append(((d, False), (a, sign)))
            self.clauses.append(tuple([(d, True)] + [(a, not sign) for a, sign in parts]))
        else:
            self.clauses.append(tuple([(d, False)] + parts))
            for a, sign in parts:
                self.clauses.append(((a, not sign), (d, True)))
        lit = (d, True)
        self.defined[f] = lit
        return lit


def to_clauses(f: PropFormula, taken: Iterable[str] = ()) -> ClauseSet:
    """Definitional clausification of an arbitrary formula. Fresh atoms carry
    the ``__def_`` prefix, are numbered in traversal order and take none of
    the taken names, which should hold the names of the formula's atoms."""
    worker = _Clausifier(taken)
    worker.assert_formula(_nnf(f))
    return ClauseSet(tuple(worker.clauses), frozenset(worker.fresh))

