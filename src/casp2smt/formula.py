"""Propositional formulas, model enumeration, and definitional clausification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Tuple

from .errors import NotAModel
from .program import ORACLE_CAP, AtomId, AtomKind, subsets

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


@dataclass(frozen=True)
class Iff(PropFormula):
    lhs: PropFormula
    rhs: PropFormula


TOP = Const(True)
BOTTOM = Const(False)


def conj(args: Iterable[PropFormula]) -> PropFormula:
    """n-ary conjunction with constant folding and flattening."""
    flat: list[PropFormula] = []
    for f in args:
        if f == TOP:
            continue
        if f == BOTTOM:
            return BOTTOM
        if isinstance(f, And):
            flat.extend(f.args)
        else:
            flat.append(f)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(args: Iterable[PropFormula]) -> PropFormula:
    """n-ary disjunction with constant folding and flattening."""
    flat: list[PropFormula] = []
    for f in args:
        if f == BOTTOM:
            continue
        if f == TOP:
            return TOP
        if isinstance(f, Or):
            flat.extend(f.args)
        else:
            flat.append(f)
    if not flat:
        return BOTTOM
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(lhs: PropFormula, rhs: PropFormula) -> PropFormula:
    if lhs == TOP:
        return rhs
    if lhs == BOTTOM:
        return TOP
    return Implies(lhs, rhs)


def eval_formula(f: PropFormula, x: AbstractSet[AtomId]) -> bool:
    if isinstance(f, Atom):
        return f.atom in x
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not eval_formula(f.arg, x)
    if isinstance(f, And):
        return all(eval_formula(g, x) for g in f.args)
    if isinstance(f, Or):
        return any(eval_formula(g, x) for g in f.args)
    if isinstance(f, Implies):
        return not eval_formula(f.lhs, x) or eval_formula(f.rhs, x)
    if isinstance(f, Iff):
        return eval_formula(f.lhs, x) == eval_formula(f.rhs, x)
    raise TypeError(f"not a formula node: {f!r}")


def models_of(
    f: PropFormula, vocab: Iterable[AtomId], cap: int = ORACLE_CAP
) -> list[frozenset[AtomId]]:
    """All models over the vocabulary, in lexicographic order of atom-name
    bit vectors. Atoms outside the assignment read as false."""
    return [x for x in subsets(vocab, cap) if eval_formula(f, x)]


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


def _nnf(f: PropFormula) -> PropFormula:
    if isinstance(f, (Atom, Const)):
        return f
    if isinstance(f, Not):
        return _nnf_neg(f.arg)
    if isinstance(f, And):
        return conj(_nnf(g) for g in f.args)
    if isinstance(f, Or):
        return disj(_nnf(g) for g in f.args)
    if isinstance(f, Implies):
        return disj((_nnf_neg(f.lhs), _nnf(f.rhs)))
    if isinstance(f, Iff):
        # expanded as two implications
        return conj(
            (
                disj((_nnf_neg(f.lhs), _nnf(f.rhs))),
                disj((_nnf_neg(f.rhs), _nnf(f.lhs))),
            )
        )
    raise TypeError(f"not a formula node: {f!r}")


def _nnf_neg(f: PropFormula) -> PropFormula:
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Const):
        return Const(not f.value)
    if isinstance(f, Not):
        return _nnf(f.arg)
    if isinstance(f, And):
        return disj(_nnf_neg(g) for g in f.args)
    if isinstance(f, Or):
        return conj(_nnf_neg(g) for g in f.args)
    if isinstance(f, Implies):
        return conj((_nnf(f.lhs), _nnf_neg(f.rhs)))
    if isinstance(f, Iff):
        return disj(
            (
                conj((_nnf(f.lhs), _nnf_neg(f.rhs))),
                conj((_nnf(f.rhs), _nnf_neg(f.lhs))),
            )
        )
    raise TypeError(f"not a formula node: {f!r}")


class _Clausifier:
    def __init__(self) -> None:
        self.clauses: list[tuple[Literal, ...]] = []
        self.fresh: list[AtomId] = []
        self.defined: dict[PropFormula, Literal] = {}

    def fresh_atom(self) -> AtomId:
        a = AtomId(f"{FRESH_PREFIX}{len(self.fresh) + 1}", AtomKind.REGULAR)
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


def to_clauses(f: PropFormula) -> ClauseSet:
    """Definitional clausification of an arbitrary formula. Fresh atoms carry
    the ``__def_`` prefix and are numbered in traversal order."""
    worker = _Clausifier()
    worker.assert_formula(_nnf(f))
    return ClauseSet(tuple(worker.clauses), frozenset(worker.fresh))


def satisfies_clauses(m: AbstractSet[AtomId], clauses: ClauseSet) -> bool:
    return all(
        any((a in m) == sign for a, sign in clause) for clause in clauses.clauses
    )


def project_model(m: AbstractSet[AtomId], c: ClauseSet) -> frozenset[AtomId]:
    """Strip definitional atoms from a clause model."""
    if not satisfies_clauses(m, c):
        raise NotAModel(f"{sorted(a.name for a in m)} does not satisfy the clauses")
    return frozenset(m) - c.fresh_atoms


def clause_models(
    c: ClauseSet, vocab: Iterable[AtomId], cap: int = ORACLE_CAP
) -> list[frozenset[AtomId]]:
    """All clause models over vocab plus the clause set's fresh atoms."""
    names = set(vocab) | c.fresh_atoms
    return [x for x in subsets(names, cap) if satisfies_clauses(x, c)]
