"""Program completion and input completion as propositional formulas."""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

from .formula import BOTTOM, Atom, Not, PropFormula, conj, disj, implies
from .program import AtomId, Program, Rule, require_heads_outside_input


def body_formula(r: Rule) -> PropFormula:
    """Body of a rule as a conjunction; double negation collapses, so the
    doubly negated atoms reappear as plain positives."""
    parts: list[PropFormula] = [Atom(b) for b in sorted(r.pos)]
    parts += [Not(Atom(b)) for b in sorted(r.neg)]
    parts += [Atom(b) for b in sorted(r.dneg)]
    return conj(parts)


def rule_implication(r: Rule) -> PropFormula:
    head = Atom(r.head) if r.head is not None else BOTTOM
    return implies(body_formula(r), head)


def bodies_of(p: Program, a: AtomId) -> list[PropFormula]:
    """Body formulas of all rules with head a, in rule order."""
    return [body_formula(r) for r in p.rules_by_head.get(a, ())]


def _support(p: Program, a: AtomId) -> PropFormula:
    return implies(Atom(a), disj(bodies_of(p, a)))


def completion(p: Program, vocab: Optional[Iterable[AtomId]] = None) -> PropFormula:
    """Rules as implications plus, per vocabulary atom, the implication from
    the atom to the disjunction of its bodies (to falsum when it has none)."""
    names = sorted(set(vocab)) if vocab is not None else sorted(p.atoms)
    conjuncts = [rule_implication(r) for r in p.rules]
    conjuncts += [_support(p, a) for a in names]
    return conj(conjuncts)


def input_completion(p: Program, iota: AbstractSet[AtomId]) -> PropFormula:
    """Like the completion, but support implications are emitted only for
    atoms outside the input vocabulary."""
    require_heads_outside_input(p, iota)
    conjuncts = [rule_implication(r) for r in p.rules]
    conjuncts += [_support(p, a) for a in sorted(p.atoms) if a not in iota]
    return conj(conjuncts)
