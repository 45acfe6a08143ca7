"""Reference semantics from the paper's definitions, for the tests only.

The package runs the input completion, the ranking formula and the
polynomial answer-set test; the other characterisations of answer sets live
here and check it: formula and clause models by enumeration, the reduct as
a program, classical satisfaction of rules, level-ranking checkers, the
paper's literal ranking formula, and the models of a formula whose
constraint atoms induce a solvable problem. Each is written from its
definition without calling the code it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Tuple

from casp2smt.completion import body_formula
from casp2smt.formula import (
    And,
    Atom,
    ClauseSet,
    Const,
    Implies,
    Not,
    Or,
    PropFormula,
    conj,
    disj,
    implies,
)
from casp2smt.lincon import LinearConstraint, LinExpr, Rel, constraint_variables, gcsp_solve_bounded, negate
from casp2smt.program import AtomId, Program, Rule, constraint_atom, require_heads_outside_input
from casp2smt.ranking import fresh_rank_var


class NotAModel(Exception):
    """The given assignment does not satisfy the clause set."""


class PartialRanking(Exception):
    """A level ranking does not assign every atom it must rank."""


def powerset(names: Iterable[AtomId]) -> Iterator[frozenset[AtomId]]:
    """Every subset of the names, in lexicographic order of bit vectors over
    the sorted names."""
    ordered = sorted(set(names))
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield frozenset(a for a, b in zip(ordered, bits) if b)


# --- formulas and clauses ----------------------------------------------------


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
    raise TypeError(f"not a formula node: {f!r}")


def models_of(f: PropFormula, vocab: Iterable[AtomId]) -> list[frozenset[AtomId]]:
    """All models over the vocabulary, in lexicographic order of atom-name
    bit vectors. Atoms outside the assignment read as false."""
    return [x for x in powerset(vocab) if eval_formula(f, x)]


def satisfies_clauses(m: AbstractSet[AtomId], clauses: ClauseSet) -> bool:
    return all(
        any((a in m) == sign for a, sign in clause) for clause in clauses.clauses
    )


def project_model(m: AbstractSet[AtomId], c: ClauseSet) -> frozenset[AtomId]:
    """Strip definitional atoms from a clause model."""
    if not satisfies_clauses(m, c):
        raise NotAModel(f"{sorted(a.name for a in m)} does not satisfy the clauses")
    return frozenset(m) - c.fresh_atoms


def clause_models(c: ClauseSet, vocab: Iterable[AtomId]) -> list[frozenset[AtomId]]:
    """All clause models over vocab plus the clause set's fresh atoms."""
    names = set(vocab) | c.fresh_atoms
    return [x for x in powerset(names) if satisfies_clauses(x, c)]


# --- programs ----------------------------------------------------------------


def rule(
    head: Optional[AtomId],
    pos: Iterable[AtomId] = (),
    neg: Iterable[AtomId] = (),
    dneg: Iterable[AtomId] = (),
) -> Rule:
    return Rule(head, frozenset(pos), frozenset(neg), frozenset(dneg))


def satisfies_rule(x: AbstractSet[AtomId], r: Rule) -> bool:
    """Classical satisfaction of the rule as an implication."""
    return not r.body_holds(x) or (r.head is not None and r.head in x)


def reduct(p: Program, x: AbstractSet[AtomId]) -> Program:
    """Drop the rules whose negative or double-negated part x falsifies; the
    survivors keep head and positive body only."""
    return Program(
        tuple(
            rule(r.head, r.pos)
            for r in p.rules
            if not (r.neg & x) and r.dneg <= x
        )
    )


def with_facts(p: Program, xs: Iterable[AtomId]) -> Program:
    return Program(p.rules + tuple(rule(a) for a in sorted(xs)))


# --- level rankings ----------------------------------------------------------

LevelRanking = Mapping[AtomId, int]


def check_input_level_ranking(
    p: Program, x: AbstractSet[AtomId], lr: LevelRanking, iota: AbstractSet[AtomId] = frozenset()
) -> bool:
    """Every non-input atom of x needs a satisfied body whose positive
    non-input atoms all rank at least one below the atom itself; input atoms
    are never ranked."""
    require_heads_outside_input(p, iota)
    ranked = set(x) - set(iota)
    missing = ranked - set(lr)
    if missing:
        raise PartialRanking(f"unranked atoms: {sorted(a.name for a in missing)}")
    for a in ranked:
        if not any(
            r.body_holds(x) and all(lr[a] - 1 >= lr[b] for b in r.pos - iota)
            for r in p.rules_by_head.get(a, ())
        ):
            return False
    return True


def find_level_ranking(
    p: Program, x: AbstractSet[AtomId], iota: AbstractSet[AtomId] = frozenset()
) -> Optional[dict[AtomId, int]]:
    """A witness ranking, or None when none exists: the atoms of x (minus
    iota) are layered bottom-up through their satisfied bodies, which
    succeeds exactly when a ranking exists. Values never need to exceed the
    size of x, so no candidate rankings are enumerated."""
    require_heads_outside_input(p, iota)
    target = set(x) - set(iota)
    levels: dict[AtomId, int] = {}
    stage = 0
    while True:
        added = False
        for a in target - levels.keys():
            for r in p.rules_by_head.get(a, ()):
                if not r.body_holds(x):
                    continue
                support = r.pos - iota
                if support <= levels.keys() and all(levels[b] < stage for b in support):
                    levels[a] = stage
                    added = True
                    break
        if not added:
            break
        stage += 1
    if set(levels) == target:
        return levels
    return None


def literal_ranking_formula(p: Program, iota: AbstractSet[AtomId]) -> PropFormula:
    """The level-ranking formula as the paper states it, with an implication
    for every non-input atom a: a implies some body of a that holds, each
    body conjoined with the atom ``lr_a - lr_b >= 1`` for every positive
    non-input atom b in it. Bodies with a positive non-input atom come first,
    then the others, each group in rule order; a body with a itself among
    its positive atoms can never support a and is left out. Rank variables
    get the package's names, in order of first use, so the pair atoms are
    the ones the package makes."""
    require_heads_outside_input(p, iota)
    used = set(constraint_variables(a.constraint for a in p.irregular_atoms))
    names: dict[AtomId, str] = {}

    def pair(a: AtomId, b: AtomId) -> PropFormula:
        for v in (a, b):
            if v not in names:
                names[v] = fresh_rank_var(v, used)
        expr = LinExpr.of({names[a]: 1, names[b]: -1})
        return Atom(constraint_atom(LinearConstraint(expr, Rel.GE, Fraction(1))))

    conjuncts = []
    for a in sorted(p.atoms):
        if a in iota:
            continue
        bodies = p.rules_by_head.get(a, ())
        recursive = [r for r in bodies if r.pos - iota and a not in r.pos]
        choices = [conj([body_formula(r)] + [pair(a, b) for b in sorted(r.pos - iota)]) for r in recursive]
        choices += [body_formula(r) for r in bodies if not (r.pos - iota)]
        conjuncts.append(implies(Atom(a), disj(choices)))
    return conj(conjuncts)


# --- constraint programs -----------------------------------------------------


def constraint_models(
    formula: PropFormula, vocab: Iterable[AtomId], box: Tuple[int, int]
) -> list[frozenset[AtomId]]:
    """Models of a formula over atoms that carry their constraints whose
    induced integer problem, within the box, is solvable: the constraint of
    every true constraint atom and the complement of every false one."""
    vocab = tuple(vocab)
    scope = {a for a in vocab if a.constraint is not None}
    lo, hi = box
    found = []
    for x in models_of(formula, vocab):
        gcsp = [a.constraint for a in sorted(x & scope)]
        gcsp += [negate(a.constraint) for a in sorted(scope - x)]
        if gcsp_solve_bounded(gcsp, lo, hi) is not None:
            found.append(x)
    return found
