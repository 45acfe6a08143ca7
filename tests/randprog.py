"""Random program generators for the randomized theorem suites."""

from __future__ import annotations

import random
from fractions import Fraction

from casp2smt.lincon import LinearConstraint, LinExpr, Rel
from casp2smt.program import AtomId, Program, Rule, atom, constraint_atom

NAMES = "abcdefghij"


def _pool(n_atoms: int) -> list[AtomId]:
    return [atom(NAMES[i]) for i in range(n_atoms)]


def _some(rng: random.Random, pool, most: int) -> frozenset:
    k = rng.randint(0, min(most, len(pool)))
    return frozenset(rng.sample(pool, k))


def random_program(
    rng: random.Random,
    max_atoms: int = 8,
    max_rules: int = 12,
    denial_rate: float = 0.2,
) -> Program:
    pool = _pool(rng.randint(1, max_atoms))
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = None if rng.random() < denial_rate else rng.choice(pool)
        rules.append(
            Rule(
                head,
                _some(rng, pool, 2),
                _some(rng, pool, 2),
                _some(rng, pool, 1),
            )
        )
    return Program(tuple(rules))


def random_tight_program(
    rng: random.Random,
    max_atoms: int = 8,
    max_rules: int = 12,
    denial_rate: float = 0.2,
) -> Program:
    """Positive bodies only point at lower-indexed atoms, so the positive
    dependency graph is acyclic by construction."""
    pool = _pool(rng.randint(1, max_atoms))
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        if rng.random() < denial_rate:
            head, below = None, pool
        else:
            i = rng.randrange(len(pool))
            head, below = pool[i], pool[:i]
        rules.append(
            Rule(
                head,
                _some(rng, below, 2),
                _some(rng, pool, 2),
                _some(rng, pool, 1),
            )
        )
    return Program(tuple(rules))


def random_constraint(rng: random.Random, n_vars: int = 2, bound: int = 8) -> LinearConstraint:
    var_pool = ["x", "y", "z"][:n_vars]
    chosen = rng.sample(var_pool, rng.randint(1, n_vars))
    coeffs = {v: Fraction(rng.choice([-2, -1, 1, 2])) for v in chosen}
    rel = rng.choice(list(Rel))
    return LinearConstraint(LinExpr.of(coeffs), rel, Fraction(rng.randint(-bound, bound)))


def random_cas_program(
    rng: random.Random,
    max_atoms: int = 8,
    max_rules: int = 10,
    n_vars: int = 2,
    max_constraints: int = 3,
    tight: bool = False,
) -> Program:
    """Regular program sprinkled with constraint atoms in body positions."""
    base = (random_tight_program if tight else random_program)(
        rng, max_atoms, max_rules
    )
    irregulars = [
        constraint_atom(random_constraint(rng, n_vars))
        for _ in range(rng.randint(1, max_constraints))
    ]
    rules = []
    for r in base.rules:
        pos, neg, dneg = set(r.pos), set(r.neg), set(r.dneg)
        for a in irregulars:
            slot = rng.random()
            if slot < 0.25:
                pos.add(a)
            elif slot < 0.4:
                neg.add(a)
            elif slot < 0.5:
                dneg.add(a)
        rules.append(Rule(r.head, frozenset(pos), frozenset(neg), frozenset(dneg)))
    return Program(tuple(rules))


def random_subset(rng: random.Random, items) -> frozenset:
    return frozenset(a for a in items if rng.random() < 0.5)
