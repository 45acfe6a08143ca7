"""The unfounded-loop-breaking ranking formula.

A level ranking witnesses non-circular support: every true atom must have a
satisfied body whose positive (non-input) atoms rank strictly lower. The
formula states that some ranking exists, with fresh difference-constraint
atoms over integer rank variables, one per ordered atom pair; no ranking is
checked or searched for here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Optional, Tuple

from .completion import body_formula
from .errors import RankVarForIrregular
from .formula import Atom, PropFormula, conj, disj, implies, unique_name
from .lincon import LinearConstraint, LinExpr, Rel, constraint_variables
from .program import AtomId, Program, constraint_atom, require_heads_outside_input

RANK_PREFIX = "__lr_"


def fresh_rank_var(a: AtomId, used: Optional[set[str]] = None) -> str:
    """Deterministic integer-variable name for an atom's rank. A collision
    after sanitization gets a numeric suffix in first-use order."""
    if a.constraint is not None:
        raise RankVarForIrregular(f"{a.name} is never ranked")
    name = RANK_PREFIX + re.sub(r"[^A-Za-z0-9_]", "_", a.name)
    return name if used is None else unique_name(name, used)


@dataclass(frozen=True)
class RankingFormula:
    """Conjunction of per-atom support implications, plus the fresh ranking
    atoms (sorted by name, each carrying its difference constraint) and the
    integer rank variables they live on."""

    formula: PropFormula
    ranking_atoms: Tuple[AtomId, ...]
    rank_vars: frozenset[str]


def build_ranking_formula(p: Program, iota: AbstractSet[AtomId]) -> RankingFormula:
    """For each atom, require some satisfied body whose positive non-input
    atoms rank strictly lower, phrased with one fresh constraint atom per
    ordered atom pair.

    Atoms whose bodies all have an empty positive non-input part are
    skipped: their implications would repeat the completion's support
    formula.
    """
    require_heads_outside_input(p, iota)
    var_names: dict[AtomId, str] = {}
    # rank variables take none of the program's constraint variables
    used = set(constraint_variables(a.constraint for a in p.irregular_atoms))
    pair_atoms: dict[tuple[AtomId, AtomId], AtomId] = {}

    def rank_var(a: AtomId) -> str:
        if a not in var_names:
            var_names[a] = fresh_rank_var(a, used)
        return var_names[a]

    def rank_atom(a: AtomId, b: AtomId) -> AtomId:
        if (a, b) not in pair_atoms:
            expr = LinExpr(
                ((rank_var(a), Fraction(1)), (rank_var(b), Fraction(-1)))
            )
            c = LinearConstraint(expr, Rel.GE, Fraction(1))
            pair_atoms[(a, b)] = constraint_atom(c)
        return pair_atoms[(a, b)]

    conjuncts: list[PropFormula] = []
    for a in sorted(p.atoms):
        if a in iota:
            continue
        bodies = p.rules_by_head.get(a, ())
        recursive = [r for r in bodies if r.pos - iota]
        flat = [r for r in bodies if not (r.pos - iota)]
        if not recursive:
            continue
        choices: list[PropFormula] = []
        for r in recursive:
            if a in r.pos - iota:
                # a positive self-loop can never witness support: the pair
                # constraint would be the contradictory lr - 1 >= lr
                continue
            choices.append(
                conj(
                    [body_formula(r)]
                    + [Atom(rank_atom(a, b)) for b in sorted(r.pos - iota)]
                )
            )
        choices += [body_formula(r) for r in flat]
        conjuncts.append(implies(Atom(a), disj(choices)))

    return RankingFormula(
        formula=conj(conjuncts),
        ranking_atoms=tuple(sorted(pair_atoms.values())),
        rank_vars=frozenset(var_names.values()),
    )
