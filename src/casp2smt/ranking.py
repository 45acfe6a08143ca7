"""Level rankings and the unfounded-loop-breaking ranking formula.

A level ranking witnesses non-circular support: every true atom must have a
satisfied body whose positive (non-input) atoms rank strictly lower. The
ranking formula expresses the same condition with fresh difference-constraint
atoms over integer rank variables, one per ordered atom pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping, Optional, Tuple

from .completion import body_formula
from .errors import PartialRanking, RankVarForIrregular
from .formula import Atom, PropFormula, conj, disj, implies, unique_name
from .lincon import LinearConstraint, LinExpr, Rel
from .program import AtomId, Program, constraint_atom, require_heads_outside_input

RANK_PREFIX = "__lr_"

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


def build_ranking_formula(
    p: Program,
    iota: AbstractSet[AtomId],
    full: bool = False,
) -> RankingFormula:
    """For each atom, require some satisfied body whose positive non-input
    atoms rank strictly lower, phrased with one fresh constraint atom per
    ordered atom pair.

    By default atoms whose bodies all have an empty positive non-input part
    are skipped; their implications repeat the completion's support formula.
    With ``full=True`` every non-input atom gets its implication.
    """
    require_heads_outside_input(p, iota)
    var_names: dict[AtomId, str] = {}
    used: set[str] = set()
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
        if not recursive and not full:
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
