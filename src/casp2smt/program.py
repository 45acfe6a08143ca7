"""Ground-program representation and exact stable-model semantics.

An irregular atom carries its constraint and is named by the constraint's
canonical text, so the atoms of a program alone fix the paper's injective
map from irregular atoms to constraints.

This module is the semantics oracle of the package: answer sets are computed
directly from the definition (reduct plus least fixpoint of the positive
remainder). Only the atoms the reduct and the input facts read are guessed:
the input atoms and the atoms under ``not`` or ``not not``. A guess fixes
the reduct and the facts, so its least model, when it agrees with the
guess, is an answer set with no second check. Exhaustive enumeration of the
guesses is capped at :data:`ORACLE_CAP` guessed atoms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import AbstractSet, Iterable, Iterator, Optional, Tuple

from .errors import HeadsIntersectInput, OracleCapExceeded
from .lincon import LinearConstraint, render_constraint

ORACLE_CAP = 22


@dataclass(frozen=True)
class AtomId:
    """A propositional atom. An irregular atom stands proxy for the
    constraint it carries; a regular atom carries none.

    Equality and hashing go by name alone: the name of an irregular atom is
    a function of its constraint, and comparing constraints would slow every
    set operation of the oracle."""

    name: str
    constraint: Optional[LinearConstraint] = field(default=None, compare=False)

    def __hash__(self) -> int:
        return hash(self.name)

    def __lt__(self, other: "AtomId") -> bool:
        return self.name < other.name

    def __repr__(self) -> str:
        return self.name


def atom(name: str) -> AtomId:
    """Atom of a name; a name in bars is parsed as a constraint and gives
    that constraint's atom, so ``|2*x < 24|`` and ``|x<12|`` are one atom."""
    if name.startswith("|"):
        from .parser import parse_constraint

        return constraint_atom(parse_constraint(name[1:-1]))
    return AtomId(name)


def constraint_atom(c: LinearConstraint) -> AtomId:
    """The irregular atom of a constraint, named by its canonical text."""
    return AtomId(f"|{render_constraint(c)}|", c)


@dataclass(frozen=True)
class Rule:
    """head <- pos, not neg, not not dneg.  A ``None`` head is the empty head."""

    head: Optional[AtomId]
    pos: frozenset[AtomId]
    neg: frozenset[AtomId]
    dneg: frozenset[AtomId]

    def body_holds(self, x: AbstractSet[AtomId]) -> bool:
        """Double negation collapses, so the body holds iff pos and dneg are
        in x and neg is out."""
        return self.pos <= x and not (self.neg & x) and self.dneg <= x


@dataclass(frozen=True)
class Program:
    """Immutable ground program. Its irregular atoms carry their constraints,
    so the rules alone make a constraint answer set program."""

    rules: Tuple[Rule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @cached_property
    def atoms(self) -> Tuple[AtomId, ...]:
        """Atoms occurring in the rules, in first-occurrence order (head,
        then positive, negative, double-negated parts, each sorted)."""
        seen: dict[AtomId, None] = {}
        for r in self.rules:
            if r.head is not None:
                seen.setdefault(r.head)
            for part in (r.pos, r.neg, r.dneg):
                for a in sorted(part):
                    seen.setdefault(a)
        return tuple(seen)

    @cached_property
    def rules_by_head(self) -> dict[AtomId, Tuple[Rule, ...]]:
        """Rules of each nonempty head, in rule order; denials are left out."""
        index: dict[AtomId, list[Rule]] = {}
        for r in self.rules:
            if r.head is not None:
                index.setdefault(r.head, []).append(r)
        return {a: tuple(rs) for a, rs in index.items()}

    @cached_property
    def irregular_atoms(self) -> frozenset[AtomId]:
        """The atoms that carry a constraint."""
        return frozenset(a for a in self.atoms if a.constraint is not None)


def heads(p: Program) -> frozenset[AtomId]:
    """All nonempty heads."""
    return frozenset(p.rules_by_head)


def require_heads_outside_input(p: Program, iota: AbstractSet[AtomId]) -> None:
    """Input atoms are never defined by the program: raise
    :class:`HeadsIntersectInput` when a rule head is also an input atom."""
    clash = heads(p) & iota
    if clash:
        raise HeadsIntersectInput(
            f"head atoms also appear in the input vocabulary: "
            f"{sorted(a.name for a in clash)}"
        )


def _reduct_model(
    p: Program, x: AbstractSet[AtomId], iota: AbstractSet[AtomId]
) -> tuple[frozenset[AtomId], bool]:
    """Least model of the reduct of p by x, with x's input atoms as facts,
    and whether a denial of the reduct fires in it."""
    pairs = [(r.head, r.pos) for r in p.rules if not (r.neg & x) and r.dneg <= x]
    derived = set(x & iota)
    bottom = False
    changed = True
    while changed:
        changed = False
        for head, pos in pairs:
            if pos <= derived:
                if head is None:
                    bottom = True
                elif head not in derived:
                    derived.add(head)
                    changed = True
    return frozenset(derived), bottom


def is_input_answer_set(
    p: Program, x: AbstractSet[AtomId], iota: AbstractSet[AtomId] = frozenset()
) -> bool:
    """x is an input answer set iff, with x's input part added back as facts,
    it equals the least model of the reduct and no denial of the reduct
    fires. With no input atoms this is the plain answer-set test."""
    fixpoint, bottom = _reduct_model(p, x, iota)
    return not bottom and fixpoint == frozenset(x)


def subsets(names: Iterable[AtomId]) -> Iterator[frozenset[AtomId]]:
    """Every subset of the guessed atoms ``names``, in lexicographic order of
    bit vectors over the sorted names; more than :data:`ORACLE_CAP` guessed
    atoms raise :class:`OracleCapExceeded`."""
    ordered = sorted(set(names))
    if len(ordered) > ORACLE_CAP:
        raise OracleCapExceeded(len(ordered), ORACLE_CAP)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield frozenset(a for a, b in zip(ordered, bits) if b)


def input_answer_sets(
    p: Program, iota: AbstractSet[AtomId] = frozenset()
) -> list[frozenset[AtomId]]:
    """All x over the program's atoms that are answer sets once x's input
    part is added back as facts, in lexicographic order of atom-name bit
    vectors. With no input atoms these are the plain answer sets.

    The reduct reads x only through the atoms under ``not`` or ``not not``,
    and the facts only through x's input atoms; call these the guessed atoms
    G. When x agrees with a guess g on G, the reduct by x is the reduct by g
    and x's input atoms are g's, so both have one least model. Each guess g
    is therefore kept when its least model x has no firing denial and
    agrees with g on G: then x is the least model of its own reduct, which
    is what :func:`is_input_answer_set` would check again. Every input
    answer set x is found this way, from the guess x & G."""
    require_heads_outside_input(p, iota)
    guessed = {a for a in p.atoms if a in iota}
    guessed.update(a for r in p.rules for a in r.neg | r.dneg)
    found = []
    for g in subsets(guessed):
        x, bottom = _reduct_model(p, g, iota)
        if not bottom and x & guessed == g:
            found.append(x)
    order = sorted(p.atoms)
    return sorted(found, key=lambda x: [a in x for a in order])


def is_tight(p: Program) -> bool:
    """True iff the positive dependency graph, with an edge from each
    nonempty head to every positive atom of its bodies, is acyclic."""
    graph = {a: {b for r in rules for b in r.pos} for a, rules in p.rules_by_head.items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return False
    return True
