"""Ground-program representation and exact stable-model semantics.

This module is the semantics oracle of the package: answer sets are computed
directly from the definition (reduct plus least fixpoint of the positive
remainder), with exhaustive candidate enumeration capped at
:data:`ORACLE_CAP` atoms.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Tuple

from .errors import HeadsIntersectInput, MissingGamma, OracleCapExceeded
from .lincon import LinearConstraint

ORACLE_CAP = 22


class AtomKind(enum.Enum):
    REGULAR = "regular"
    IRREGULAR = "irregular"


@dataclass(frozen=True)
class AtomId:
    """A propositional atom; irregular atoms stand proxy for constraints."""

    name: str
    kind: AtomKind

    def __hash__(self) -> int:
        # equal atoms have equal names; hashing the kind as well would go
        # through the Python-level Enum.__hash__ on every set or dict lookup
        return hash(self.name)

    def __lt__(self, other: "AtomId") -> bool:
        return self.name < other.name

    def __repr__(self) -> str:
        return self.name


def atom(name: str) -> AtomId:
    """Atom with its kind read off the name (bars mark irregular atoms)."""
    kind = AtomKind.IRREGULAR if name.startswith("|") else AtomKind.REGULAR
    return AtomId(name, kind)


@dataclass(frozen=True)
class Rule:
    """head <- pos, not neg, not not dneg.  A ``None`` head is the empty head."""

    head: Optional[AtomId]
    pos: frozenset[AtomId]
    neg: frozenset[AtomId]
    dneg: frozenset[AtomId]

    @property
    def is_fact(self) -> bool:
        return self.head is not None and not (self.pos or self.neg or self.dneg)

    def body_holds(self, x: AbstractSet[AtomId]) -> bool:
        """Double negation collapses, so the body holds iff pos and dneg are
        in x and neg is out."""
        return self.pos <= x and not (self.neg & x) and self.dneg <= x


def rule(
    head: Optional[AtomId],
    pos: Iterable[AtomId] = (),
    neg: Iterable[AtomId] = (),
    dneg: Iterable[AtomId] = (),
) -> Rule:
    return Rule(head, frozenset(pos), frozenset(neg), frozenset(dneg))


@dataclass(frozen=True)
class Program:
    """Immutable ground program plus the constraint mapping of its irregular
    atoms. The mapping is injective on normalized constraints."""

    rules: Tuple[Rule, ...]
    gamma: Tuple[Tuple[AtomId, LinearConstraint], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        pairs = self.gamma.items() if isinstance(self.gamma, Mapping) else self.gamma
        items = tuple(sorted(pairs, key=lambda kv: kv[0].name))
        object.__setattr__(self, "gamma", items)
        images = [c.normalized() for _, c in items]
        if len(set(images)) != len(images):
            raise ValueError("gamma must be injective on normalized constraints")
        known = {a for a, _ in items}
        for a in self.atoms:
            if a.kind is AtomKind.IRREGULAR and a not in known:
                raise MissingGamma(a.name)

    @cached_property
    def gamma_map(self) -> dict[AtomId, LinearConstraint]:
        return dict(self.gamma)

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
        return frozenset(a for a, _ in self.gamma)

    def constraint_of(self, a: AtomId) -> LinearConstraint:
        try:
            return self.gamma_map[a]
        except KeyError:
            raise MissingGamma(a.name) from None


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


def satisfies_rule(x: AbstractSet[AtomId], r: Rule) -> bool:
    """Classical satisfaction of the rule as an implication."""
    return not r.body_holds(x) or (r.head is not None and r.head in x)


def reduct(p: Program, x: AbstractSet[AtomId]) -> Program:
    """Drop rules whose negative body part x falsifies; survivors keep head
    and positive body only."""
    kept = tuple(
        Rule(r.head, r.pos, frozenset(), frozenset())
        for r in p.rules
        if not (r.neg & x) and r.dneg <= x
    )
    return Program(kept, p.gamma)


def _reduct_pairs(
    rules: Iterable[Rule], x: AbstractSet[AtomId]
) -> list[tuple[Optional[AtomId], frozenset[AtomId]]]:
    return [
        (r.head, r.pos) for r in rules if not (r.neg & x) and r.dneg <= x
    ]


def _least_model(
    pairs: Iterable[tuple[Optional[AtomId], frozenset[AtomId]]]
) -> tuple[frozenset[AtomId], bool]:
    """Least fixpoint of the one-step operator of a positive program.

    Returns the fixpoint and whether a denial fired along the way.
    """
    pairs = list(pairs)
    derived: set[AtomId] = set()
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
    pairs = _reduct_pairs(p.rules, x) + [(a, frozenset()) for a in x & iota]
    fixpoint, bottom = _least_model(pairs)
    return not bottom and fixpoint == frozenset(x)


def is_answer_set(p: Program, x: AbstractSet[AtomId]) -> bool:
    """x is an answer set iff it is an input answer set over no input atoms."""
    return is_input_answer_set(p, x)


def subsets(names: Iterable[AtomId], cap: int) -> Iterator[frozenset[AtomId]]:
    """Every subset of the names, in lexicographic order of bit vectors over
    the sorted names; more than cap names raise :class:`OracleCapExceeded`."""
    ordered = sorted(set(names))
    if len(ordered) > cap:
        raise OracleCapExceeded(len(ordered), cap)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield frozenset(a for a, b in zip(ordered, bits) if b)


def enumerate_answer_sets(p: Program, cap: int = ORACLE_CAP) -> list[frozenset[AtomId]]:
    """All answer sets, in lexicographic order of atom-name bit vectors."""
    return [x for x in subsets(p.atoms, cap) if is_answer_set(p, x)]


def with_facts(p: Program, xs: Iterable[AtomId]) -> Program:
    return Program(p.rules + tuple(rule(a) for a in sorted(xs)), p.gamma)


def input_answer_sets(
    p: Program, iota: AbstractSet[AtomId], cap: int = ORACLE_CAP
) -> list[frozenset[AtomId]]:
    """All x over the program's atoms that are answer sets once x's input
    part is added back as facts."""
    require_heads_outside_input(p, iota)
    return [x for x in subsets(p.atoms, cap) if is_input_answer_set(p, x, iota)]


@dataclass(frozen=True)
class DependencyGraph:
    vertices: frozenset[AtomId]
    edges: frozenset[tuple[AtomId, AtomId]]


def dependency_graph(p: Program) -> DependencyGraph:
    """Edges run from each nonempty head to the positive atoms of its body."""
    edges = {
        (r.head, b) for r in p.rules if r.head is not None for b in r.pos
    }
    return DependencyGraph(frozenset(p.atoms), frozenset(edges))


def is_tight(p: Program) -> bool:
    """True iff the positive dependency graph is acyclic."""
    graph = dependency_graph(p)
    succ: dict[AtomId, list[AtomId]] = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        succ[a].append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {v: WHITE for v in graph.vertices}
    for start in graph.vertices:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[AtomId, Iterable[AtomId]]] = [(start, iter(succ[start]))]
        colour[start] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if colour[child] == GREY:
                    return False
                if colour[child] == WHITE:
                    colour[child] = GREY
                    stack.append((child, iter(succ[child])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return True
