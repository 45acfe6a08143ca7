"""Seeded input generators for the benchmark's four workloads.

Every generator takes a ``random.Random`` built from the run's seed and
returns program text for ``casp2smt`` together with a
:class:`reference.RefProgram` of the same program for the checker. Nothing
here imports the package under test or its test helpers, so the workloads
stay fixed while either changes.

Seeds change constants, names and rule bodies, never the amount of work: the
sizes, rule counts and answer counts below are fixed, so that runs with
different seeds take the same time. Where a random family does not fix its
answer count by construction, the generator draws again until the checker
counts the wanted number.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from reference import Constraint, RefProgram, RefRule, answer_sets, is_tight

# --- rendering -----------------------------------------------------------------


def _atom_text(a) -> str:
    return f"|{a.text()}|" if isinstance(a, Constraint) else a


def render(p: RefProgram) -> str:
    """Program text in the input syntax of ``casp2smt``."""
    lines = []
    for r in p.rules:
        body = [_atom_text(a) for a in r.pos]
        body += [f"not {_atom_text(a)}" for a in r.neg]
        body += [f"not not {_atom_text(a)}" for a in r.dneg]
        head = "" if r.head is None else _atom_text(r.head)
        lines.append(f"{head + ' ' if head else ''}:- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


# --- ring_encode ---------------------------------------------------------------

RING_SIZES = (4, 50, 100, 200, 300)


@dataclass
class Ring:
    """Reachability from node 0 on a ring of n nodes. Successor edges are
    choices, chords to the opposite node are facts, and each node has one
    constraint atom that holds exactly when the node is reached."""

    n: int
    thresholds: tuple[int, ...]

    def succ(self, i: int) -> int:
        return (i + 1) % self.n

    def chord(self, i: int) -> int:
        return (i + self.n // 2) % self.n

    def edges(self) -> list[tuple[int, int]]:
        return [(i, self.succ(i)) for i in range(self.n)] + [
            (i, self.chord(i)) for i in range(self.n)
        ]

    def level(self, i: int) -> Constraint:
        return Constraint.make({f"x_{i}": Fraction(1)}, ">=", Fraction(self.thresholds[i]))

    def program(self) -> RefProgram:
        rules = [RefRule("r_0")]
        for i in range(self.n):
            rules.append(RefRule(f"e_{i}_{self.succ(i)}", dneg=(f"e_{i}_{self.succ(i)}",)))
            rules.append(RefRule(f"e_{i}_{self.chord(i)}"))
        for i, j in self.edges():
            rules.append(RefRule(f"r_{j}", pos=(f"r_{i}", f"e_{i}_{j}")))
        for i in range(self.n):
            rules.append(RefRule(None, pos=(f"r_{i}",), neg=(self.level(i),)))
            rules.append(RefRule(None, pos=(self.level(i),), neg=(f"r_{i}",)))
        return RefProgram(rules, box=(-1, 10))

    def distances(self, chosen: frozenset) -> dict[int, int]:
        """Breadth-first distance from node 0 over the edges in ``chosen``."""
        dist = {0: 0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for a, b in self.edges():
                if a == i and f"e_{a}_{b}" in chosen and b not in dist:
                    dist[b] = dist[i] + 1
                    queue.append(b)
        return dist

    def planted(self, regular: frozenset, levels: Optional[frozenset] = None) -> tuple[frozenset, dict[str, object]]:
        """The candidate set for a choice of regular atoms and of the nodes
        whose constraint atom holds (by default the reached ones), and the
        script values for it: each constraint variable sits on or just
        below its threshold, and each rank variable holds the node's
        distance from node 0."""
        dist = self.distances(regular)
        values: dict[str, object] = {}
        atoms = set(regular)
        for i in range(self.n):
            holds = f"r_{i}" in regular if levels is None else i in levels
            values[f"x_{i}"] = Fraction(self.thresholds[i] - (0 if holds else 1))
            if holds:
                atoms.add(self.level(i))
            values[f"rank:r_{i}"] = Fraction(dist.get(i, 0))
        return frozenset(atoms), values


def ring(rng: random.Random, n: int) -> Ring:
    return Ring(n, tuple(rng.randint(0, 9) for _ in range(n)))


# --- random_enumerate ------------------------------------------------------------

RANDOM_PROGRAMS = 10  # half tight, half not
RANDOM_ANSWERS = 3  # answer sets per program
RANDOM_BOX = (-4, 4)
_RELS = ("<", "<=", ">", ">=")


def _random_constraint(rng: random.Random, variables: tuple[str, ...]) -> Constraint:
    chosen = rng.sample(variables, rng.randint(1, len(variables)))
    coeffs = {v: Fraction(rng.choice((-2, -1, 1, 2))) for v in chosen}
    return Constraint.make(coeffs, rng.choice(_RELS), Fraction(rng.randint(-5, 5)))


def _random_rules(
    rng: random.Random,
    names: list[str],
    constraints: list[Constraint],
    tight: bool,
) -> list[RefRule]:
    """One denial and six rules with random heads, each with one atom under
    ``not`` and one under ``not not``; each constraint atom goes into two
    random rules. In a tight program a positive body holds up to two
    lower-numbered atoms; a non-tight program has no regular atom in a
    positive body except in two extra rules that form a positive cycle."""
    heads = [None] + [rng.randrange(len(names)) for _ in range(6)]
    bodies = []
    for h in heads:
        below = names[:h] if tight and h is not None else []
        bodies.append((rng.sample(below, min(2, len(below))), rng.sample(names, 1), rng.sample(names, 1)))
    for c in constraints:
        for i in rng.sample(range(len(heads)), 2):
            rng.choice(bodies[i]).append(c)
    rules = [
        RefRule(None if h is None else names[h], tuple(pos), tuple(neg), tuple(dneg))
        for h, (pos, neg, dneg) in zip(heads, bodies)
    ]
    if not tight:
        a, b, c = rng.sample(names, 3)
        rules.append(RefRule(a, (b,), (c,)))
        rules.append(RefRule(b, (a,)))
    return rules


RANDOM_POOL = 40  # candidates drawn for each half, so set-up work does not depend on the seed


def _random_candidate(rng: random.Random, tight: bool) -> RefProgram:
    names = [f"a{i}" for i in range(5)]
    constraints: list[Constraint] = []
    while len(constraints) < 2:
        c = _random_constraint(rng, ("x", "y"))
        if c not in constraints:
            constraints.append(c)
    return RefProgram(_random_rules(rng, names, constraints, tight), box=RANDOM_BOX)


def _random_fits(p: RefProgram, tight: bool) -> bool:
    return len(p.constraints) == 2 and is_tight(p) == tight and len(answer_sets(p)) == RANDOM_ANSWERS


def random_programs(rng: random.Random) -> list[RefProgram]:
    """Five tight and five non-tight programs with five regular atoms and
    two constraint atoms over x and y, each with exactly
    :data:`RANDOM_ANSWERS` answer sets in the box. For each half the
    generator checks a fixed pool of candidates and draws more only when
    the pool has too few that fit.

    The positive cycle of a non-tight program has two atoms, so its ranking
    formula compares two rank variables only. The bundled reference solver
    searches integer rank values one by one and does not finish in time on
    larger rank systems; see ``README.md``."""
    half = RANDOM_PROGRAMS // 2
    picked = {}
    for tight in (True, False):
        pool = [_random_candidate(rng, tight) for _ in range(RANDOM_POOL)]
        fitting = [p for p in pool if _random_fits(p, tight)]
        while len(fitting) < half:
            p = _random_candidate(rng, tight)
            if _random_fits(p, tight):
                fitting.append(p)
        picked[tight] = fitting[:half]
    return [picked[i % 2 == 0][i // 2] for i in range(RANDOM_PROGRAMS)]


# --- hours_extended ----------------------------------------------------------------

HOURS_ANSWERS = (7, 8, 9, 10)  # extended answers of each variant


def hours_program(rng: random.Random, answers: int) -> RefProgram:
    """The paper's program PI1 with the variable, the threshold, the window
    and the box drawn from the seed. Its extended answers are the values
    from the threshold to the top of the window, ``answers`` of them."""
    var = rng.choice(("x", "h", "t", "m"))
    t = rng.randint(-5, 20)
    lo, hi = t - rng.randint(1, 6), t + answers - 1
    box = (lo - rng.randint(0, 3), hi + rng.randint(0, 3))

    def c(rel: str, k: int) -> Constraint:
        return Constraint.make({var: Fraction(1)}, rel, Fraction(k))

    rules = [
        RefRule("switch", dneg=("switch",)),
        RefRule("lightOn", pos=("switch",), neg=("am",)),
        RefRule(None, neg=("lightOn",)),
        RefRule("am", dneg=("am",)),
        RefRule(None, pos=(c("<", t),), neg=("am",)),
        RefRule(None, pos=("am", c(">=", t))),
        RefRule(None, pos=(c("<", lo),)),
        RefRule(None, pos=(c(">", hi),)),
    ]
    return RefProgram(rules, box=box)


def hours_programs(rng: random.Random) -> list[RefProgram]:
    return [hours_program(rng, k) for k in HOURS_ANSWERS]


# --- oracle_random ---------------------------------------------------------------

ORACLE_PROGRAMS = 4
ORACLE_PARTS = 2  # disjoint parts per program, seven atoms each
ORACLE_PART_ANSWERS = 8
ORACLE_BOX = (-4, 4)


def _oracle_part_draw(rng: random.Random, k: int) -> RefProgram:
    chosen = [f"c{k}_{i}" for i in range(3)]
    derived = [f"d{k}_{i}" for i in range(3)]
    level = Constraint.make(
        {f"z{k}": Fraction(rng.choice((1, 2)))}, rng.choice(_RELS), Fraction(rng.randint(-3, 3))
    )
    rules = [RefRule(a, dneg=(a,)) for a in chosen]
    for i, j in enumerate([0, 1, 2, rng.randrange(3)]):
        pos = rng.sample(chosen + derived[:j], 2)
        rules.append(RefRule(derived[j], tuple(pos) + ((level,) if i == 0 else ())))
    for i in range(4):
        neg = rng.sample(chosen, 1) + ([level] if i == 0 else [])
        rules.append(RefRule(None, tuple(rng.sample(chosen + derived, 1)), tuple(neg)))
    return RefProgram(rules, box=ORACLE_BOX)


def _oracle_part(rng: random.Random, k: int) -> list[RefRule]:
    """Three choice atoms, three atoms derived from them (each from the
    choice atoms and the derived atoms before it, so the part is tight) and
    one constraint atom over the part's own variable, with exactly
    :data:`ORACLE_PART_ANSWERS` answer sets on its own."""
    while True:
        part = _oracle_part_draw(rng, k)
        if len(part.atoms) == 7 and len(answer_sets(part)) == ORACLE_PART_ANSWERS:
            return part.rules


def oracle_program(rng: random.Random) -> RefProgram:
    """Fourteen atoms in two parts with no atom or variable in common, so
    the program has ``ORACLE_PART_ANSWERS ** ORACLE_PARTS`` answer sets."""
    rules: list[RefRule] = []
    for k in range(ORACLE_PARTS):
        rules += _oracle_part(rng, k)
    return RefProgram(rules, box=ORACLE_BOX)


def oracle_programs(rng: random.Random) -> list[RefProgram]:
    return [oracle_program(rng) for _ in range(ORACLE_PROGRAMS)]
