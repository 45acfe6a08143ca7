"""The benchmark's workloads as operations on the public API of ``casp2smt``.

Each case builds its inputs from the seed, lists the operations of one round
and checks what they return against :mod:`reference`. An operation is one
call of ``casp2smt.solve`` (for ``ring_encode``, ``casp2smt.parse_program``
followed by ``casp2smt.solve``); the package's functions are looked up on the
package at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import statistics
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import casp2smt
import reference as ref
import workloads as wl

# names the encoding gives the integer rank variable of an atom
RANK_PREFIX = "__lr_"


@dataclass
class Op:
    """One timed call. ``kind`` is ``first`` for a default solve that stops
    at the first answer and ``all`` for one that enumerates every answer;
    ``check`` returns a description of what is wrong with the result, or
    None when it is right."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _key(result) -> frozenset:
    return ref.answer_key(a.name for a in result.atoms)


def _status(report) -> str:
    return report.status.value


class Case:
    name = ""

    def __init__(self, seed: int, out_dir: Path, solver_cmd: str, stub_cmd: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out_dir = out_dir
        self.solver_cmd = solver_cmd
        self.stub_cmd = stub_cmd

    def build(self) -> None:
        """Make the inputs: the part of the set-up that ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Work out the reference answers; not part of ``setup_s``."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def final_check(self) -> tuple[list[str], Optional[float]]:
        """Checks that run once after the timed rounds. Returns problems and,
        where the workload has no enumerate-all operation in its rounds, the
        answers per second of the enumeration the check makes."""
        return [], None

    def script_bytes(self) -> int:
        """Bytes of the first SMT-LIB script of each program, summed."""
        raise NotImplementedError


class RingEncode(Case):
    """Compile the ring family at every size to SMT-LIB; the stub solver
    answers ``unknown``, so no solving happens in the timed operations."""

    name = "ring_encode"

    def build(self) -> None:
        self.rings = [wl.ring(self.rng, n) for n in wl.RING_SIZES]
        self.texts = [wl.render(r.program()) for r in self.rings]

    def prepare(self) -> None:
        self.digests: dict[int, str] = {}

    def _path(self, n: int) -> Path:
        return self.out_dir / f"ring-{n}.smt2"

    def ops(self) -> list[Op]:
        ops = []
        for ring, text in zip(self.rings, self.texts):
            path = self._path(ring.n)

            def call(text=text, path=path):
                program = casp2smt.parse_program(text)
                return casp2smt.solve(program, casp2smt.SolveConfig(solver_cmd=self.stub_cmd, emit_path=path))

            def check(report, n=ring.n, path=path):
                if _status(report) != "unknown" or report.results or report.tight:
                    return f"n={n}: expected a non-tight UNKNOWN report, got {_status(report)}"
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if self.digests.setdefault(n, digest) != digest:
                    return f"n={n}: the script differs from the first round's"
                return None

            ops.append(Op("first", f"n={ring.n}", call, check))
        return ops

    def check_candidate(self, script: ref.SmtLibScript, ring: wl.Ring, regular: frozenset, values: dict) -> bool:
        """Plant a choice of the ring's regular atoms and the numeric values
        from :meth:`wl.Ring.planted`, fill in the rest by propagation and
        report whether every assertion holds. A script the planted values
        cannot be completed on (an unknown numeric symbol, or symbols that
        propagation leaves open) counts as violated."""
        names = {a for a in ring.program().atoms if isinstance(a, str)}
        planted: dict[str, object] = {}
        for symbol, sort in script.sorts.items():
            if sort == "Bool":
                if symbol in names:
                    planted[symbol] = symbol in regular
            elif symbol in values:
                planted[symbol] = values[symbol]
            elif symbol.startswith(RANK_PREFIX):
                planted[symbol] = values.get(f"rank:{symbol[len(RANK_PREFIX):]}", Fraction(0))
            else:
                return False
        try:
            return not script.violated(script.complete(planted))
        except ValueError:
            return False

    def final_check(self) -> tuple[list[str], Optional[float]]:
        problems = []
        for ring in self.rings:
            regular = frozenset(a for a in ring.program().atoms if isinstance(a, str))
            script = ref.SmtLibScript(self._path(ring.n).read_text())
            if not self.check_candidate(script, ring, regular, ring.planted(regular)[1]):
                problems.append(f"n={ring.n}: the planted answer set violates the script")
        small = self.rings[0]
        problems += self.candidate_problems(small)
        answers, rate = self.enumerate_smallest(small)
        problems += answers
        return problems, rate

    def candidate_problems(self, ring: wl.Ring) -> list[str]:
        """Try every choice of the ring's non-fact regular atoms and of its
        constraint atoms. A candidate that is an answer set must satisfy the
        script with its own distances as ranks; one that is not even a
        supported model must violate it whatever the ranks."""
        p = ring.program()
        script = ref.SmtLibScript(self._path(ring.n).read_text())
        facts = {r.head for r in p.rules if not (r.pos or r.neg or r.dneg)}
        free = sorted(a for a in p.atoms if isinstance(a, str) and a not in facts)
        problems = []
        for bits in itertools.product((False, True), repeat=len(free) + ring.n):
            regular = frozenset(facts) | {a for a, on in zip(free, bits) if on}
            levels = frozenset(i for i, on in enumerate(bits[len(free):]) if on)
            candidate, values = ring.planted(regular, levels)
            accepted = self.check_candidate(script, ring, regular, values)
            if ref.is_input_answer_set(p, candidate) and not accepted:
                problems.append(f"n={ring.n}: answer set {sorted(map(str, candidate))} is rejected by the script")
            if not ref.is_supported_model(p, candidate) and accepted:
                problems.append(f"n={ring.n}: unsupported {sorted(map(str, candidate))} satisfies the script")
        return problems

    def enumerate_smallest(self, ring: wl.Ring, repeats: int = 5) -> tuple[list[str], float]:
        """Enumerate the smallest ring through the bundled solver and compare
        with the brute-force answer sets, ``repeats`` times; returns the
        median answers per second. The enumeration asks for as many answers
        as brute force finds: the solver cannot prove that no further
        answer exists (see ``README.md``)."""
        p = ring.program()
        expected = ref.answer_sets(p)
        program = casp2smt.parse_program(wl.render(p))
        cfg = casp2smt.SolveConfig(solver_cmd=self.solver_cmd, enumerate=len(expected))
        rates = []
        for _ in range(repeats):
            start = time.perf_counter()
            report = casp2smt.solve(program, cfg)
            rates.append(len(report.results) / (time.perf_counter() - start))
            got = [_key(r) for r in report.results]
            if len(set(got)) != len(got) or set(got) != expected:
                return [f"n={ring.n}: {len(set(got))} solver answers differ from {len(expected)} brute-force ones"], 0.0
        return [], statistics.median(rates)

    def script_bytes(self) -> int:
        return sum(self._path(ring.n).stat().st_size for ring in self.rings)


class _ProgramCase(Case):
    """Workloads that solve each program once to its first answer and once
    to all of them."""

    def _generate(self) -> list[ref.RefProgram]:
        raise NotImplementedError

    def build(self) -> None:
        self.refs = self._generate()
        self.programs = [casp2smt.parse_program(wl.render(p)) for p in self.refs]

    def config(self, p: ref.RefProgram, enumerate: int):
        raise NotImplementedError

    def ops(self) -> list[Op]:
        ops = []
        for i, (program, p) in enumerate(zip(self.programs, self.refs)):
            for kind, limit in (("first", 1), ("all", 0)):
                cfg = self.config(p, limit)

                def call(program=program, cfg=cfg):
                    return casp2smt.solve(program, cfg)

                def check(report, i=i, kind=kind):
                    problem = self.check(i, kind, report)
                    return None if problem is None else f"program {i} ({kind}): {problem}"

                ops.append(Op(kind, f"{i}:{kind}", call, check))
        return ops

    def script_bytes(self) -> int:
        """Emitted outside the timed rounds, through the stub solver, with
        the configuration of the first-answer operation."""
        total = 0
        for i, (program, p) in enumerate(zip(self.programs, self.refs)):
            path = self.out_dir / f"{self.name}-{i}.smt2"
            cfg = replace(self.config(p, 1), oracle_only=False, solver_cmd=self.stub_cmd, emit_path=path)
            casp2smt.solve(program, cfg)
            total += path.stat().st_size
        return total


class _AnswerSetCase(_ProgramCase):
    def prepare(self) -> None:
        self.expected = [ref.answer_sets(p) for p in self.refs]
        self.tight = [ref.is_tight(p) for p in self.refs]

    def check(self, i: int, kind: str, report) -> Optional[str]:
        if _status(report) != "sat":
            return f"status {_status(report)}"
        if report.tight != self.tight[i]:
            return f"tight reported as {report.tight}"
        got = [_key(r) for r in report.results]
        if kind == "first":
            if len(got) != 1 or got[0] not in self.expected[i]:
                return "the answer is not an answer set"
        elif len(set(got)) != len(got) or set(got) != self.expected[i]:
            return f"{len(got)} answers, {len(self.expected[i])} expected"
        return None


class RandomEnumerate(_AnswerSetCase):
    name = "random_enumerate"

    def _generate(self):
        return wl.random_programs(self.rng)

    def config(self, p, enumerate):
        return casp2smt.SolveConfig(solver_cmd=self.solver_cmd, var_box=p.box, enumerate=enumerate)


class OracleRandom(_AnswerSetCase):
    name = "oracle_random"

    def _generate(self):
        return wl.oracle_programs(self.rng)

    def config(self, p, enumerate):
        return casp2smt.SolveConfig(oracle_only=True, var_box=p.box, enumerate=enumerate)


class HoursExtended(_ProgramCase):
    name = "hours_extended"

    def _generate(self):
        return wl.hours_programs(self.rng)

    def prepare(self) -> None:
        self.expected = [ref.answer_sets(p) for p in self.refs]
        self.counts = [ref.extended_answer_count(p) for p in self.refs]

    def config(self, p, enumerate):
        return casp2smt.SolveConfig(
            solver_cmd=self.solver_cmd, extended=True, var_box=p.box, enumerate=enumerate
        )

    def check(self, i: int, kind: str, report) -> Optional[str]:
        if _status(report) != "sat":
            return f"status {_status(report)}"
        pairs = set()
        for r in report.results:
            x = _key(r)
            if x not in self.expected[i] or not ref.valuation_ok(self.refs[i], x, r.valuation or {}):
                return f"({sorted(map(str, x))}, {r.valuation}) is not an extended answer"
            pairs.add((x, tuple(sorted(r.valuation.items()))))
        want = 1 if kind == "first" else self.counts[i]
        if len(pairs) != len(report.results) or len(pairs) != want:
            return f"{len(pairs)} distinct extended answers, {want} expected"
        return None


CASES = {c.name: c for c in (RingEncode, RandomEnumerate, HoursExtended, OracleRandom)}
