"""Spans around the public functions of each ``casp2smt`` layer.

The tracer replaces a function by a wrapper on the object its caller looks
it up on: the package for what the benchmark calls, ``pipeline`` for the
stage functions it imports into its own namespace, ``program`` for
``input_answer_sets`` (imported when the oracle runs) and ``lincon`` for the
bounded constraint solvers (called through the module). Spans are kept in
memory as (name, start, end, parent) and written out by the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional

import casp2smt
from casp2smt import lincon, pipeline, program

# span name -> per-layer metric that reports its time
TIMED = {
    "parser.parse_program": "parser.parse_s",
    "program.is_tight": "program.is_tight_s",
    "program.input_answer_sets": "program.input_answer_sets_s",
    "completion.input_completion": "completion.input_completion_s",
    "ranking.build_ranking_formula": "ranking.build_ranking_formula_s",
    "formula.to_clauses": "formula.to_clauses_s",
    "smtlib.emit_script": "smtlib.emit_script_s",
    "smtlib.run_solver": "smtlib.run_solver_s",
    "smtlib.block_model": "smtlib.block_model_s",
    "smtlib.decode": "smtlib.decode_s",
    "lincon.gcsp": "lincon.gcsp_s",
}

COUNTED = (
    "parser.rules",
    "program.atoms",
    "ranking.rank_atoms",
    "ranking.rank_vars",
    "formula.clauses",
    "formula.fresh_atoms",
    "smtlib.solver_calls",
    "lincon.gcsp_calls",
)


def _count_rules(c: Counter, args, result) -> None:
    c["parser.rules"] += len(result.rules)


def _count_atoms(c: Counter, args, result) -> None:
    c["program.atoms"] += len(args[0].atoms)


def _count_ranking(c: Counter, args, result) -> None:
    c["ranking.rank_atoms"] += len(result.ranking_atoms)
    c["ranking.rank_vars"] += len(result.rank_vars)


def _count_clauses(c: Counter, args, result) -> None:
    c["formula.clauses"] += len(result.clauses)
    c["formula.fresh_atoms"] += len(result.fresh_atoms)


def _count_call(c: Counter, args, result) -> None:
    c["smtlib.solver_calls"] += 1
    c["smtlib.sat_answers"] += result.status.value == "sat"


def _count_gcsp(c: Counter, args, result) -> None:
    c["lincon.gcsp_calls"] += 1


# (object the caller looks the name up on, attribute, span name, counter)
TARGETS = (
    (casp2smt, "parse_program", "parser.parse_program", _count_rules),
    (casp2smt, "solve", "pipeline.solve", None),
    (pipeline, "is_tight", "program.is_tight", None),
    (program, "input_answer_sets", "program.input_answer_sets", _count_atoms),
    (pipeline, "input_completion", "completion.input_completion", None),
    (pipeline, "build_ranking_formula", "ranking.build_ranking_formula", _count_ranking),
    (pipeline, "to_clauses", "formula.to_clauses", _count_clauses),
    (pipeline, "emit_script", "smtlib.emit_script", None),
    (pipeline, "run_solver", "smtlib.run_solver", _count_call),
    (pipeline, "block_model", "smtlib.block_model", None),
    (pipeline, "decode", "smtlib.decode", None),
    (lincon, "gcsp_solve_bounded", "lincon.gcsp", _count_gcsp),
    (lincon, "gcsp_enumerate_bounded", "lincon.gcsp", _count_gcsp),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, Optional[int]]]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []
        for owner, attr, _, _ in TARGETS:
            if not callable(getattr(owner, attr, None)):
                print(f"bench: cannot trace {owner.__name__}.{attr}: no such function", file=sys.stderr)

    def _wrap(self, original: Callable, name: str, count) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr, None)
            if callable(original):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced rounds."""
        busy: Counter = Counter()
        children: Counter = Counter()
        for span in self.spans:
            name, start, end, parent = span
            busy[name] += end - start
            if parent is not None:
                children[parent] += end - start
        solve_self = sum(
            (end - start) - children[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == "pipeline.solve"
        )
        out = {metric: busy[span] / rounds for span, metric in TIMED.items()}
        out.update({name: self.counts[name] / rounds for name in COUNTED})
        calls = self.counts["smtlib.solver_calls"]
        out["smtlib.s_per_call"] = busy["smtlib.run_solver"] / calls if calls else 0.0
        out["smtlib.answers_per_call"] = self.counts["smtlib.sat_answers"] / calls if calls else 0.0
        out["pipeline.solve_self_s"] = solve_self / rounds
        return out
