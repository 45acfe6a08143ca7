"""End-to-end solving: encode, run the SMT backend or the in-process oracle,
decode, and render results."""

from __future__ import annotations

import contextlib
import enum
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence, Tuple, Union

from . import lincon
from .completion import input_completion
from .errors import InconsistentConfig, NotTight, SolverProtocolError, SolverSpawnFailure
from .formula import conj, to_clauses
from .lincon import LexiconKind, LinearConstraint, constraint_variables, negate
from .program import AtomId, Program, is_input_answer_set, is_tight
from .ranking import build_ranking_formula
from .smtlib import SmtScript, SolverSession, Status, block_model, decode, emit_script, run_solver

SOLVER_ENV_VAR = "CASP2SMT_SOLVER"

# box of the integer search, per variable, when the caller gives none; the
# reals are searched exactly and stay unbounded without a box
DEFAULT_ORACLE_BOX = (-32, 32)


class Mode(enum.Enum):
    AUTO = "auto"
    TIGHT_ONLY = "tight"
    FORCE_RANKING = "ranking"


class Encoding(enum.Enum):
    ICOMP_ONLY = "icomp"
    ICOMP_PLUS_RANKING = "icomp+ranking"


@dataclass
class SolveConfig:
    logic: LexiconKind = LexiconKind.INTEGER_LINEAR
    mode: Mode = Mode.AUTO
    enumerate: int = 1  # 0 = all
    extended: bool = False
    var_box: Optional[Tuple[int, int]] = None
    oracle_only: bool = False
    solver_cmd: Optional[str] = None
    emit_path: Optional[Union[str, Path]] = None
    timeout: float = 60.0


@dataclass
class AnswerResult:
    """One reported answer set; atoms keep the program's occurrence order.
    The valuation is present only for extended results."""

    atoms: Tuple[AtomId, ...]
    valuation: Optional[dict[str, Fraction]] = None

    @property
    def atom_set(self) -> frozenset[AtomId]:
        return frozenset(self.atoms)


@dataclass
class SolveReport:
    tight: bool
    encoding_used: Encoding
    results: list[AnswerResult]
    status: Status


def _check_config(cfg: SolveConfig) -> None:
    if cfg.enumerate < 0:
        raise InconsistentConfig("enumerate must be a natural number (0 = all)")
    if cfg.extended and cfg.enumerate != 1:
        if cfg.logic is LexiconKind.REAL_LINEAR:
            raise InconsistentConfig(
                "extended enumeration over the reals is not countable; "
                "use enumerate=1 for a single witness"
            )
        if cfg.var_box is None:
            raise InconsistentConfig("extended enumeration requires a var box")
    if cfg.var_box is not None and cfg.var_box[0] > cfg.var_box[1]:
        raise InconsistentConfig(f"empty variable box {cfg.var_box}")


def _induced_gcsp(
    scope: AbstractSet[AtomId], x: AbstractSet[AtomId]
) -> list[LinearConstraint]:
    """Constraints x imposes on the constraint atoms of the scope: the
    constraint of every true one, the complement of every false one."""
    gcsp = [a.constraint for a in sorted(x & scope)]
    gcsp += [negate(a.constraint) for a in sorted(scope - x)]
    return gcsp


def _solutions(
    gcsp: Sequence[LinearConstraint],
    kind: LexiconKind,
    box: Optional[Tuple[int, int]],
    every: bool = False,
) -> Iterator[dict[str, Fraction]]:
    """Solutions of a constraint problem, none when it has none: over the
    reals one exact witness, over the integers the first solution or, lazily
    in lexicographic order, every one. The box bounds the variables in both
    domains; the integer search falls back to :data:`DEFAULT_ORACLE_BOX`."""
    lo, hi = box if box is not None else DEFAULT_ORACLE_BOX
    if kind is LexiconKind.REAL_LINEAR:
        found = [lincon.real_solution(gcsp, box)]
    elif every:
        found = lincon.gcsp_enumerate_bounded(gcsp, lo, hi)
    else:
        found = [lincon.gcsp_solve_bounded(gcsp, lo, hi)]
    return ({v: Fraction(n) for v, n in s.items()} for s in found if s is not None)


def verify(
    p: Program,
    x: AbstractSet[AtomId],
    box: Optional[Tuple[int, int]],
    kind: LexiconKind = LexiconKind.INTEGER_LINEAR,
) -> bool:
    """Definition-level check that x is an answer set of the constraint
    program: an input answer set whose constraint problem is solvable. The
    box bounds the variables in both domains; the integer search falls back
    to :data:`DEFAULT_ORACLE_BOX`."""
    scope = p.irregular_atoms
    if not (set(x) <= set(p.atoms) and is_input_answer_set(p, x, scope)):
        return False
    return next(_solutions(_induced_gcsp(scope, x), kind, box), None) is not None


def _ordered(p: Program, x: AbstractSet[AtomId]) -> Tuple[AtomId, ...]:
    return tuple(a for a in p.atoms if a in x)


def _encode(p: Program, cfg: SolveConfig, use_ranking: bool) -> SmtScript:
    sigma_i = p.irregular_atoms
    formula = input_completion(p, sigma_i)
    bounds = {}
    if cfg.var_box is not None:
        bounds = dict.fromkeys(constraint_variables(a.constraint for a in sigma_i), cfg.var_box)
    if use_ranking:
        formula = conj([formula, build_ranking_formula(p, sigma_i).formula])
    return emit_script(to_clauses(formula, (a.name for a in p.atoms)), cfg.logic, bounds)


def _answers(p: Program, cfg: SolveConfig, x: AbstractSet[AtomId], witness) -> Iterable[AnswerResult]:
    """The answers of the answer set x: x alone, x with its witness when one
    extended answer is asked for, or, lazily, x with each valuation of its
    box in lexicographic order when extended answers are listed."""
    atoms = _ordered(p, x)
    if cfg.extended and cfg.enumerate != 1:
        gcsp = _induced_gcsp(p.irregular_atoms, x)
        return (AnswerResult(atoms, s) for s in _solutions(gcsp, cfg.logic, cfg.var_box, every=True))
    return [AnswerResult(atoms, witness if cfg.extended else None)]


def _solve_oracle(p: Program, cfg: SolveConfig) -> Iterator[AnswerResult]:
    """Answers by exhaustive semantics checks over the guessed atoms, in the
    order of :func:`input_answer_sets`."""
    from .program import input_answer_sets

    scope = p.irregular_atoms
    for x in input_answer_sets(p, scope):
        for witness in _solutions(_induced_gcsp(scope, x), cfg.logic, cfg.var_box):
            yield from _answers(p, cfg, x, witness)


def _solve_smt(p: Program, cfg: SolveConfig, script: SmtScript) -> Iterator[Optional[AnswerResult]]:
    """Answers through one solver session, one check per answer set, each
    blocked by its atoms before the next check. A check that ends in UNKNOWN
    (a solver 'unknown' or a timeout) yields None and ends the enumeration;
    an answer set the solver repeats, ignoring its blocking assertion, is a
    :class:`SolverProtocolError`."""
    cmd = cfg.solver_cmd or os.environ.get(SOLVER_ENV_VAR)
    if not cmd:
        raise SolverSpawnFailure(
            "no SMT solver configured; pass --solver, set "
            f"{SOLVER_ENV_VAR}, or use --oracle"
        )
    program_atoms, scope = set(p.atoms), p.irregular_atoms
    integer = cfg.logic is LexiconKind.INTEGER_LINEAR
    box, current, reported = cfg.var_box, script, set()
    with SolverSession(cmd, cfg.enumerate or None) as session:
        while True:
            outcome = run_solver(current, session, cfg.timeout)
            if outcome.status is Status.UNSAT:
                return
            if outcome.status is Status.UNKNOWN:
                yield None
                return
            assert outcome.model is not None
            x, valuation = decode(outcome.model, current, program_atoms)
            # certified: an input answer set whose constraint atoms are true
            # exactly when the model's values, integers over QF_LIA and inside
            # the box, satisfy their constraints
            if (
                not is_input_answer_set(p, x, scope)
                or (integer and any(n.denominator != 1 for n in valuation.values()))
                or (box is not None and not all(box[0] <= n <= box[1] for n in valuation.values()))
                or not all(lincon.evaluate(c, valuation) for c in _induced_gcsp(scope, x))
            ):
                raise SolverProtocolError(f"the solver's model is no answer set: {sorted(x)}")
            if x in reported:
                raise SolverProtocolError(f"the solver repeated the answer set {sorted(x)}")
            reported.add(x)
            yield from _answers(p, cfg, x, valuation)
            current = block_model(current, program_atoms, x)


def solve(p: Program, cfg: Optional[SolveConfig] = None) -> SolveReport:
    """Solve a parsed constraint program.

    Auto mode encodes the input completion alone for tight programs and adds
    the ranking formula otherwise; oracle mode computes the same answer sets
    by exhaustive semantics checks over the guessed atoms (the constraint atoms
    and the atoms under ``not``) with no external process. An enumeration
    that a solver call cuts short is UNKNOWN and keeps the answers before it.

    With ``extended`` and ``enumerate=1`` the one answer carries the witness
    its backend found: the solver's model or the oracle's first box
    valuation. Listing more extended answers reports, for each answer set in
    turn, every valuation of its box in lexicographic order.

    Without ``var_box`` the oracle searches integer variables only inside
    :data:`DEFAULT_ORACLE_BOX`, while the solver leaves them unbounded, so a
    program whose constraints need larger values can be UNSAT only there.
    """
    cfg = cfg or SolveConfig()
    _check_config(cfg)
    tight = is_tight(p)
    if cfg.mode is Mode.TIGHT_ONLY and not tight:
        raise NotTight("the program has a positive dependency cycle")
    use_ranking = cfg.mode is Mode.FORCE_RANKING or (
        cfg.mode is Mode.AUTO and not tight
    )
    script = None
    if cfg.emit_path is not None or not cfg.oracle_only:
        script = _encode(p, cfg, use_ranking)
    if cfg.emit_path is not None:
        Path(cfg.emit_path).write_text(script.text, encoding="utf-8")
    if cfg.oracle_only:
        answers = _solve_oracle(p, cfg)
    else:
        answers = _solve_smt(p, cfg, script)
    with contextlib.closing(answers):  # ends the solver however the loop ends
        results = list(itertools.islice(answers, cfg.enumerate or None))
    cut_short = bool(results) and results[-1] is None
    if cut_short:
        results.pop()
    return SolveReport(
        tight=tight,
        encoding_used=(
            Encoding.ICOMP_PLUS_RANKING if use_ranking else Encoding.ICOMP_ONLY
        ),
        results=results,
        status=Status.UNKNOWN if cut_short else Status.SAT if results else Status.UNSAT,
    )


def render_report(r: SolveReport, fmt: str = "text") -> str:
    """Deterministic rendering; jsonl emits one object per answer set."""
    if fmt == "text":
        if not r.results:
            return {
                Status.UNSAT: "UNSATISFIABLE",
                Status.UNKNOWN: "UNKNOWN",
                Status.SAT: "",
            }[r.status]
        lines = []
        for i, result in enumerate(r.results, start=1):
            line = f"Answer {i}: {' '.join(a.name for a in result.atoms)}"
            if result.valuation is not None:
                values = " ".join(
                    f"{v}={_json_number(n)}" for v, n in sorted(result.valuation.items())
                )
                line = f"{line}  {values}" if values else line
            lines.append(line)
        if r.status is Status.UNKNOWN:
            # answers of an enumeration cut short; the list may be incomplete
            lines.append("UNKNOWN")
        return "\n".join(lines)
    if fmt == "jsonl":
        lines = []
        for result in r.results:
            lines.append(
                json.dumps(
                    {
                        "atoms": [a.name for a in result.atoms],
                        "valuation": None
                        if result.valuation is None
                        else {v: _json_number(n) for v, n in sorted(result.valuation.items())},
                        "encoding": r.encoding_used.value,
                        "tight": r.tight,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines)
    raise InconsistentConfig(f"unknown output format {fmt!r}")


def _json_number(n: Fraction) -> Union[int, str]:
    n = Fraction(n)
    return n.numerator if n.denominator == 1 else str(n)
