"""End-to-end solving: encode, run the SMT backend or the in-process oracle,
decode, and render results."""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from . import lincon
from .completion import input_completion
from .errors import InconsistentConfig, NotTight, SolverSpawnFailure
from .formula import conj, models_of, to_clauses
from .lincon import LexiconKind, LinearConstraint, negate
from .program import ORACLE_CAP, AtomId, Program, is_input_answer_set, is_tight
from .ranking import RANK_PREFIX, build_ranking_formula
from .smtlib import (
    Status,
    block_model,
    box_assert,
    decode,
    emit_script,
    run_solver,
)

SOLVER_ENV_VAR = "CASP2SMT_SOLVER"

# default box for oracle-side feasibility checks, per variable
DEFAULT_ORACLE_BOX = (-32, 32)


class Mode(enum.Enum):
    AUTO = "auto"
    TIGHT_ONLY = "tight"
    FORCE_RANKING = "ranking"


class Encoding(enum.Enum):
    ICOMP_ONLY = "icomp"
    ICOMP_PLUS_RANKING = "icomp+ranking"


class Fragment(enum.Enum):
    IL = "IL"
    DL = "DL"
    L = "L"


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
    ranking_full: bool = False
    bound_ranks: bool = False
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


def classify_fragment(p: Program, kind: LexiconKind) -> Fragment:
    """Difference logic is reported when every program constraint already has
    the two-variable unit-coefficient shape (ranking constraints always do)."""
    if kind is LexiconKind.REAL_LINEAR:
        return Fragment.L
    if all(lincon.is_difference_shape(c) for _, c in p.gamma):
        return Fragment.DL
    return Fragment.IL


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
    gamma: Mapping[AtomId, LinearConstraint],
    scope: AbstractSet[AtomId],
    x: AbstractSet[AtomId],
) -> list[LinearConstraint]:
    """Constraints x imposes on the constraint atoms of the scope: the
    constraint of every true one, the complement of every false one."""
    gcsp = [gamma[a] for a in sorted(x & scope)]
    gcsp += [negate(gamma[a]) for a in sorted(scope - x)]
    return gcsp


def _feasible(
    gcsp: Sequence[LinearConstraint], kind: LexiconKind, box: Tuple[int, int]
) -> bool:
    """Exact interval check over the reals, bounded search in the box over
    the integers."""
    if kind is LexiconKind.REAL_LINEAR:
        return lincon.real_feasible_1d(gcsp)
    return lincon.gcsp_solve_bounded(gcsp, kind, box[0], box[1]) is not None


def verify(
    p: Program,
    x: AbstractSet[AtomId],
    box: Tuple[int, int],
    kind: LexiconKind = LexiconKind.INTEGER_LINEAR,
) -> bool:
    """Definition-level check that x is an answer set of the constraint
    program: an input answer set whose constraint problem is solvable."""
    atoms = set(p.atoms)
    if not (set(x) <= atoms and is_input_answer_set(p, x, p.irregular_atoms)):
        return False
    return _feasible(_induced_gcsp(p.gamma_map, atoms & p.irregular_atoms, x), kind, box)


def constraint_models(
    formula,
    vocab: Iterable[AtomId],
    gamma: Mapping[AtomId, LinearConstraint],
    kind: LexiconKind = LexiconKind.INTEGER_LINEAR,
    box: Tuple[int, int] = DEFAULT_ORACLE_BOX,
    cap: int = ORACLE_CAP,
) -> list[frozenset[AtomId]]:
    """Models of a formula paired with a constraint mapping: propositional
    models whose induced constraint problem is solvable."""
    vocab = tuple(vocab)
    scope = {a for a in vocab if a in gamma}
    return [
        x
        for x in models_of(formula, vocab, cap)
        if _feasible(_induced_gcsp(gamma, scope, x), kind, box)
    ]


def _ordered(p: Program, x: AbstractSet[AtomId]) -> Tuple[AtomId, ...]:
    return tuple(a for a in p.atoms if a in x)


def _encode(p: Program, cfg: SolveConfig, use_ranking: bool):
    sigma_i = p.irregular_atoms
    formula = input_completion(p, sigma_i)
    gamma = dict(p.gamma)
    if use_ranking:
        ranking = build_ranking_formula(p, sigma_i, full=cfg.ranking_full)
        formula = conj([formula, ranking.formula])
        gamma.update(ranking.gamma)
    script = emit_script(to_clauses(formula), gamma, cfg.logic)
    extra: list[str] = []
    program_vars = lincon.constraint_variables(c for _, c in p.gamma)
    if cfg.var_box is not None:
        lo, hi = cfg.var_box
        int_sort = cfg.logic is LexiconKind.INTEGER_LINEAR
        extra += [
            box_assert(v, lo, hi, int_sort)
            for v in program_vars
            if v in script.num_symbols
        ]
    if cfg.bound_ranks and use_ranking:
        rank_vars = [v for v in script.num_symbols if v.startswith(RANK_PREFIX)]
        extra += [box_assert(v, 0, len(p.atoms)) for v in rank_vars]
    if extra:
        script = script.with_asserts(extra)
    return script, program_vars


def _solve_oracle(p: Program, cfg: SolveConfig, report: SolveReport) -> None:
    from .program import input_answer_sets

    box = cfg.var_box if cfg.var_box is not None else DEFAULT_ORACLE_BOX
    limit = cfg.enumerate
    scope = set(p.atoms) & p.irregular_atoms
    for x in input_answer_sets(p, p.irregular_atoms, ORACLE_CAP):
        gcsp = _induced_gcsp(p.gamma_map, scope, x)
        if not cfg.extended:
            if _feasible(gcsp, cfg.logic, box):
                report.results.append(AnswerResult(_ordered(p, x)))
        else:
            if cfg.logic is LexiconKind.REAL_LINEAR:
                witness = lincon.real_witness_1d(gcsp)
                valuations = [] if witness is None else [witness]
            else:
                solutions = lincon.gcsp_enumerate_bounded(gcsp, cfg.logic, box[0], box[1])
                valuations = ({v: Fraction(n) for v, n in s.items()} for s in solutions)
            for values in valuations:
                report.results.append(AnswerResult(_ordered(p, x), values))
                if limit and len(report.results) >= limit:
                    break
        if limit and len(report.results) >= limit:
            break
    report.status = Status.SAT if report.results else Status.UNSAT


def _solve_smt(p: Program, cfg: SolveConfig, report: SolveReport, script, program_vars) -> None:
    """Enumerate through the external solver, one call per answer. A call
    that ends in UNKNOWN (a solver 'unknown' or a timeout) makes the report
    UNKNOWN and keeps the answers found before it."""
    cmd = cfg.solver_cmd or os.environ.get(SOLVER_ENV_VAR)
    if not cmd:
        raise SolverSpawnFailure(
            "no SMT solver configured; pass --solver, set "
            f"{SOLVER_ENV_VAR}, or use --oracle"
        )
    program_atoms = set(p.atoms)
    atom_scope = [
        symbol for a, symbol in script.atom_symbols if a in program_atoms
    ]
    value_scope: Sequence[str] = ()
    if cfg.extended and cfg.var_box is not None:
        value_scope = [v for v in program_vars if v in script.num_symbols]
    limit = cfg.enumerate
    current = script
    while True:
        outcome = run_solver(current, cmd, cfg.timeout)
        if outcome.status is Status.UNSAT:
            break
        if outcome.status is Status.UNKNOWN:
            report.status = Status.UNKNOWN
            return
        assert outcome.model is not None
        x, valuation = decode(outcome.model, current, program_atoms)
        report.results.append(
            AnswerResult(_ordered(p, x), valuation if cfg.extended else None)
        )
        if limit and len(report.results) >= limit:
            break
        current = block_model(current, outcome.model, atom_scope, value_scope)
    report.status = Status.SAT if report.results else Status.UNSAT


def solve(p: Program, cfg: Optional[SolveConfig] = None) -> SolveReport:
    """Solve a parsed constraint program.

    Auto mode encodes the input completion alone for tight programs and adds
    the ranking formula otherwise; oracle mode computes the same answer sets
    by exhaustive semantics checks with no external process.
    """
    cfg = cfg or SolveConfig()
    _check_config(cfg)
    tight = is_tight(p)
    if cfg.mode is Mode.TIGHT_ONLY and not tight:
        raise NotTight("the program has a positive dependency cycle")
    use_ranking = cfg.mode is Mode.FORCE_RANKING or (
        cfg.mode is Mode.AUTO and not tight
    )
    report = SolveReport(
        tight=tight,
        encoding_used=(
            Encoding.ICOMP_PLUS_RANKING if use_ranking else Encoding.ICOMP_ONLY
        ),
        results=[],
        status=Status.UNKNOWN,
    )
    script = program_vars = None
    if cfg.emit_path is not None or not cfg.oracle_only:
        script, program_vars = _encode(p, cfg, use_ranking)
    if cfg.emit_path is not None:
        Path(cfg.emit_path).write_text(script.text, encoding="utf-8")
    if cfg.oracle_only:
        _solve_oracle(p, cfg, report)
    else:
        _solve_smt(p, cfg, report, script, program_vars)
    return report


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
