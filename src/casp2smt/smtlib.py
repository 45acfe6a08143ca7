"""SMT-LIB 2 script emission, the external solver driver, and model decoding."""

from __future__ import annotations

import enum
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    MissingGamma,
    SolverProtocolError,
    SolverSpawnFailure,
    UnknownSymbol,
)
from .formula import ClauseSet, unique_name
from .lincon import LexiconKind, LinearConstraint, Rel
from .program import AtomId, AtomKind
from .ranking import RANK_PREFIX

_SAFE_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_REL_WORDS = (
    ("<=", "_le_"),
    (">=", "_ge_"),
    ("!=", "_ne_"),
    ("=", "_eq_"),
    ("<", "_lt_"),
    (">", "_gt_"),
)


def _sanitize(name: str) -> str:
    text = name.strip("|")
    for token, word in _REL_WORDS:
        text = text.replace(token, word)
    text = re.sub(r"[^A-Za-z0-9_]", "_", text)
    return re.sub(r"_+", "_", text).strip("_")


def symbol_table(names: Iterable[AtomId]) -> dict[AtomId, str]:
    """Injective atom-to-symbol mapping; regular atoms keep their own names,
    irregular atoms get a ``b__`` prefix, collisions a numeric suffix."""
    table: dict[AtomId, str] = {}
    used: set[str] = set()
    for a in sorted(set(names)):
        if a.kind is AtomKind.REGULAR and _SAFE_SYMBOL.fullmatch(a.name):
            base = a.name
        else:
            base = "b__" + _sanitize(a.name)
        table[a] = unique_name(base, used)
    return table


def render_number(value: Union[int, Fraction], int_sort: bool) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        n = value.numerator
        return str(n) if n >= 0 else f"(- {-n})"
    if int_sort:
        raise ValueError(f"non-integer literal {value} in an integer script")
    text = f"(/ {abs(value.numerator)} {value.denominator})"
    return text if value >= 0 else f"(- {text})"


def render_expr(c: LinearConstraint, int_sort: bool) -> str:
    terms = []
    for name, coeff in c.expr.terms:
        if coeff == 1:
            terms.append(name)
        else:
            terms.append(f"(* {render_number(coeff, int_sort)} {name})")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return f"(+ {' '.join(terms)})"


def render_theory_atom(c: LinearConstraint, int_sort: bool) -> str:
    n = c.normalized()
    lhs = render_expr(n, int_sort)
    rhs = render_number(n.bound, int_sort)
    if n.rel is Rel.NE:
        return f"(not (= {lhs} {rhs}))"
    op = "=" if n.rel is Rel.EQ else n.rel.value
    return f"({op} {lhs} {rhs})"


def box_assert(var: str, lo: int, hi: int, int_sort: bool = True) -> str:
    lo_text = render_number(lo, int_sort)
    hi_text = render_number(hi, int_sort)
    return f"(assert (and (<= {lo_text} {var}) (<= {var} {hi_text})))"


@dataclass(frozen=True)
class SmtScript:
    """Deterministic SMT-LIB 2 script: sorted declarations, bridge assertions
    tying each constraint atom's boolean to its theory atom, then the clauses."""

    logic: str
    bool_symbols: Tuple[str, ...]
    num_symbols: Tuple[str, ...]
    asserts: Tuple[str, ...]
    atom_symbols: Tuple[Tuple[AtomId, str], ...]

    @property
    def num_sort(self) -> str:
        return "Int" if self.logic == "QF_LIA" else "Real"

    @property
    def text(self) -> str:
        lines = [f"(set-logic {self.logic})"]
        lines += [f"(declare-fun {s} () Bool)" for s in self.bool_symbols]
        lines += [f"(declare-fun {s} () {self.num_sort})" for s in self.num_symbols]
        lines += list(self.asserts)
        return "\n".join(lines) + "\n"

    @property
    def symbol_of(self) -> dict[AtomId, str]:
        return dict(self.atom_symbols)

    def with_asserts(self, extra: Iterable[str]) -> "SmtScript":
        return SmtScript(
            self.logic,
            self.bool_symbols,
            self.num_symbols,
            self.asserts + tuple(extra),
            self.atom_symbols,
        )


def emit_script(
    clauses: ClauseSet,
    gamma: Mapping[AtomId, LinearConstraint],
    kind: LexiconKind,
) -> SmtScript:
    """Booleans for the clause atoms, numeric symbols for the constraint
    variables, and one biconditional bridge per occurring constraint atom.
    The bridge pins both polarities, so a false constraint atom really does
    assert the complement constraint."""
    logic = "QF_LIA" if kind is LexiconKind.INTEGER_LINEAR else "QF_LRA"
    int_sort = kind is LexiconKind.INTEGER_LINEAR
    atoms = clauses.atoms()
    table = symbol_table(atoms)
    bridged = []
    num_symbols: set[str] = set()
    for a in sorted(atoms):
        if a.kind is not AtomKind.IRREGULAR:
            continue
        if a not in gamma:
            raise MissingGamma(a.name)
        c = gamma[a]
        bridged.append(f"(assert (= {table[a]} {render_theory_atom(c, int_sort)}))")
        num_symbols.update(c.variables)
    clause_asserts = [_clause_assert(clause, table) for clause in clauses.clauses]
    return SmtScript(
        logic=logic,
        bool_symbols=tuple(sorted(table.values())),
        num_symbols=tuple(sorted(num_symbols)),
        asserts=tuple(bridged + clause_asserts),
        atom_symbols=tuple(sorted(table.items(), key=lambda kv: kv[1])),
    )


def _clause_assert(clause, table: Mapping[AtomId, str]) -> str:
    if not clause:
        return "(assert false)"
    lits = [table[a] if sign else f"(not {table[a]})" for a, sign in clause]
    if len(lits) == 1:
        return f"(assert {lits[0]})"
    return f"(assert (or {' '.join(lits)}))"


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SmtModel:
    bools: dict[str, bool]
    nums: dict[str, Fraction]


@dataclass
class SolverResult:
    status: Status
    model: Optional[SmtModel] = None


def _tokenize_sexpr(text: str) -> list[str]:
    return re.findall(r"\(|\)|[^\s()]+", text)


def _read_sexprs(tokens: list[str]) -> list:
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SolverProtocolError("unbalanced ')' in solver output")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SolverProtocolError("unbalanced '(' in solver output")
    return stack[0]


def _numeric_value(node) -> Fraction:
    if isinstance(node, str):
        if re.fullmatch(r"\d+(\.\d+)?", node):
            return Fraction(node)
        raise SolverProtocolError(f"unexpected numeral {node!r}")
    if isinstance(node, list) and node:
        if node[0] == "-" and len(node) == 2:
            return -_numeric_value(node[1])
        if node[0] == "/" and len(node) == 3:
            return _numeric_value(node[1]) / _numeric_value(node[2])
        if node[0] == "to_real" and len(node) == 2:
            return _numeric_value(node[1])
    raise SolverProtocolError(f"unexpected model value {node!r}")


def parse_model(text: str) -> SmtModel:
    """Extract booleans and numerals from get-model style output; handles
    (- n) and (/ p q) forms."""
    model = SmtModel({}, {})
    forms = _read_sexprs(_tokenize_sexpr(text))

    def walk(node) -> None:
        if not isinstance(node, list):
            return
        if (
            len(node) >= 5
            and node[0] == "define-fun"
            and isinstance(node[1], str)
            and node[2] == []
        ):
            name, sort, value = node[1], node[3], node[4]
            if sort == "Bool":
                if value not in ("true", "false"):
                    raise SolverProtocolError(f"boolean {name} has value {value!r}")
                model.bools[name] = value == "true"
            else:
                model.nums[name] = _numeric_value(value)
            return
        for child in node:
            walk(child)

    for form in forms:
        walk(form)
    return model


def run_solver(
    s: SmtScript,
    cmd: Union[str, Sequence[str]],
    timeout: float = 60.0,
) -> SolverResult:
    """Feed the script plus (check-sat)(get-model) to an external process.

    The command receives the script on stdin; a ``{file}`` placeholder in the
    command switches to a temp-file argument instead. Timeouts and solver
    'unknown' answers both map to UNKNOWN.
    """
    payload = s.text + "(check-sat)\n(get-model)\n"
    argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
    tmp: Optional[str] = None
    try:
        if any("{file}" in part for part in argv):
            with tempfile.NamedTemporaryFile(
                "w", suffix=".smt2", delete=False
            ) as handle:
                handle.write(payload)
                tmp = handle.name
            argv = [part.replace("{file}", tmp) for part in argv]
            stdin_text = None
        else:
            stdin_text = payload
        try:
            proc = subprocess.run(
                argv,
                input=stdin_text,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return SolverResult(Status.UNKNOWN)
        except OSError as exc:
            raise SolverSpawnFailure(f"cannot run {argv[0]!r}: {exc}") from exc
    finally:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)

    answer = None
    rest: list[str] = []
    for line in proc.stdout.splitlines():
        stripped = line.strip()
        if answer is None:
            if stripped in ("sat", "unsat", "unknown"):
                answer = stripped
            elif stripped:
                raise SolverProtocolError(
                    f"unrecognized solver output: {stripped[:200]!r}"
                )
        else:
            rest.append(line)
    if answer is None:
        raise SolverProtocolError(
            f"solver produced no answer (stderr: {proc.stderr[:200]!r})"
        )
    if answer == "unsat":
        return SolverResult(Status.UNSAT)
    if answer == "unknown":
        return SolverResult(Status.UNKNOWN)
    model = parse_model("\n".join(rest))
    for symbol in s.bool_symbols:
        model.bools.setdefault(symbol, False)
    for symbol in s.num_symbols:
        model.nums.setdefault(symbol, Fraction(0))
    return SolverResult(Status.SAT, model)


def block_model(
    s: SmtScript,
    m: SmtModel,
    scope: Iterable[str],
    num_scope: Iterable[str] = (),
) -> SmtScript:
    """Add one assertion excluding the model's assignment over the scope.
    An empty scope blocks everything, ending enumeration."""
    lits = []
    bools = frozenset(s.bool_symbols)
    for symbol in sorted(set(scope)):
        if symbol not in bools:
            raise UnknownSymbol(f"{symbol} is not a declared boolean")
        lits.append(symbol if m.bools.get(symbol, False) else f"(not {symbol})")
    int_sort = s.num_sort == "Int"
    nums = frozenset(s.num_symbols)
    for symbol in sorted(set(num_scope)):
        if symbol not in nums:
            raise UnknownSymbol(f"{symbol} is not a declared numeric symbol")
        value = render_number(m.nums.get(symbol, Fraction(0)), int_sort)
        lits.append(f"(= {symbol} {value})")
    if not lits:
        return s.with_asserts(["(assert false)"])
    if len(lits) == 1:
        return s.with_asserts([f"(assert (not {lits[0]}))"])
    return s.with_asserts([f"(assert (not (and {' '.join(lits)})))"])


def decode(
    m: SmtModel, s: SmtScript, vocab: Iterable[AtomId]
) -> tuple[frozenset[AtomId], dict[str, Fraction]]:
    """Project a solver model of the script back onto program atoms and
    constraint variables, through the script's own symbol table;
    definitional atoms and rank variables are dropped."""
    wanted = set(vocab)
    x = frozenset(
        a
        for a, symbol in s.atom_symbols
        if a in wanted and m.bools.get(symbol, False)
    )
    valuation = {
        name: value
        for name, value in sorted(m.nums.items())
        if not name.startswith(RANK_PREFIX)
    }
    return x, valuation
