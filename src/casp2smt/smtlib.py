"""SMT-LIB 2 script emission, the external solver driver, and model decoding."""

from __future__ import annotations

import enum
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import SolverProtocolError, SolverSpawnFailure
from .formula import ClauseSet, unique_name
from .lincon import LexiconKind, LinearConstraint, Rel
from .program import AtomId

_SAFE_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# reserved words and Core, Ints and Reals symbols, which no atom may take
_SMT_WORDS = frozenset(
    "_ BINARY DECIMAL HEXADECIMAL NUMERAL STRING true false not and or xor "
    "ite distinct let forall exists match par as assert div mod abs to_real "
    "to_int is_int".split()
)

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


def symbol_table(names: Iterable[AtomId], taken: Iterable[str] = ()) -> dict[AtomId, str]:
    """Injective atom-to-symbol mapping that avoids the SMT-LIB words and the
    taken symbols; regular atoms keep their own names, irregular atoms get a
    ``b__`` prefix, collisions a numeric suffix."""
    table: dict[AtomId, str] = {}
    used = set(_SMT_WORDS) | set(taken)
    for a in sorted(set(names)):
        if a.constraint is None and _SAFE_SYMBOL.fullmatch(a.name):
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


def render_expr(c: LinearConstraint, int_sort: bool, symbols: Mapping[str, str]) -> str:
    terms = []
    for name, coeff in c.expr.terms:
        if coeff == 1:
            terms.append(symbols[name])
        else:
            terms.append(f"(* {render_number(coeff, int_sort)} {symbols[name]})")
    if len(terms) == 1:
        return terms[0]
    return f"(+ {' '.join(terms)})"


def render_theory_atom(c: LinearConstraint, int_sort: bool, symbols: Mapping[str, str]) -> str:
    lhs = render_expr(c, int_sort, symbols)
    rhs = render_number(c.bound, int_sort)
    if c.rel is Rel.NE:
        return f"(not (= {lhs} {rhs}))"
    op = "=" if c.rel is Rel.EQ else c.rel.value
    return f"({op} {lhs} {rhs})"


@dataclass(frozen=True)
class SmtScript:
    """Deterministic SMT-LIB 2 script: sorted declarations, bridge assertions
    tying each constraint atom's boolean to its theory atom, then the clauses.
    One symbol table per sort maps atoms or numeric variables to symbols, in
    the declaration order, which is by symbol."""

    logic: str
    asserts: Tuple[str, ...] = ()
    atom_symbols: Tuple[Tuple[AtomId, str], ...] = ()
    var_symbols: Tuple[Tuple[str, str], ...] = ()

    @property
    def num_sort(self) -> str:
        return "Int" if self.logic == "QF_LIA" else "Real"

    @property
    def text(self) -> str:
        lines = [f"(set-logic {self.logic})"]
        lines += [f"(declare-fun {s} () Bool)" for _, s in self.atom_symbols]
        lines += [f"(declare-fun {s} () {self.num_sort})" for _, s in self.var_symbols]
        lines += self.asserts
        return "\n".join(lines) + "\n"


def emit_script(
    clauses: ClauseSet,
    kind: LexiconKind,
    bounds: Mapping[str, Tuple[int, int]] = {},
) -> SmtScript:
    """Booleans for the clause atoms, numeric symbols for the constraint
    variables, and one biconditional bridge per occurring constraint atom,
    to the constraint the atom carries. The bridge pins both polarities, so
    a false constraint atom really does assert the complement constraint.
    Last come the bounds, ``lo <= v <= hi`` for each variable in their
    order; a variable the clauses do not mention has no symbol to bound.

    A variable keeps its name unless it is an SMT-LIB word, which gets a
    suffix that no other variable has; the atoms avoid every numeric symbol."""
    logic = "QF_LIA" if kind is LexiconKind.INTEGER_LINEAR else "QF_LRA"
    int_sort = kind is LexiconKind.INTEGER_LINEAR
    atoms = clauses.atoms()
    irregular = sorted(a for a in atoms if a.constraint is not None)
    variables = {v for a in irregular for v in a.constraint.variables}
    used = set(_SMT_WORDS) | variables
    nums = {v: unique_name(v, used) if v in _SMT_WORDS else v for v in sorted(variables)}
    table = symbol_table(atoms, nums.values())
    bridged = [
        f"(assert (= {table[a]} {render_theory_atom(a.constraint, int_sort, nums)}))"
        for a in irregular
    ]
    clause_asserts = [_clause_assert(clause, table) for clause in clauses.clauses]
    boxes = [
        f"(assert (and (<= {render_number(lo, int_sort)} {nums[v]}) "
        f"(<= {nums[v]} {render_number(hi, int_sort)})))"
        for v, (lo, hi) in bounds.items()
        if v in nums
    ]
    return SmtScript(
        logic=logic,
        asserts=tuple(bridged + clause_asserts + boxes),
        atom_symbols=tuple(sorted(table.items(), key=itemgetter(1))),
        var_symbols=tuple(sorted(nums.items(), key=itemgetter(1))),
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
            denominator = _numeric_value(node[2])
            if denominator == 0:
                raise SolverProtocolError("division by zero in a model value")
            return _numeric_value(node[1]) / denominator
        if node[0] == "to_real" and len(node) == 2:
            return _numeric_value(node[1])
    raise SolverProtocolError(f"unexpected model value {node!r}")


def parse_model(text: str) -> SmtModel:
    """Extract booleans and numerals from get-model style output; handles
    (- n) and (/ p q) forms. Output that is not a model, however deeply
    nested, raises :class:`SolverProtocolError`, as does output with no model
    list or with an ``(error ...)`` form: it would read as all false and 0."""
    model = SmtModel({}, {})
    forms = _read_sexprs(_tokenize_sexpr(text))
    lists = [form for form in forms if isinstance(form, list)]
    if not lists or any(form[:1] == ["error"] for form in lists):
        raise SolverProtocolError(f"no model after sat: {text.strip()[:200]!r}")

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

    try:
        for form in forms:
            walk(form)
    except RecursionError:
        raise SolverProtocolError("solver output is nested too deeply") from None
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
    return SolverResult(Status.SAT, parse_model("\n".join(rest)))


def block_model(
    s: SmtScript,
    scope: AbstractSet[AtomId],
    x: AbstractSet[AtomId],
    values: Mapping[str, Fraction] = {},
) -> SmtScript:
    """Add one assertion excluding the answer x over the scope's atoms and,
    for the variables that ``values`` names, their values. An empty scope
    blocks everything, ending enumeration."""
    lits = [symbol if a in x else f"(not {symbol})" for a, symbol in s.atom_symbols if a in scope]
    int_sort = s.num_sort == "Int"
    for name, symbol in s.var_symbols:
        if name in values:
            lits.append(f"(= {symbol} {render_number(values[name], int_sort)})")
    if not lits:
        blocking = "(assert false)"
    elif len(lits) == 1:
        blocking = f"(assert (not {lits[0]}))"
    else:
        blocking = f"(assert (not (and {' '.join(lits)})))"
    return replace(s, asserts=s.asserts + (blocking,))


def decode(
    m: SmtModel, s: SmtScript, vocab: Iterable[AtomId]
) -> tuple[frozenset[AtomId], dict[str, Fraction]]:
    """Project a solver model of the script back onto the vocabulary's atoms
    and the variables of its constraints, each under its own name, through
    the script's symbol tables; definitional atoms and rank variables are
    dropped. A symbol the model leaves out is false or 0."""
    wanted = set(vocab)
    x = frozenset(
        a
        for a, symbol in s.atom_symbols
        if a in wanted and m.bools.get(symbol, False)
    )
    variables = {v for a in wanted if a.constraint is not None for v in a.constraint.variables}
    valuation = {
        name: m.nums.get(symbol, Fraction(0))
        for name, symbol in s.var_symbols
        if name in variables
    }
    return x, valuation
