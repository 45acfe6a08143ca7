"""SMT-LIB 2 script emission, the external solver driver, and model decoding."""

from __future__ import annotations

import codecs
import enum
import os
import re
import selectors
import shlex
import subprocess
import tempfile
import time
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


def _nary(op: str, args: Sequence[str]) -> str:
    """One argument as it is, several under the operator."""
    return args[0] if len(args) == 1 else f"({op} {' '.join(args)})"


def render_expr(c: LinearConstraint, int_sort: bool, symbols: Mapping[str, str]) -> str:
    terms = []
    for name, coeff in c.expr.terms:
        if coeff == 1:
            terms.append(symbols[name])
        else:
            terms.append(f"(* {render_number(coeff, int_sort)} {symbols[name]})")
    return _nary("+", terms)


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
    return f"(assert {_nary('or', lits)})"


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


def parse_reply(text: str, eof: bool) -> Optional[Tuple[SolverResult, int]]:
    """The solver's reply to one ``(check-sat)(get-model)`` at the start of
    the output text, and the length it takes: the first non-blank line, and
    after ``sat`` the model up to its balanced end. None while the reply is
    incomplete; at the end of output (``eof``) None means no answer came."""
    text += "\n" if eof else ""
    start = len(text) - len(text.lstrip())
    end = text.find("\n", start)
    if end < 0:
        return None
    answer = text[start:end].strip()
    if answer not in ("sat", "unsat", "unknown"):
        raise SolverProtocolError(f"unrecognized solver output: {answer[:200]!r}")
    if answer != "sat":
        return SolverResult(Status(answer)), end + 1
    depth = 0
    for paren in re.finditer(r"[()]", text[end + 1 :]):
        depth += 1 if paren.group() == "(" else -1
        if depth <= 0:
            model = text[end + 1 : end + 1 + paren.end()]
            return SolverResult(Status.SAT, parse_model(model)), end + 1 + paren.end()
    return (SolverResult(Status.SAT, parse_model(text[end + 1 :])), len(text)) if eof else None


class SolverSession:
    """One solver process for the checks of an enumeration: the first check
    sends the script, each later one the assertions added since, both then
    ``(check-sat)(get-model)``. A solver reading stdin must answer each
    command as it arrives, as ``z3 -in`` does; its stdin closes after the
    last check that ``checks`` allows, so one that reads to the end of input
    serves a session of one check. A ``{file}`` command runs once per check
    instead, on the whole script in a temp file, with an empty stdin. The
    timeout applies to each check: when it passes, the solver is killed and
    the check is UNKNOWN. Closing always kills and reaps the solver."""

    def __init__(self, cmd: Union[str, Sequence[str]], checks: Optional[int] = None):
        self.argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        self.checks = checks
        self.sent: Optional[SmtScript] = None
        self.proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def check(self, s: SmtScript, timeout: float) -> SolverResult:
        """Send what the solver lacks of the script, which must extend the
        one sent before (:class:`ValueError` otherwise), and read its reply."""
        commands = "(check-sat)\n(get-model)\n"
        if any("{file}" in part for part in self.argv):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "script.smt2"
                path.write_text(s.text + commands, encoding="utf-8")
                argv = [part.replace("{file}", str(path)) for part in self.argv]
                self._start(argv, subprocess.DEVNULL)
                try:
                    return self._reply(memoryview(b""), timeout)
                finally:
                    self.close()
        if self.sent is None:
            self._start(self.argv, subprocess.PIPE)
            os.set_blocking(self.proc.stdin.fileno(), False)
            payload = s.text + commands
        else:
            n = len(self.sent.asserts)
            if replace(s, asserts=s.asserts[:n]) != self.sent:
                raise ValueError("the script does not extend the one sent to the solver")
            payload = "".join(a + "\n" for a in s.asserts[n:]) + commands
        self.sent, self.done = s, self.done + 1
        return self._reply(memoryview(payload.encode()), timeout)

    def _start(self, argv: list[str], stdin) -> None:
        self.err = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                argv, bufsize=0, stdin=stdin, stdout=subprocess.PIPE, stderr=self.err
            )
        except OSError as exc:
            self.err.close()
            raise SolverSpawnFailure(f"cannot run {argv[0]!r}: {exc}") from exc
        self.out, self.done = "", 0
        self.decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def _reply(self, payload: memoryview, timeout: float) -> SolverResult:
        """Write the whole payload and read the reply before the deadline."""
        deadline = time.monotonic() + timeout
        proc, eof, reply = self.proc, False, None
        if payload:
            self.selector.register(proc.stdin, selectors.EVENT_WRITE)
        while not eof and (reply is None or payload):
            remaining = deadline - time.monotonic()
            events = self.selector.select(remaining) if remaining > 0 else []
            if not events:
                self.close()
                return SolverResult(Status.UNKNOWN)
            for key, _ in events:
                if key.fileobj is proc.stdout:
                    data = os.read(key.fd, 1 << 16)
                    eof = not data
                    self.out += self.decoder.decode(data, eof)
                    continue
                try:
                    payload = payload[os.write(key.fd, payload) :]
                except BrokenPipeError:  # the solver is gone; its output tells
                    payload = payload[:0]
                if not payload:
                    self.selector.unregister(proc.stdin)
                    if self.done == self.checks:
                        proc.stdin.close()
            reply = parse_reply(self.out, eof)
        if payload:  # the solver ended before reading it all
            self.selector.unregister(proc.stdin)
        if reply is None:
            proc.kill()
            proc.wait()
            self.err.seek(0)
            stderr = self.err.read(200).decode(errors="replace")
            raise SolverProtocolError(f"solver produced no answer (stderr: {stderr!r})")
        result, used = reply
        self.out = self.out[used:]
        return result

    def close(self) -> None:
        """Kill and reap the solver; a later check starts a new one."""
        if self.proc is not None:
            proc, self.proc, self.sent = self.proc, None, None
            with proc:
                proc.kill()
            self.selector.close()
            self.err.close()


def run_solver(
    s: SmtScript, solver: Union[SolverSession, str, Sequence[str]], timeout: float = 60.0
) -> SolverResult:
    """One check of the script, on an open :class:`SolverSession` or on a
    command, which runs as a session of one check. A solver reading stdin
    must answer each command as it arrives, as ``z3 -in`` does; use a
    ``{file}`` placeholder otherwise. The timeout applies to each check.
    Timeouts and solver 'unknown' answers both map to UNKNOWN.
    """
    if isinstance(solver, SolverSession):
        return solver.check(s, timeout)
    with SolverSession(solver, checks=1) as session:
        return session.check(s, timeout)


def block_model(s: SmtScript, scope: AbstractSet[AtomId], x: AbstractSet[AtomId]) -> SmtScript:
    """Add one assertion excluding the answer set x over the scope's atoms;
    blocking goes by atoms only, so the next check finds another answer set.
    An empty scope blocks everything, ending enumeration."""
    lits = [symbol if a in x else f"(not {symbol})" for a, symbol in s.atom_symbols if a in scope]
    blocking = f"(assert (not {_nary('and', lits)}))" if lits else "(assert false)"
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
