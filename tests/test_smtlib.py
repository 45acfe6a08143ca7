import itertools
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casp2smt.completion import input_completion
from casp2smt.errors import SolverProtocolError, SolverSpawnFailure
from casp2smt.formula import ClauseSet, conj, to_clauses
from casp2smt.lincon import LexiconKind
from casp2smt.parser import parse_program
from casp2smt.program import atom, input_answer_sets
from casp2smt.ranking import build_ranking_formula
from casp2smt.smtlib import (
    SmtModel,
    SmtScript,
    SolverResult,
    SolverSession,
    Status,
    block_model,
    decode,
    emit_script,
    parse_model,
    parse_reply,
    run_solver,
    symbol_table,
)

from .conftest import families
from .randprog import random_cas_program
from .semantics import constraint_models

INT = LexiconKind.INTEGER_LINEAR
REAL = LexiconKind.REAL_LINEAR

a, b_ = atom("a"), atom("b")


def pi1_script(pi1_text):
    p = parse_program(pi1_text)
    clauses = to_clauses(input_completion(p, p.irregular_atoms))
    return p, clauses, emit_script(clauses, INT)


class TestSymbols:
    def test_regular_atoms_keep_their_names(self):
        assert symbol_table([a, b_]) == {a: "a", b_: "b"}

    def test_constraint_atom_symbol(self):
        t = symbol_table([atom("|x>=12|")])
        assert t[atom("|x>=12|")] == "b__x_ge_12"

    def test_collisions_get_suffixes(self):
        one, two = atom("|x + y >= 12|"), atom("|x - y >= 12|")
        t = symbol_table([one, two])
        assert t == {one: "b__x_y_ge_12", two: "b__x_y_ge_12_1"}

    def test_smt_words_and_taken_symbols_get_suffixes(self):
        t = symbol_table([atom("false"), atom("x"), atom("y")], taken=["x"])
        assert t == {atom("false"): "false_1", atom("x"): "x_1", atom("y"): "y"}

    def test_injective_on_random_names(self):
        rng = random.Random(71)
        names = [atom(f"|{rng.choice('xyz')} >= {rng.randint(-9, 9)}|") for _ in range(30)]
        names += [atom(f"v{i}") for i in range(10)]
        t = symbol_table(names)
        assert len(set(t.values())) == len(t)


class TestEmit:
    def test_bridge_assertion_text(self, pi1_text):
        _, _, script = pi1_script(pi1_text)
        assert "(assert (= b__x_ge_12 (>= x 12)))" in script.asserts
        assert "(declare-fun x () Int)" in script.text

    def test_clause_rendering(self):
        clauses = ClauseSet((((a, True), (b_, False)),), frozenset())
        script = emit_script(clauses, INT)
        assert script.asserts == ("(assert (or a (not b)))",)

    def test_deterministic_bytes(self, pi1_text):
        _, _, first = pi1_script(pi1_text)
        _, _, second = pi1_script(pi1_text)
        assert first.text == second.text

    def test_bounds_follow_the_clauses_for_declared_variables(self, pi1_text):
        p = parse_program(pi1_text)
        clauses = to_clauses(input_completion(p, p.irregular_atoms))
        script = emit_script(clauses, REAL, {"y": (0, 1), "x": (-1, 23)})
        assert script.asserts[-1] == "(assert (and (<= (- 1) x) (<= x 23)))"
        assert script.asserts[:-1] == emit_script(clauses, REAL).asserts
        assert "y" not in script.text

    def test_real_logic_and_sorts(self, pi1_text):
        p = parse_program(pi1_text)
        clauses = to_clauses(input_completion(p, p.irregular_atoms))
        script = emit_script(clauses, REAL)
        assert script.logic == "QF_LRA"
        assert "(declare-fun x () Real)" in script.text


# model values built from numerals, including 0, with - and /
VALUES = st.recursive(
    st.sampled_from(["0", "1", "2", "0.5"]),
    lambda inner: st.one_of(
        st.tuples(st.just("-"), inner), st.tuples(st.just("/"), inner, inner)
    ).map(lambda parts: f"({' '.join(parts)})"),
    max_leaves=6,
)
TOKENS = st.one_of(
    VALUES.map(lambda v: f"(define-fun x () Int {v})"),
    st.sampled_from(["(", ")", "define-fun", "x", "()", "Int", "-", "/", "0"]),
)
MODEL_TEXT = st.lists(TOKENS, max_size=10).map(" ".join)


class TestParseModel:
    def test_plain_values(self):
        m = parse_model("((define-fun x () Int 12) (define-fun a () Bool true))")
        assert m.nums == {"x": Fraction(12)}
        assert m.bools == {"a": True}

    def test_negative_numeral(self):
        m = parse_model("((define-fun x () Int (- 3)))")
        assert m.nums == {"x": Fraction(-3)}

    def test_rational_and_model_keyword(self):
        m = parse_model("(model (define-fun r () Real (/ 9 2)) (define-fun s () Real (- (/ 1 4))))")
        assert m.nums == {"r": Fraction(9, 2), "s": Fraction(-1, 4)}

    @pytest.mark.parametrize(
        "text",
        [
            "(model (define-fun x () Int (/ 1 0)))",
            "(" * 3000 + ")" * 3000,
            "(define-fun x () Int " + "(- " * 3000 + "1" + ")" * 3001,
        ],
        ids=["division-by-zero", "deep-nesting", "deep-value"],
    )
    def test_malformed_output_is_a_protocol_error(self, text):
        with pytest.raises(SolverProtocolError):
            parse_model(text)

    @given(MODEL_TEXT)
    def test_model_text_gives_a_model_or_a_protocol_error(self, text):
        try:
            m = parse_model(text)
        except SolverProtocolError:
            return
        assert all(isinstance(v, Fraction) for v in m.nums.values())



# a regular atom spelled like the symbol of a constraint atom: the two share
# the base name b__x_ge_1, so the constraint atom's symbol gets a suffix
COLLIDING = "{b__x_ge_1}.\nok :- b__x_ge_1, |x >= 1|.\n:- not ok.\n"


def colliding_script():
    p = parse_program(COLLIDING)
    clauses = to_clauses(input_completion(p, p.irregular_atoms))
    return p, clauses, emit_script(clauses, INT)


class TestBlockModel:
    def test_blocking_assertion(self):
        script = SmtScript(logic="QF_LIA", atom_symbols=((atom("a"), "a"), (atom("b"), "b")))
        blocked = block_model(script, {atom("a"), atom("b")}, {atom("a")})
        assert blocked.asserts[-1] == "(assert (not (and a (not b))))"

    def test_empty_scope_blocks_everything(self):
        script = SmtScript(logic="QF_LIA")
        blocked = block_model(script, set(), set())
        assert blocked.asserts[-1] == "(assert false)"

    def test_symbol_collision_scope(self):
        p, _, script = colliding_script()
        scope = set(p.atoms)
        assert {"b__x_ge_1", "b__x_ge_1_1"} <= {sym for a, sym in script.atom_symbols if a in scope}
        blocked = block_model(script, scope, {atom("b__x_ge_1"), atom("ok")})
        assert blocked.asserts[-1] == "(assert (not (and b__x_ge_1 (not b__x_ge_1_1) ok)))"


class TestDecode:
    def test_symbol_collision_decodes_through_the_script_table(self):
        p, clauses, script = colliding_script()
        table = symbol_table(clauses.atoms())
        assert dict(script.atom_symbols) == table
        assert table[atom("b__x_ge_1")] == "b__x_ge_1"
        assert table[atom("|x>=1|")] == "b__x_ge_1_1"
        symbols = [sym for _, sym in script.atom_symbols]
        for bits in itertools.product((False, True), repeat=len(symbols)):
            m = SmtModel(dict(zip(symbols, bits)), {"x": Fraction(1)})
            x, _ = decode(m, script, p.atoms)
            assert x == {a for a, sym in table.items() if a in set(p.atoms) and m.bools[sym]}

    def test_fresh_and_rank_symbols_are_dropped(self, pi1_text):
        p = parse_program(pi1_text)
        iota = p.irregular_atoms
        clauses = to_clauses(conj([input_completion(p, iota), build_ranking_formula(p, iota).formula]))
        script = emit_script(clauses, INT)
        assert ("__lr_lightOn", "__lr_lightOn") in script.var_symbols
        m = SmtModel(
            {s: False for _, s in script.atom_symbols},
            {"x": Fraction(12), "__lr_lightOn": Fraction(3)},
        )
        m.bools["switch"] = True
        m.bools["lightOn"] = True
        m.bools["b__x_ge_12"] = True
        for fresh in clauses.fresh_atoms:
            m.bools[fresh.name] = True
        x, valuation = decode(m, script, p.atoms)
        assert sorted(at.name for at in x) == ["lightOn", "switch", "|x>=12|"]
        assert valuation == {"x": Fraction(12)}

    def test_empty_vocabulary(self):
        x, valuation = decode(SmtModel({}, {}), SmtScript(logic="QF_LIA"), [])
        assert x == frozenset() and valuation == {}


class TestRunSolver:
    def test_integer_gap_is_unsat(self, solver_cmd):
        script = SmtScript(
            logic="QF_LIA", asserts=("(assert (> x 4))", "(assert (< x 5))"), var_symbols=(("x", "x"),)
        )
        assert run_solver(script, solver_cmd).status is Status.UNSAT

    def test_real_gap_is_sat(self, solver_cmd):
        script = SmtScript(
            logic="QF_LRA", asserts=("(assert (> x 4))", "(assert (< x 5))"), var_symbols=(("x", "x"),)
        )
        result = run_solver(script, solver_cmd)
        assert result.status is Status.SAT
        assert Fraction(4) < result.model.nums["x"] < Fraction(5)

    def test_variable_only_in_a_disequality_gets_a_value(self, solver_cmd):
        script = SmtScript(logic="QF_LIA", asserts=("(assert (not (= x 0)))",), var_symbols=(("x", "x"),))
        result = run_solver(script, solver_cmd)
        assert result.status is Status.SAT
        assert result.model.nums["x"] != 0

    def test_blocked_values_leave_the_last_pair(self, solver_cmd):
        box = ["(assert (and (<= 0 x) (<= x 3)))", "(assert (and (<= 0 y) (<= y 3)))"]
        blocked = [
            f"(assert (not (and (= x {i}) (= y {j}))))"
            for i in range(4)
            for j in range(4)
            if (i, j) != (2, 1)
        ]
        xy = (("x", "x"), ("y", "y"))
        script = SmtScript(logic="QF_LIA", asserts=tuple(box + blocked), var_symbols=xy)
        result = run_solver(script, solver_cmd, timeout=30.0)
        assert result.status is Status.SAT
        assert (result.model.nums["x"], result.model.nums["y"]) == (2, 1)
        last = "(assert (not (and (= x 2) (= y 1))))"
        full = SmtScript(logic="QF_LIA", asserts=tuple(box + blocked + [last]), var_symbols=xy)
        assert run_solver(full, solver_cmd, timeout=30.0).status is Status.UNSAT

    def test_real_disequality_at_a_bound(self, solver_cmd):
        script = SmtScript(
            logic="QF_LRA",
            asserts=("(assert (<= 4.0 x))", "(assert (<= x 5.0))", "(assert (not (= x 4.0)))"),
            var_symbols=(("x", "x"),),
        )
        result = run_solver(script, solver_cmd)
        assert result.status is Status.SAT
        assert Fraction(4) < result.model.nums["x"] <= Fraction(5)

    def test_empty_script_is_sat(self, solver_cmd):
        result = run_solver(SmtScript(logic="QF_LIA"), solver_cmd)
        assert result.status is Status.SAT
        assert result.model.bools == {} and result.model.nums == {}

    def test_spawn_failure(self):
        with pytest.raises(SolverSpawnFailure):
            run_solver(SmtScript(logic="QF_LIA"), "casp2smt-no-such-solver")

    def test_file_placeholder_gives_the_stdin_result(self, solver_cmd, pi1_text):
        _, _, script = pi1_script(pi1_text)
        over_stdin = run_solver(script, solver_cmd)
        over_file = run_solver(script, solver_cmd + " {file}")
        assert over_stdin.status is over_file.status is Status.SAT
        assert over_file.model == over_stdin.model

    def test_file_placeholder_removes_the_temp_file(self, tmp_path):
        record = tmp_path / "argument.txt"
        solver = tmp_path / "recording_solver.py"
        solver.write_text(
            "import pathlib, sys\n"
            f"pathlib.Path({str(record)!r}).write_text(sys.argv[1])\n"
            "print('unsat')\n"
        )
        result = run_solver(SmtScript(logic="QF_LIA"), [sys.executable, str(solver), "{file}"])
        assert result.status is Status.UNSAT
        passed = Path(record.read_text())
        assert passed.suffix == ".smt2"
        assert not passed.exists()

    def test_file_placeholder_gets_an_empty_stdin(self, tmp_path):
        """A ``{file}`` solver cannot read, or wait on, the caller's stdin."""
        solver = tmp_path / "reading_solver.py"
        solver.write_text("import sys\nsys.stdin.read()\nprint('unsat')\n")
        # the caller's stdin: a pipe that stays open while the test holds it
        read_end, write_end = os.pipe()
        saved = os.dup(0)
        os.dup2(read_end, 0)
        try:
            cmd = [sys.executable, str(solver), "{file}"]
            result = run_solver(SmtScript(logic="QF_LIA"), cmd, timeout=5.0)
        finally:
            os.dup2(saved, 0)
            for fd in (saved, read_end, write_end):
                os.close(fd)
        assert result.status is Status.UNSAT

    def test_one_process_answers_sat_then_unsat(self, solver_cmd):
        script = SmtScript(logic="QF_LIA", asserts=("(assert (> x 4))",), var_symbols=(("x", "x"),))
        with SolverSession(solver_cmd) as session:
            assert run_solver(script, session).status is Status.SAT
            pid = session.proc.pid
            narrowed = replace(script, asserts=script.asserts + ("(assert (< x 5))",))
            assert run_solver(narrowed, session).status is Status.UNSAT
            assert session.proc.pid == pid

    def test_a_script_that_does_not_extend_the_sent_one(self, solver_cmd):
        script = SmtScript(logic="QF_LIA", asserts=("(assert (> x 4))",), var_symbols=(("x", "x"),))
        with SolverSession(solver_cmd) as session:
            run_solver(script, session)
            with pytest.raises(ValueError):
                run_solver(replace(script, logic="QF_LRA"), session)


def whole_output(text: str):
    """The reply as a parse of the solver's whole output reads it: the first
    non-blank line, then after ``sat`` every later line as the model."""
    answer, rest = None, []
    for line in text.splitlines():
        if answer is not None:
            rest.append(line)
        elif line.strip() in ("sat", "unsat", "unknown"):
            answer = line.strip()
        elif line.strip():
            raise SolverProtocolError(f"unrecognized solver output: {line.strip()!r}")
    if answer is None:
        return None
    model = parse_model("\n".join(rest)) if answer == "sat" else None
    return SolverResult(Status(answer), model)


def read_in_parts(text: str, cuts: list[int], eof: bool):
    """Feed the output to :func:`parse_reply` cut at the given points, as
    reads that end where they end; at the end of output, if ``eof``."""
    out = ""
    for start, end in itertools.pairwise([0, *sorted(cuts), len(text)]):
        out += text[start:end]
        reply = parse_reply(out, False)
        if reply is not None:
            return reply[0]
    reply = parse_reply(out, True) if eof else None
    return reply and reply[0]


DEFINITIONS = st.one_of(
    st.tuples(st.just("Bool"), st.sampled_from(["true", "false"])),
    st.tuples(st.just("Int"), st.sampled_from(["0", "7", "(- 12)"])),
    st.tuples(st.just("Real"), st.sampled_from(["2.0", "(- 0.5)", "(/ 1.0 3.0)", "(- (/ 7.0 2.0))"])),
)


class TestReplyReader:
    @given(
        st.sampled_from(["", "\n", "  \n"]),
        st.sampled_from(["sat", "unsat", "unknown"]),
        st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True), DEFINITIONS, max_size=5),
        st.data(),
    )
    def test_a_reply_in_parts_reads_as_the_whole_output(self, lead, answer, definitions, data):
        body = "".join(f"\n  (define-fun {s} () {sort} {v})" for s, (sort, v) in definitions.items())
        text = f"{lead}{answer}\n" + (f"({body}\n)\n" if answer == "sat" else "")
        cuts = data.draw(st.lists(st.integers(0, len(text)), max_size=8))
        assert read_in_parts(text, cuts, eof=False) == whole_output(text)

    @given(st.text(alphabet=st.sampled_from("()ast un\nk-/0.1x")) | st.text(), st.lists(st.integers(0, 60)))
    def test_garbage_raises_only_protocol_errors(self, text, cuts):
        try:
            read_in_parts(text, [c for c in cuts if c <= len(text)], eof=True)
        except SolverProtocolError:
            pass


class TestBridgeFaithfulness:
    def test_hours_script_model(self, solver_cmd, pi1_text):
        p, clauses, script = pi1_script(pi1_text)
        result = run_solver(script, solver_cmd)
        assert result.status is Status.SAT
        x, valuation = decode(result.model, script, p.atoms)
        assert sorted(at.name for at in x) == ["lightOn", "switch", "|x>=12|"]
        assert Fraction(12) <= valuation["x"] <= Fraction(23)

    def test_enumeration_matches_oracle_on_tight_programs(self, solver_cmd):
        rng = random.Random(73)
        from casp2smt.program import is_tight

        checked = 0
        for _ in range(25):
            p = random_cas_program(rng, max_atoms=5, max_rules=6, tight=True)
            if not is_tight(p):
                continue
            checked += 1
            clauses = to_clauses(input_completion(p, p.irregular_atoms))
            variables = {v for x in p.irregular_atoms for v in x.constraint.variables}
            script = emit_script(clauses, INT, dict.fromkeys(sorted(variables), (-8, 8)))
            scope = set(p.atoms)
            seen = []
            current = script
            while True:
                result = run_solver(current, solver_cmd)
                if result.status is not Status.SAT:
                    break
                x, _ = decode(result.model, current, p.atoms)
                seen.append(x)
                current = block_model(current, scope, x)
            expected = constraint_models(
                input_completion(p, p.irregular_atoms),
                p.atoms,
                box=(-8, 8),
            )
            assert families(seen) == families(expected)
        assert checked >= 15
