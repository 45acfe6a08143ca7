import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casp2smt import cli, pipeline
from casp2smt.errors import InconsistentConfig, NotTight
from casp2smt.lincon import LexiconKind, LinearConstraint, LinExpr, Rel
from casp2smt.parser import parse_program
from casp2smt.pipeline import (
    Encoding,
    Mode,
    SolveConfig,
    Status,
    render_report,
    solve,
    verify,
)
from casp2smt.program import ORACLE_CAP, Program, Rule, atom, constraint_atom
from casp2smt.smtlib import block_model, run_solver

from .conftest import families
from .randprog import random_cas_program

REAL = LexiconKind.REAL_LINEAR

NONTIGHT = "a :- b.\nb :- a.\n{c}.\na :- c.\n:- not a.\n"

COMMANDS = "(check-sat)\n(get-model)\n"


def result_families(report):
    return {frozenset(a.name for a in r.atoms) for r in report.results}


def extended_families(report):
    return {
        (
            frozenset(a.name for a in r.atoms),
            frozenset((v, Fraction(n)) for v, n in (r.valuation or {}).items()),
        )
        for r in report.results
    }


def valuations_by_answer_set(report):
    """Each answer set's valuations, in the order they were reported."""
    listed: dict[frozenset, list] = {}
    for r in report.results:
        listed.setdefault(frozenset(a.name for a in r.atoms), []).append(r.valuation)
    return listed


class TestVerify:
    def test_hours_answer_set(self, pi1_text):
        p = parse_program(pi1_text)
        x = {atom("switch"), atom("lightOn"), atom("|x>=12|")}
        assert verify(p, x, (0, 23))

    def test_wrong_constraint_atom(self, pi1_text):
        p = parse_program(pi1_text)
        x = {atom("switch"), atom("lightOn"), atom("|x<12|")}
        assert not verify(p, x, (0, 23))

    def test_empty_set_fails_the_denial(self, pi1_text):
        assert not verify(parse_program(pi1_text), set(), (0, 23))

    def test_stable_but_infeasible_set(self, pi1_text):
        p = parse_program(pi1_text)
        assert not verify(p, {atom("switch"), atom("lightOn")}, (0, 23))


class TestOracleSolve:
    def test_default_single_answer(self, pi1_text):
        report = solve(parse_program(pi1_text), SolveConfig(oracle_only=True))
        assert report.status is Status.SAT and report.tight
        assert report.encoding_used is Encoding.ICOMP_ONLY
        assert result_families(report) == {
            frozenset({"switch", "lightOn", "|x>=12|"})
        }

    def test_extended_enumeration(self, pi1_text):
        report = solve(
            parse_program(pi1_text),
            SolveConfig(oracle_only=True, extended=True, var_box=(0, 23), enumerate=0),
        )
        assert len(report.results) == 12
        values = sorted(r.valuation["x"] for r in report.results)
        assert values == [Fraction(v) for v in range(12, 24)]
        assert result_families(report) == {
            frozenset({"switch", "lightOn", "|x>=12|"})
        }

    def test_nontight_program(self):
        report = solve(parse_program(NONTIGHT), SolveConfig(oracle_only=True, enumerate=0))
        assert report.encoding_used is Encoding.ICOMP_PLUS_RANKING
        assert not report.tight
        assert result_families(report) == {frozenset({"a", "b", "c"})}

    def test_tight_only_mode_rejects_cycles(self):
        with pytest.raises(NotTight):
            solve(parse_program(NONTIGHT), SolveConfig(oracle_only=True, mode=Mode.TIGHT_ONLY))

    def test_unsat_program(self):
        report = solve(parse_program("a.\n:- a.\n"), SolveConfig(oracle_only=True))
        assert report.status is Status.UNSAT and report.results == []

    def test_real_lexicon_witness(self):
        p = parse_program("hot :- |x > 4|.\n:- not hot.\n:- |x >= 5|.\n")
        report = solve(
            p, SolveConfig(oracle_only=True, logic=REAL, extended=True)
        )
        assert report.status is Status.SAT
        (result,) = report.results
        assert Fraction(4) < result.valuation["x"] < Fraction(5)

    def test_integer_lexicon_same_program_is_unsat(self):
        p = parse_program("hot :- |x > 4|.\n:- not hot.\n:- |x >= 5|.\n")
        report = solve(p, SolveConfig(oracle_only=True, var_box=(-100, 100)))
        assert report.status is Status.UNSAT


class TestConfigValidation:
    def test_extended_enumeration_needs_box(self):
        with pytest.raises(InconsistentConfig):
            solve(parse_program("a."), SolveConfig(oracle_only=True, extended=True, enumerate=0))

    def test_real_extended_enumeration_is_rejected(self):
        with pytest.raises(InconsistentConfig):
            solve(
                parse_program("a."),
                SolveConfig(oracle_only=True, logic=REAL, extended=True, enumerate=0, var_box=(0, 1)),
            )

    def test_negative_enumerate(self):
        with pytest.raises(InconsistentConfig):
            solve(parse_program("a."), SolveConfig(oracle_only=True, enumerate=-1))


class TestSmtSolve:
    def test_hours_program(self, solver_cmd, pi1_text):
        report = solve(parse_program(pi1_text), SolveConfig(solver_cmd=solver_cmd, enumerate=0))
        assert result_families(report) == {
            frozenset({"switch", "lightOn", "|x>=12|"})
        }

    def test_extended_answers_take_one_check_per_answer_set(
        self, solver_cmd, pi1_text, monkeypatch
    ):
        """PI1 has one answer set: one check finds it, the box search lists
        its 12 valuations, and one more check shows there is no other."""
        checks = []

        def counted(script, solver, timeout):
            checks.append(script)
            return run_solver(script, solver, timeout)

        monkeypatch.setattr(pipeline, "run_solver", counted)
        report = solve(
            parse_program(pi1_text),
            SolveConfig(
                solver_cmd=solver_cmd, extended=True, var_box=(0, 23), enumerate=0
            ),
        )
        assert [r.valuation for r in report.results] == [{"x": v} for v in range(12, 24)]
        assert len(checks) == 2

    def test_differential_against_oracle(self, solver_cmd):
        rng = random.Random(89)
        for i in range(20):
            p = random_cas_program(rng, max_atoms=6, max_rules=7, tight=(i % 2 == 0))
            oracle = solve(
                p, SolveConfig(oracle_only=True, enumerate=0, var_box=(-8, 8))
            )
            smt = solve(
                p, SolveConfig(solver_cmd=solver_cmd, enumerate=0, var_box=(-8, 8))
            )
            assert result_families(oracle) == result_families(smt)
            assert oracle.status == smt.status
            for result in oracle.results:
                assert verify(p, result.atom_set, (-8, 8))

    def test_differential_extended(self, solver_cmd):
        rng = random.Random(97)
        for _ in range(6):
            p = random_cas_program(rng, max_atoms=4, max_rules=5, max_constraints=2)
            oracle = solve(
                p,
                SolveConfig(oracle_only=True, enumerate=0, extended=True, var_box=(-3, 3)),
            )
            smt = solve(
                p,
                SolveConfig(
                    solver_cmd=solver_cmd, enumerate=0, extended=True, var_box=(-3, 3)
                ),
            )
            assert extended_families(oracle) == extended_families(smt)
            assert valuations_by_answer_set(oracle) == valuations_by_answer_set(smt)

    @pytest.mark.parametrize(
        "text, bound, first",
        [
            ("p :- |x - y <= 5|.\n:- not p.\n", 10**6, [(-(10**6), -(10**6) + i) for i in range(3)]),
            ("p :- |x - y = 0|, |y >= 290|.\n:- not p.\n", 1000, [(v, v) for v in (290, 291, 292)]),
        ],
        ids=["dense", "sparse"],
    )
    def test_wide_box_lists_its_first_valuations(self, solver_cmd, text, bound, first):
        """Each variable walks only the range its constraints leave, so a
        wide box gives its first extended answers without walking the box."""
        p = parse_program(text)
        for cfg in (SolveConfig(oracle_only=True), SolveConfig(solver_cmd=solver_cmd)):
            cfg = replace(cfg, extended=True, enumerate=3, var_box=(-bound, bound))
            report = solve(p, cfg)
            assert len(result_families(report)) == 1
            assert [(r.valuation["x"], r.valuation["y"]) for r in report.results] == first

    def test_differential_reals(self, solver_cmd):
        rng = random.Random(113)
        for i in range(12):
            p = random_cas_program(rng, max_atoms=5, max_rules=6, n_vars=3, tight=(i % 2 == 0))
            for box in (None, (-2, 2)):
                oracle = solve(p, SolveConfig(oracle_only=True, logic=REAL, enumerate=0, var_box=box))
                smt = solve(
                    p, SolveConfig(solver_cmd=solver_cmd, logic=REAL, enumerate=0, var_box=box)
                )
                assert result_families(oracle) == result_families(smt)
                assert oracle.status == smt.status
                for result in oracle.results:
                    assert verify(p, result.atom_set, box, REAL)

    def test_force_ranking_agrees_on_tight_programs(self, solver_cmd):
        rng = random.Random(101)
        from casp2smt.program import is_tight

        for _ in range(10):
            p = random_cas_program(rng, max_atoms=5, max_rules=6, tight=True)
            assert is_tight(p)
            auto = solve(p, SolveConfig(solver_cmd=solver_cmd, enumerate=0, var_box=(-8, 8)))
            forced = solve(
                p,
                SolveConfig(
                    solver_cmd=solver_cmd,
                    enumerate=0,
                    var_box=(-8, 8),
                    mode=Mode.FORCE_RANKING,
                ),
            )
            assert auto.encoding_used is Encoding.ICOMP_ONLY
            assert forced.encoding_used is Encoding.ICOMP_PLUS_RANKING
            assert result_families(auto) == result_families(forced)

    def test_emit_path_writes_script(self, solver_cmd, pi1_text, tmp_path):
        target = tmp_path / "out.smt2"
        solve(
            parse_program(pi1_text),
            SolveConfig(solver_cmd=solver_cmd, emit_path=target),
        )
        text = target.read_text()
        assert text.startswith("(set-logic QF_LIA)\n")
        assert "(assert (= b__x_ge_12 (>= x 12)))" in text

    @pytest.mark.parametrize("name", ["fresh-atom", "rank-variable"])
    def test_program_names_that_look_generated(self, solver_cmd, name):
        """Built through the API, a program may name an atom like a Tseitin
        atom or a variable like a rank variable; the encoder's own names
        avoid them, so the solver finds every answer the oracle does."""
        p = GENERATED_LOOKALIKES[name]
        oracle = solve(p, SolveConfig(oracle_only=True, enumerate=0))
        smt = solve(p, SolveConfig(solver_cmd=solver_cmd, enumerate=0))
        assert result_families(smt) == result_families(oracle)
        assert len(oracle.results) >= 2


def _rule(head, pos=(), neg=(), dneg=()):
    return Rule(head, frozenset(pos), frozenset(neg), frozenset(dneg))


def _lookalikes() -> dict[str, Program]:
    a, b, c, d = atom("a"), atom("b"), atom("c"), atom("__def_1")
    # {a}. {b}. {__def_1}. c :- a, b. c :- b, not a.
    # :- c, not __def_1. :- __def_1, not c.
    fresh = Program((
        _rule(a, dneg=[a]), _rule(b, dneg=[b]), _rule(d, dneg=[d]),
        _rule(c, pos=[a, b]), _rule(c, pos=[b], neg=[a]),
        _rule(None, pos=[c], neg=[d]), _rule(None, pos=[d], neg=[c]),
    ))
    # {b}. a :- c. c :- a. c :- b. :- a, not |__lr_c - __lr_a >= 0|.
    ranks = constraint_atom(LinearConstraint(LinExpr.of({"__lr_c": 1, "__lr_a": -1}), Rel.GE, 0))
    rank = Program((
        _rule(b, dneg=[b]), _rule(a, pos=[c]), _rule(c, pos=[a]), _rule(c, pos=[b]),
        _rule(None, pos=[a], neg=[ranks]),
    ))
    return {"fresh-atom": fresh, "rank-variable": rank}


GENERATED_LOOKALIKES = _lookalikes()


CHOICES = "{a}.\n{b}.\n"

# the answer sets of CHOICES, in the order the stalling solver reports them
CHOICE_ANSWERS = [{"a"}, {"a", "b"}, {"b"}, set()]


def choices_model(x) -> str:
    """The solver's reply to a check of CHOICES whose answer is x."""
    return "sat\n(model (define-fun a () Bool {}) (define-fun b () Bool {}))".format(
        str("a" in x).lower(), str("b" in x).lower()
    )


def stalling_solver(directory, stall_at: int = 1) -> str:
    """A fake solver for CHOICES that writes its pid to ``pid`` and answers
    the checks before check ``stall_at`` (counted from 0 over all its
    processes) with the answer sets of CHOICE_ANSWERS in turn, then unsat;
    at check ``stall_at`` and after it sleeps past any short timeout. It
    answers each ``(get-model)`` line as it reads it, from stdin or, with a
    ``{file}`` argument appended, from the file, one process per check."""
    path = directory / "stalling_solver.py"
    replies = [choices_model(x) for x in CHOICE_ANSWERS] + ["unsat"]
    path.write_text(
        "import os, pathlib, sys, time\n"
        f"pathlib.Path({str(directory / 'pid')!r}).write_text(str(os.getpid()))\n"
        f"calls = pathlib.Path({str(directory / 'calls')!r})\n"
        "for line in open(sys.argv[1]) if sys.argv[1:] else sys.stdin:\n"
        "    if line.strip() != '(get-model)':\n"
        "        continue\n"
        "    n = len(calls.read_text()) if calls.exists() else 0\n"
        "    calls.write_text('.' * (n + 1))\n"
        f"    if n >= {stall_at}:\n"
        "        time.sleep(30)\n"
        f"    print({replies!r}[min(n, {len(replies) - 1})], flush=True)\n"
    )
    return f"{sys.executable} {path}"


class TestPartialEnumeration:
    """A timeout after some answers keeps them and reports UNKNOWN."""

    solver = staticmethod(stalling_solver)

    def test_report_keeps_answers_and_is_unknown(self, tmp_path):
        cmd = self.solver(tmp_path)
        report = solve(parse_program(CHOICES), SolveConfig(solver_cmd=cmd, enumerate=0, timeout=1.0))
        assert report.status is Status.UNKNOWN
        assert result_families(report) == {frozenset({"a"})}

    def test_cli_prints_answers_and_exits_unknown(self, tmp_path, capsys, monkeypatch):
        # the CLI has no timeout flag; shorten the default it passes on
        from_args = cli.config_from_args
        monkeypatch.setattr(cli, "config_from_args", lambda args: replace(from_args(args), timeout=1.0))
        program = tmp_path / "choices.lp"
        program.write_text(CHOICES)
        code = cli.main([str(program), "--solver", self.solver(tmp_path), "--enumerate", "0"])
        assert code == cli.EXIT_UNKNOWN
        assert capsys.readouterr().out == "Answer 1: a\nUNKNOWN\n"


class TestPartialEnumerationOverFile(TestPartialEnumeration):
    """The same through a ``{file}`` command, one process per check."""

    @staticmethod
    def solver(directory) -> str:
        return stalling_solver(directory) + " {file}"


class TestTimeoutFuzz:
    """A solver that stalls at a drawn check gives UNKNOWN exactly when the
    stall comes before the enumeration ends, keeps the answers found before
    it, and leaves no process behind."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.booleans())
    def test_stall_at_a_drawn_check(self, stall_at, enumerate_, over_file):
        # all four answer sets and the final unsat take five checks
        checks = min(enumerate_ or 5, 5)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            cmd = stalling_solver(directory, stall_at) + (" {file}" if over_file else "")
            cfg = SolveConfig(solver_cmd=cmd, enumerate=enumerate_, timeout=0.5)
            report = solve(parse_program(CHOICES), cfg)
            TestNoSolverOutlivesSolve.assert_gone(directory)
        stalled = stall_at < checks
        assert report.status is (Status.UNKNOWN if stalled else Status.SAT)
        kept = stall_at if stalled else min(checks, len(CHOICE_ANSWERS))
        assert [r.atom_set for r in report.results] == [
            {atom(n) for n in x} for x in CHOICE_ANSWERS[:kept]
        ]


# a model of "a :- |x > 0|. :- not a." but for x, which is no integer
HALF = (
    "(model (define-fun a () Bool true) (define-fun b__x_gt_0 () Bool true)"
    " (define-fun x () Int (/ 1 2)))"
)


class TestMalformedSolverOutput:
    @pytest.mark.parametrize(
        "model",
        [
            "(model (define-fun x () Int (/ 1 0)))",
            "(" * 3000 + ")" * 3000,
            "",
            '(error "model generation not enabled")',
            "()",
            HALF,
        ],
        ids=["division-by-zero", "deep-nesting", "no-model", "error-form", "empty-model", "half"],
    )
    def test_cli_exits_with_the_solver_error_code(self, tmp_path, capsys, model):
        code = cli.main([self.program(tmp_path), "--solver", self.solver(tmp_path, model)])
        assert code == cli.EXIT_SOLVER_ERROR
        assert capsys.readouterr().err.startswith("casp2smt: solver error: ")

    def test_non_integer_value_in_an_extended_enumeration(self, tmp_path, capsys):
        """The in-process check rejects the value: over QF_LIA every value
        of a model must be an integer."""
        model = HALF.replace("(/ 1 2)", "1.5")
        args = ["--extended", "--var-box", "0", "5", "--enumerate", "0"]
        code = cli.main([self.program(tmp_path), "--solver", self.solver(tmp_path, model), *args])
        assert code == cli.EXIT_SOLVER_ERROR
        assert capsys.readouterr().err.startswith("casp2smt: solver error: ")

    def test_value_outside_the_box(self, tmp_path, capsys):
        """The box bounds every variable, so a model beyond it is no answer
        set of the boxed program."""
        model = HALF.replace("(/ 1 2)", "9")
        solver = self.solver(tmp_path, model)
        code = cli.main([self.program(tmp_path), "--solver", solver, "--var-box", "0", "5"])
        assert code == cli.EXIT_SOLVER_ERROR
        assert "is no answer set" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [[], ["--extended", "--var-box", "0", "5"]],
        ids=["answer-sets", "extended"],
    )
    def test_a_repeated_answer_set(self, tmp_path, capsys, args):
        """A solver that ignores the blocking assertion and answers with the
        same answer set again is caught, not enumerated without end."""
        model = HALF.replace("(/ 1 2)", "1")
        solver = self.solver(tmp_path, model)
        code = cli.main([self.program(tmp_path), "--solver", solver, "--enumerate", "0", *args])
        assert code == cli.EXIT_SOLVER_ERROR
        assert "repeated the answer set" in capsys.readouterr().err

    @staticmethod
    def program(directory) -> str:
        program = directory / "p.lp"
        program.write_text("a :- |x > 0|.\n:- not a.\n")
        return str(program)

    @staticmethod
    def solver(directory, model: str) -> str:
        solver = directory / "bad_solver.py"
        solver.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(get-model)':\n"
            f"        print('sat')\n        print({model!r}, flush=True)\n"
        )
        return f"{sys.executable} {solver}"


# solver output built from the symbols of FUZZED's script, and a few others
_DEFINE_FUN = st.builds(
    "(define-fun {} () {} {})".format,
    st.sampled_from(["a", "b", "b__x_gt_0", "x", "y"]),
    st.sampled_from(["Bool", "Int", "Real"]),
    st.sampled_from(
        ["true", "false", "0", "1", "7", "1.5", "(- 2)", "(/ 1 2)", "(/ 1 0)", "(to_real 3)", "x", "()"]
    ),
)
_MODEL = st.builds(
    "{}{}{})".format,
    st.sampled_from(["(model ", "(", "(error "]),
    st.lists(_DEFINE_FUN, max_size=5).map(" ".join),
    st.sampled_from(["", ")"]),
)
# models of FUZZED, the answer sets {b} and {a, |x>0|}
_ANSWERS = st.sampled_from(
    [
        "(model (define-fun b () Bool true))",
        "(model (define-fun a () Bool true) (define-fun b__x_gt_0 () Bool true) (define-fun x () Int 1))",
    ]
)
# a reply the session reads to its end, so the fake gets the next check
_COMPLETE_REPLY = st.sampled_from(["unsat\n", "unknown\n"]) | (_ANSWERS | _MODEL).map("sat\n{}\n".format)
_ANY_REPLY = (
    _COMPLETE_REPLY
    | st.text(alphabet=st.sampled_from("()satunkowdefi \n-/01.xb"), max_size=40)
    | st.tuples(_COMPLETE_REPLY, st.integers(0, 80)).map(lambda t: t[0][: t[1]])
)
FUZZED = "a :- |x > 0|.\n{b}.\n:- not a, not b.\n"


class TestSolverOutputFuzz:
    """Whatever a solver answers, the CLI ends with an answer status or the
    solver error code, never with an uncaught exception."""

    solver = (
        "import json, sys\n"
        "replies = json.load(open(sys.argv[1]))\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '(get-model)':\n"
        "        sys.stdout.write(replies.pop(0))\n"
        "        sys.stdout.flush()\n"
        "        if not replies:\n"
        "            break\n"
    )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_COMPLETE_REPLY, max_size=2),
        _ANY_REPLY,
        st.sampled_from(
            [
                [],
                ["--enumerate", "0"],
                ["--enumerate", "2", "--logic", "lra"],
                ["--extended"],
                ["--extended", "--var-box", "-1", "1", "--enumerate", "0"],
            ]
        ),
    )
    def test_cli_exits_with_an_answer_or_a_solver_error(self, complete, last, args):
        """The fake answers the n-th ``(get-model)`` with the n-th reply and
        exits after the last, which alone may be cut short, so no check waits
        for output that never comes."""
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            (directory / "p.lp").write_text(FUZZED)
            (directory / "solver.py").write_text(self.solver)
            (directory / "replies.json").write_text(json.dumps([*complete, last]))
            solver = f"{sys.executable} {directory / 'solver.py'} {directory / 'replies.json'}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(directory / "p.lp"), "--solver", solver, *args])
        assert code in (cli.EXIT_SAT, cli.EXIT_UNSAT, cli.EXIT_UNKNOWN, cli.EXIT_SOLVER_ERROR)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == cli.EXIT_SOLVER_ERROR:
            assert err.getvalue().startswith("casp2smt: solver error: ")


def replying_solver(directory, replies) -> str:
    """A fake interactive solver that writes its pid to ``pid`` and answers
    the n-th ``(get-model)`` line with the n-th reply. With no reply left,
    and at the end of its input, it sleeps, so only a kill ends it soon;
    with ``replies`` None it exits before reading anything."""
    path = directory / "replying_solver.py"
    path.write_text(
        "import os, pathlib, sys, time\n"
        f"pathlib.Path({str(directory / 'pid')!r}).write_text(str(os.getpid()))\n"
        f"replies = {replies!r}\n"
        "if replies is None:\n"
        "    sys.exit()\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '(get-model)':\n"
        "        if not replies:\n"
        "            break\n"
        "        print(replies.pop(0), flush=True)\n"
        "time.sleep(60)\n"
    )
    return f"{sys.executable} {path}"


def a_is(value: str) -> str:
    return f"sat\n(model (define-fun a () Bool {value}))"


class TestNoSolverOutlivesSolve:
    """Every solver process is killed and reaped before ``solve`` returns."""

    @staticmethod
    def assert_gone(directory) -> None:
        pid = int((directory / "pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize(
        "enumerate, timeout, replies, status, answers",
        [
            (1, 60.0, [a_is("true"), a_is("false"), "unsat"], Status.SAT, 1),
            (0, 60.0, [a_is("true"), a_is("false"), "unsat"], Status.SAT, 2),
            (0, 1.0, [a_is("true")], Status.UNKNOWN, 1),
        ],
        ids=["first-of-two", "to-unsat", "timeout"],
    )
    def test_solve(self, tmp_path, enumerate, timeout, replies, status, answers):
        cmd = replying_solver(tmp_path, replies)
        cfg = SolveConfig(solver_cmd=cmd, enumerate=enumerate, timeout=timeout)
        report = solve(parse_program("{a}.\n"), cfg)
        assert (report.status, len(report.results)) == (status, answers)
        self.assert_gone(tmp_path)

    @pytest.mark.parametrize(
        "replies",
        [["sat\n(model (define-fun a () Bool (/ 1 0)))"], None],
        ids=["malformed-model", "early-exit"],
    )
    def test_cli_solver_error(self, tmp_path, capsys, replies):
        program = tmp_path / "p.lp"
        program.write_text("{a}.\n")
        code = cli.main([str(program), "--solver", replying_solver(tmp_path, replies), "--enumerate", "0"])
        assert code == cli.EXIT_SOLVER_ERROR
        err = capsys.readouterr().err
        assert err.startswith("casp2smt: solver error: ") and "Traceback" not in err
        self.assert_gone(tmp_path)

    def test_cli_reads_a_model_sent_in_two_parts(self, tmp_path, capsys):
        solver = tmp_path / "pausing_solver.py"
        solver.write_text(
            "import sys, time\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(get-model)':\n"
            "        print('sat\\n(model (define-fun a () Bo', end='', flush=True)\n"
            "        time.sleep(0.3)\n"
            "        print('ol true))', flush=True)\n"
        )
        program = tmp_path / "p.lp"
        program.write_text("{a}.\n:- not a.\n")
        assert cli.main([str(program), "--solver", f"{sys.executable} {solver}"]) == cli.EXIT_SAT
        assert capsys.readouterr().out == "Answer 1: a\n"


def recording_solver(directory, replies, wait: float) -> str:
    """A fake interactive solver that logs to ``reads.jsonl`` each read up to
    and including a ``(get-model)`` line, and "EOF" when its input ends
    within ``wait`` seconds of one; it answers the n-th read, counted over
    all its processes, with the n-th reply."""
    path = directory / "recording_solver.py"
    log = str(directory / "reads.jsonl")
    path.write_text(
        "import json, os, select, sys\n"
        f"seen = open({log!r}).read().count('(get-model)') if os.path.exists({log!r}) else 0\n"
        f"log = open({log!r}, 'a')\n"
        f"replies = {replies!r}[seen:]\n"
        "chunk = ''\n"
        "for line in sys.stdin:\n"
        "    chunk += line\n"
        "    if line.strip() == '(get-model)':\n"
        "        print(json.dumps(chunk), file=log, flush=True)\n"
        "        chunk = ''\n"
        f"        if select.select([sys.stdin], [], [], {wait})[0] and not sys.stdin.readline():\n"
        "            print(json.dumps('EOF'), file=log, flush=True)\n"
        "        print(replies.pop(0), flush=True)\n"
    )
    return f"{sys.executable} {path}"


class TestSessionProtocol:
    """One process per enumeration: the script once, then one blocking
    assertion per check, each followed by the same two commands."""

    ANSWERS = [{"a", "b"}, {"a"}, {"b"}, set()]

    def expected_reads(self) -> list[str]:
        p = parse_program(CHOICES)
        current = pipeline._encode(p, SolveConfig(), use_ranking=False)
        reads = [current.text + COMMANDS]
        for x in self.ANSWERS:
            current = block_model(current, set(p.atoms), {atom(n) for n in x})
            reads.append(current.asserts[-1] + "\n" + COMMANDS)
        return reads

    def replies(self) -> list[str]:
        return [choices_model(x) for x in self.ANSWERS] + ["unsat"]

    @pytest.mark.parametrize("k", [0, 2])
    def test_reads(self, tmp_path, k):
        cmd = recording_solver(tmp_path, self.replies(), wait=1.0 if k else 0.0)
        report = solve(parse_program(CHOICES), SolveConfig(solver_cmd=cmd, enumerate=k))
        assert result_families(report) == {frozenset(x) for x in self.ANSWERS[: k or None]}
        lines = (tmp_path / "reads.jsonl").read_text().splitlines()
        reads = [json.loads(line) for line in lines]
        expected = self.expected_reads()
        assert reads == (expected[:k] + ["EOF"] if k else expected)


class TestOracleCap:
    def test_cli_reports_the_cap_without_a_traceback(self, tmp_path, capsys):
        program = tmp_path / "wide.lp"
        program.write_text("".join(f"{{a{i}}}.\n" for i in range(ORACLE_CAP + 1)))
        code = cli.main([str(program), "--oracle"])
        assert code == cli.EXIT_OTHER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"casp2smt: {ORACLE_CAP + 1} atoms exceed the oracle cap of {ORACLE_CAP}\n"
        )


class TestBadInput:
    def test_constraint_without_variables_is_a_parse_error(self, tmp_path, capsys):
        program = tmp_path / "cancel.lp"
        program.write_text("a :- |x - x >= 1|.\n")
        assert cli.main([str(program), "--oracle"]) == cli.EXIT_PARSE_ERROR
        assert "constraint has no variables" in capsys.readouterr().err

    def test_program_file_that_is_not_utf8(self, tmp_path, capsys):
        program = tmp_path / "latin1.lp"
        program.write_bytes("caf\u00e9.\n".encode("latin-1"))
        assert cli.main([str(program), "--oracle"]) == cli.EXIT_OTHER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"casp2smt: cannot read {program}: ")

    def test_usage_error_exits_with_the_configuration_code(self, tmp_path, capsys):
        program = tmp_path / "p.lp"
        program.write_text("a.\n")
        assert cli.main([str(program), "--enumerate", "x"]) == cli.EXIT_CONFIG_ERROR
        assert "invalid int value" in capsys.readouterr().err
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: casp2smt")

    def test_emit_path_that_cannot_be_written(self, tmp_path, capsys):
        program = tmp_path / "p.lp"
        program.write_text("a.\n")
        target = tmp_path / "no-such-dir" / "x.smt2"
        assert cli.main([str(program), "--oracle", "--emit-smtlib", str(target)]) == cli.EXIT_OTHER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("casp2smt: ") and str(target) in captured.err


    @pytest.mark.parametrize(
        "args",
        [["--oracle", "--enumerate", "0"], ["--oracle", "--enumerate", "1"], ["--help"]],
        ids=["long-output", "short-output", "help"],
    )
    def test_closed_stdout_exits_without_a_traceback(self, tmp_path, args):
        program = tmp_path / "ten.lp"
        program.write_text("".join(f"{{a{i}}}.\n" for i in range(10)))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)  # short output then fails only at exit
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "casp2smt.cli", str(program), *args],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write)
        stderr = proc.stderr.decode()
        assert proc.returncode == cli.EXIT_OTHER_ERROR, stderr
        assert "Traceback" not in stderr and "Exception ignored" not in stderr


def cli_answers(capsys, args) -> tuple[int, set[str]]:
    code = cli.main(args)
    lines = capsys.readouterr().out.splitlines()
    return code, {line.split(": ", 1)[1] for line in lines if line.startswith("Answer ")}


class TestOracleAgreesWithSolver:
    """The CLI gives the same answers and exit code with --oracle and with
    the reference solver."""

    @pytest.mark.parametrize(
        "text, args, code, answers",
        [
            # atoms named like SMT-LIB constants or numeric symbols
            ("{false}.\n:- not false.\n", [], 0, {"false"}),
            ("{x}.\n:- not x.\na :- |x > 0|, x.\n", [], 0, {"x", "x a |x>0|"}),
            # variables named like SMT-LIB words, reported under their own names
            ("a :- |true > 0|.\n:- not a.\n", [], 0, {"a |true>0|"}),
            (
                "a :- |true + and > 3|.\n:- not a.\n",
                ["--extended", "--var-box", "0", "2"],
                0,
                {"a |and+true>3|  and=2 true=2"},
            ),
            # a multivariate constraint over the reals
            ("a :- |x + y > 2|.\n:- not a.\n", ["--logic", "lra"], 0, {"a |x+y>2|"}),
            # the box bounds the reals on both paths
            (
                "{a}.\n:- a, not |x > 100|.\n:- not a.\n",
                ["--logic", "lra", "--var-box", "0", "23"],
                1,
                set(),
            ),
        ],
        ids=[
            "smt-constant-name",
            "numeric-symbol-name",
            "smt-word-variable",
            "smt-word-variables-extended",
            "multivariate-reals",
            "box-over-reals",
        ],
    )
    def test_same_answers(self, solver_cmd, tmp_path, capsys, text, args, code, answers):
        program = tmp_path / "p.lp"
        program.write_text(text)
        base = [str(program), "--enumerate", "0", *args]
        assert cli_answers(capsys, base + ["--oracle"]) == (code, answers)
        assert cli_answers(capsys, base + ["--solver", solver_cmd]) == (code, answers)


class TestRenderReport:
    def test_text_single_answer(self, pi1_text):
        report = solve(parse_program(pi1_text), SolveConfig(oracle_only=True))
        assert render_report(report) == "Answer 1: switch lightOn |x>=12|"

    def test_text_extended_appends_values(self, pi1_text):
        report = solve(
            parse_program(pi1_text),
            SolveConfig(oracle_only=True, extended=True, var_box=(0, 23)),
        )
        assert render_report(report) == "Answer 1: switch lightOn |x>=12|  x=12"

    def test_text_unsat(self):
        report = solve(parse_program("a.\n:- a.\n"), SolveConfig(oracle_only=True))
        assert render_report(report) == "UNSATISFIABLE"

    def test_jsonl(self, pi1_text):
        report = solve(
            parse_program(pi1_text),
            SolveConfig(oracle_only=True, extended=True, var_box=(0, 23)),
        )
        (line,) = render_report(report, "jsonl").splitlines()
        payload = json.loads(line)
        assert payload == {
            "atoms": ["switch", "lightOn", "|x>=12|"],
            "valuation": {"x": 12},
            "encoding": "icomp",
            "tight": True,
        }
