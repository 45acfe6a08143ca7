import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from casp2smt import cli
from casp2smt.errors import InconsistentConfig, NotTight
from casp2smt.lincon import LexiconKind
from casp2smt.parser import parse_program
from casp2smt.pipeline import (
    Encoding,
    Fragment,
    Mode,
    SolveConfig,
    Status,
    classify_fragment,
    render_report,
    solve,
    verify,
)
from casp2smt.program import ORACLE_CAP, atom

from .conftest import families
from .randprog import random_cas_program

INT = LexiconKind.INTEGER_LINEAR
REAL = LexiconKind.REAL_LINEAR

NONTIGHT = "a :- b.\nb :- a.\n{c}.\na :- c.\n:- not a.\n"


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


class TestClassifyFragment:
    def test_hours_program_is_integer_linear(self, pi1_text):
        assert classify_fragment(parse_program(pi1_text), INT) is Fragment.IL

    def test_difference_constraints(self):
        p = parse_program(":- |x - y <= 3|.\n{a}.\na :- |2*x - 2*y > 0|.\n")
        assert classify_fragment(p, INT) is Fragment.DL

    def test_real_lexicon(self, pi1_text):
        assert classify_fragment(parse_program(pi1_text), REAL) is Fragment.L


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

    def test_extended_valuation_blocking(self, solver_cmd, pi1_text):
        report = solve(
            parse_program(pi1_text),
            SolveConfig(
                solver_cmd=solver_cmd, extended=True, var_box=(0, 23), enumerate=0
            ),
        )
        assert len(report.results) == 12

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


def stalling_solver(directory) -> str:
    """A fake solver that answers its first call with a model where only
    ``a`` holds, then sleeps past any short timeout on every later call."""
    path = directory / "stalling_solver.py"
    path.write_text(
        "import pathlib, sys, time\n"
        "sys.stdin.read()\n"
        f"mark = pathlib.Path({str(directory / 'called')!r})\n"
        "if mark.exists():\n"
        "    time.sleep(30)\n"
        "mark.touch()\n"
        "print('sat')\n"
        "print('(model (define-fun a () Bool true))')\n"
    )
    return f"{sys.executable} {path}"


CHOICES = "{a}.\n{b}.\n"


class TestPartialEnumeration:
    """A timeout after some answers keeps them and reports UNKNOWN."""

    def test_report_keeps_answers_and_is_unknown(self, tmp_path):
        cmd = stalling_solver(tmp_path)
        report = solve(parse_program(CHOICES), SolveConfig(solver_cmd=cmd, enumerate=0, timeout=1.0))
        assert report.status is Status.UNKNOWN
        assert result_families(report) == {frozenset({"a"})}

    def test_cli_prints_answers_and_exits_unknown(self, tmp_path, capsys, monkeypatch):
        # the CLI has no timeout flag; shorten the default it passes on
        from_args = cli.config_from_args
        monkeypatch.setattr(cli, "config_from_args", lambda args: replace(from_args(args), timeout=1.0))
        program = tmp_path / "choices.lp"
        program.write_text(CHOICES)
        code = cli.main([str(program), "--solver", stalling_solver(tmp_path), "--enumerate", "0"])
        assert code == cli.EXIT_UNKNOWN
        assert capsys.readouterr().out == "Answer 1: a\nUNKNOWN\n"


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
