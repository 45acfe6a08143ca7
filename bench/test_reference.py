"""Tests of the benchmark's reference checker.

Run from the root of the repository:

    python3 -m pytest -q bench/test_reference.py
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


def pi1() -> ref.RefProgram:
    """The paper's program PI1 over the hours 0..23."""

    def x(rel: str, k: int) -> ref.Constraint:
        return ref.Constraint.make({"x": Fraction(1)}, rel, Fraction(k))

    rules = [
        ref.RefRule("switch", dneg=("switch",)),
        ref.RefRule("lightOn", pos=("switch",), neg=("am",)),
        ref.RefRule(None, neg=("lightOn",)),
        ref.RefRule("am", dneg=("am",)),
        ref.RefRule(None, pos=(x("<", 12),), neg=("am",)),
        ref.RefRule(None, pos=("am", x(">=", 12))),
        ref.RefRule(None, pos=(x("<", 0),)),
        ref.RefRule(None, pos=(x(">", 23),)),
    ]
    return ref.RefProgram(rules, box=(0, 23))


PI1_ANSWER = ref.answer_key(["switch", "lightOn", "|x>=12|"])


def test_pi1_has_twelve_extended_answers():
    p = pi1()
    assert ref.answer_sets(p) == {PI1_ANSWER}
    assert ref.extended_answer_count(p) == 12
    assert [v["x"] for v in ref.solutions(p, PI1_ANSWER)] == list(range(12, 24))


def test_corrupted_answer_set_is_rejected():
    p = pi1()
    for extra in ("am", ref.parse_constraint("x<0")):
        assert not ref.is_input_answer_set(p, PI1_ANSWER | {extra})
    assert not ref.is_input_answer_set(p, PI1_ANSWER - {"lightOn"})
    assert ref.is_input_answer_set(p, PI1_ANSWER)


def test_wrong_valuation_is_rejected():
    p = pi1()
    assert ref.valuation_ok(p, PI1_ANSWER, {"x": Fraction(12)})
    assert not ref.valuation_ok(p, PI1_ANSWER, {"x": Fraction(11)})
    assert not ref.valuation_ok(p, PI1_ANSWER, {"x": Fraction(24)})
    assert not ref.valuation_ok(p, PI1_ANSWER, {"x": Fraction(25, 2)})
    assert not ref.valuation_ok(p, PI1_ANSWER, {"x": Fraction(12), "y": Fraction(0)})


def test_constraint_names_are_read_semantically():
    assert ref.parse_constraint("x-2*y>=-3") == ref.Constraint.make(
        {"x": Fraction(-2), "y": Fraction(4)}, "<=", Fraction(6)
    )
    assert ref.parse_constraint("2*x+4*y<6") == ref.parse_constraint("x + 2*y < 3")


def test_brute_force_matches_definition_on_random_programs():
    """Guessing only the atoms under negation and the constraint atoms gives
    the same sets as checking every subset of the atoms."""
    for p in wl.random_programs(random.Random(7))[:4]:
        everything = [
            frozenset(a for a, on in zip(p.atoms, bits) if on)
            for bits in itertools.product((False, True), repeat=len(p.atoms))
        ]
        assert set(ref.input_answer_sets(p)) == {x for x in everything if ref.is_input_answer_set(p, x)}
        assert len(ref.answer_sets(p)) == wl.RANDOM_ANSWERS


@pytest.fixture(scope="module")
def ring_script(tmp_path_factory):
    import cases

    case = cases.RingEncode(
        1, tmp_path_factory.mktemp("ring"), solver_cmd="unused",
        stub_cmd=f"{sys.executable} {BENCH / 'stub_solver.py'}",
    )
    case.build()
    case.prepare()
    ring = case.rings[0]
    case.ops()[0].call()
    return case, ring, case._path(ring.n).read_text()


def _ring_problems(case, ring, text):
    script = ref.SmtLibScript(text)
    everything = frozenset(a for a in ring.program().atoms if isinstance(a, str))
    problems = [] if case.check_candidate(script, ring, everything, ring.planted(everything)[1]) else ["planted"]
    case._path(ring.n).write_text(text)
    return problems + case.candidate_problems(ring)


def test_planted_ring_checks_pass(ring_script):
    assert _ring_problems(*ring_script) == []


def _without(text: str, wanted) -> str:
    """The script without its first clause whose literals satisfy
    ``wanted``; the script has one assertion per line."""
    script = ref.SmtLibScript(text)
    lines = text.splitlines()
    assert_lines = [i for i, line in enumerate(lines) if line.startswith("(assert ")]
    for i, node in zip(assert_lines, script.asserts):
        clause = script._clause(node)
        if clause is not None and wanted(set(clause)):
            return "\n".join(lines[:i] + lines[i + 1:]) + "\n"
    raise AssertionError("no such clause")


def test_script_missing_a_denial_clause_is_rejected(ring_script):
    """The clause of the denial :- r_1, not |x_1 >= c|."""
    case, ring, text = ring_script

    def denial(lits):
        rest = lits - {("r_1", False)}
        return len(rest) == 1 < len(lits) and all(s.startswith("b__x_1_") and pos for s, pos in rest)

    assert _ring_problems(case, ring, _without(text, denial)) != []


def test_script_missing_a_rule_clause_is_rejected(ring_script):
    """The clause of the rule r_1 :- r_0, e_0_1."""
    case, ring, text = ring_script
    rule = {("r_0", False), ("e_0_1", False), ("r_1", True)}
    assert _ring_problems(case, ring, _without(text, lambda lits: lits == rule)) != []
