import random

import pytest

from casp2smt.errors import IrregularHead, ParseError
from casp2smt.parser import parse_constraint, parse_program, render_program
from casp2smt.program import Rule, atom, heads, input_answer_sets

from .conftest import families
from .randprog import random_cas_program, random_program

a, b_ = atom("a"), atom("b")


class TestParse:
    def test_hours_program_shape(self, pi1_text):
        p = parse_program(pi1_text)
        assert len(p.rules) == 8
        assert sorted(x.name for x in p.irregular_atoms) == [
            "|x<0|",
            "|x<12|",
            "|x>23|",
            "|x>=12|",
        ]

    def test_choice_rule_desugars(self):
        p = parse_program("{switch}.")
        assert p.rules == (
            Rule(atom("switch"), frozenset(), frozenset(), frozenset({atom("switch")})),
        )

    def test_choice_with_body(self):
        got = parse_program("{a} :- b, not c.")
        want = parse_program("a :- b, not c, not not a.")
        assert got.rules == want.rules

    def test_desugaring_preserves_answer_sets(self):
        got = parse_program("{a} :- b.\nb.\n")
        want = parse_program("a :- not not a, b.\nb.\n")
        assert input_answer_sets(got) == input_answer_sets(want)

    def test_equivalent_constraint_texts_share_one_atom(self):
        p = parse_program(":- |x < 12|.\n:- |1*x < 12|.\n:- | 2*x<24 |.\n")
        assert len(p.irregular_atoms) == 1
        first, second, third = (next(iter(r.pos)) for r in p.rules)
        assert first is second is third

    def test_each_atom_is_one_object(self):
        first, second = parse_program("a :- b.\nb :- a.\n").rules
        assert first.head is next(iter(second.pos))
        assert second.head is next(iter(first.pos))

    def test_duplicate_body_literals_collapse(self):
        p = parse_program("a :- b, b, not c, not c.")
        (r,) = p.rules
        assert r.pos == frozenset({b_}) and len(r.neg) == 1

    def test_atom_in_both_polarities_is_kept(self):
        p = parse_program("a :- b, not b.")
        (r,) = p.rules
        assert r.pos == r.neg == frozenset({b_})
        assert input_answer_sets(p) == [frozenset()]

    def test_comments_and_whitespace(self):
        p = parse_program("% a comment\n  a.  % trailing\n\n")
        assert heads(p) == frozenset({a})

    def test_empty_program(self):
        assert parse_program("").rules == ()

    @pytest.mark.parametrize("text", ["x__lr_a > 0", "a__def_1 < 2", "not > 0"])
    def test_any_lowercase_name_is_a_constraint_variable(self, text):
        (r,) = parse_program(f":- |{text}|.").rules
        (a,) = r.pos
        assert a.constraint == parse_constraint(text)
        assert a.constraint.variables == (text.split()[0],)

    def test_constraint_spans_a_line_break(self):
        p = parse_program(":- a, |2*x\n  + y >= 1|.\na.\n")
        assert p == parse_program(":- a, |2*x + y >= 1|.\na.\n")


class TestParseErrors:
    def test_irregular_head(self):
        with pytest.raises(IrregularHead):
            parse_program("|x < 12| :- a.")

    def test_irregular_choice_head(self):
        with pytest.raises(IrregularHead):
            parse_program("{|x < 12|}.")

    def test_reserved_definition_prefix(self):
        # names start with a lowercase letter, generated names with __
        with pytest.raises(ParseError):
            parse_program("__def_1 :- a.")

    def test_reserved_rank_prefix_in_constraint(self):
        with pytest.raises(ParseError):
            parse_program(":- |__lr_a > 0|.")

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("a.\n:- a, |x < 1 2|.", 2, 14),
            ("a :- |x + ? < 1|.", 1, 11),
            (":- |x < 1 % c|.", 1, 11),
            ("a.\n:- |x < 1.", 2, 4),
            ("a :- |x - x >= 1|.", 1, 7),
            (":- |x\n  < y|.", 2, 5),
            # the first bad character in the text, before the bar that closes
            (":- |x < 1.\n:- |y > 2|.", 1, 10),
        ],
    )
    def test_error_in_a_constraint_has_its_program_position(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse_program(text)
        assert (info.value.line, info.value.column) == (line, column)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_program("a :- b\nc.")  # missing dot: 'c' is unexpected... then '.'
        assert info.value.line >= 1

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_program("a :- b")

    def test_unterminated_constraint(self):
        with pytest.raises(ParseError):
            parse_program(":- |x < 12.")

    def test_uppercase_identifier(self):
        with pytest.raises(ParseError):
            parse_program("Alpha.")

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_program("a & b.")


class TestRoundTrip:
    def test_hours_program(self, pi1_text):
        p = parse_program(pi1_text)
        assert parse_program(render_program(p)) == p

    def test_random_programs(self):
        rng = random.Random(79)
        for _ in range(60):
            p = random_program(rng)
            assert parse_program(render_program(p)) == p

    def test_random_constraint_programs(self):
        rng = random.Random(83)
        for _ in range(60):
            p = random_cas_program(rng)
            assert parse_program(render_program(p)) == p

    def test_bare_denial_round_trips(self):
        p = parse_program(".")
        assert p.rules == (Rule(None, frozenset(), frozenset(), frozenset()),)
        assert parse_program(render_program(p)) == p
