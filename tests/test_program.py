import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casp2smt.errors import HeadsIntersectInput, OracleCapExceeded
from casp2smt.parser import parse_program
from casp2smt.program import (
    ORACLE_CAP,
    Program,
    Rule,
    atom,
    heads,
    input_answer_sets,
    is_input_answer_set,
    is_tight,
)

from .conftest import families, names
from .randprog import random_cas_program, random_program, random_subset, random_tight_program
from .semantics import powerset, reduct, satisfies_rule

a, b_, switch, light, am = map(atom, ("a", "b", "switch", "lightOn", "am"))


def P(text: str) -> Program:
    return parse_program(text)


class TestSatisfiesRule:
    def test_satisfied_body_and_head(self, acp_text):
        r = Rule(light, frozenset({switch}), frozenset({am}), frozenset())
        assert satisfies_rule({switch, light}, r)

    def test_denial_with_satisfied_body_fails(self):
        r = Rule(None, frozenset(), frozenset({light}), frozenset())
        assert not satisfies_rule(set(), r)

    def test_unsatisfied_body_makes_rule_true(self):
        r = Rule(light, frozenset({switch}), frozenset({am}), frozenset())
        assert satisfies_rule({am}, r)


class TestReduct:
    def test_light_program(self, acp_text):
        p = P(acp_text)
        r = reduct(p, {switch, light})
        assert set(r.rules) == {
            Rule(switch, frozenset(), frozenset(), frozenset()),
            Rule(light, frozenset({switch}), frozenset(), frozenset()),
        }

    def test_positive_program_is_its_own_reduct(self):
        p = P("a :- b.\nb.\n:- c.\n")
        assert reduct(p, {a}).rules == p.rules

    def test_self_blocking_rule_vanishes(self):
        p = P("a :- not a.\n")
        assert reduct(p, {a}).rules == ()

    def test_reduct_is_negation_free(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_program(rng)
            x = frozenset(at for at in p.atoms if rng.random() < 0.5)
            for r in reduct(p, x).rules:
                assert not r.neg and not r.dneg


def is_minimal_model_of_reduct(p: Program, x: frozenset) -> bool:
    """The textbook definition, apart from the least-fixpoint code: x is a
    model of its reduct and no proper subset of x is."""
    rules = reduct(p, x).rules

    def is_model(y) -> bool:
        return all(satisfies_rule(y, r) for r in rules)

    return is_model(x) and not any(is_model(y) for y in powerset(x) if y != x)


class TestAnswerSets:
    def test_light_program_unique_answer_set(self, acp_text):
        p = P(acp_text)
        assert is_input_answer_set(p, {switch, light})
        assert not is_input_answer_set(p, {am})
        assert families(input_answer_sets(p)) == {frozenset({"switch", "lightOn"})}

    def test_empty_program(self):
        assert is_input_answer_set(Program(()), set())
        assert input_answer_sets(Program(())) == [frozenset()]

    def test_choice_rule_generates_both(self):
        assert families(input_answer_sets(P("{a}.\n"))) == {
            frozenset(),
            frozenset({"a"}),
        }

    def test_positive_loop_is_unfounded(self):
        assert input_answer_sets(P("a :- b.\nb :- a.\n")) == [frozenset()]

    def test_cap(self):
        p = P("".join(f"{{a{i}}}.\n" for i in range(ORACLE_CAP + 1)))
        with pytest.raises(OracleCapExceeded):
            input_answer_sets(p)

    @pytest.mark.parametrize(
        "text",
        [
            "".join(f"a{i}.\n" for i in range(ORACLE_CAP + 1)),
            "a0.\n" + "".join(f"a{i + 1} :- a{i}.\n" for i in range(3 * ORACLE_CAP)),
        ],
        ids=["facts", "chain"],
    )
    def test_atoms_that_are_not_guessed_do_not_count_toward_the_cap(self, text):
        """Only atoms under ``not`` or ``not not`` and input atoms are
        guessed, so a positive program of any size has its one answer set."""
        p = P(text)
        assert len(p.atoms) > ORACLE_CAP
        assert input_answer_sets(p) == [frozenset(p.atoms)]

    def test_every_answer_set_is_a_model(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_program(rng)
            for x in input_answer_sets(p):
                assert all(satisfies_rule(x, r) for r in p.rules)

    def test_answer_sets_without_dneg_form_antichain(self):
        rng = random.Random(13)
        for _ in range(60):
            p = random_program(rng)
            p = Program(
                tuple(Rule(r.head, r.pos, r.neg, frozenset()) for r in p.rules)
            )
            found = input_answer_sets(p)
            for x in found:
                for y in found:
                    assert x == y or not (x < y)


class TestInputAnswerSets:
    def test_two_rule_program(self):
        p = P("lightOn :- switch, not am.\n:- not lightOn.\n")
        got = input_answer_sets(p, {switch, am})
        assert families(got) == {frozenset({"switch", "lightOn"})}

    def test_empty_input_degenerates_to_answer_sets(self):
        rng = random.Random(17)
        for _ in range(40):
            p = random_program(rng)
            expected = {x for x in powerset(p.atoms) if is_minimal_model_of_reduct(p, x)}
            assert set(input_answer_sets(p, frozenset())) == expected

    def test_matches_the_definition_over_every_subset(self):
        """The guessing enumerator gives the list of the definition applied to
        every subset of the atoms, order included, for no input atoms, the
        constraint atoms, and a random set of atoms that head no rule."""
        rng = random.Random(19)
        generators = (random_program, random_tight_program, random_cas_program)
        for i in range(900):
            p = generators[i % 3](rng)
            iota = (
                frozenset(),
                p.irregular_atoms,
                random_subset(rng, [x for x in p.atoms if x not in heads(p)]),
            )[i // 3 % 3]
            expected = [x for x in powerset(p.atoms) if is_input_answer_set(p, x, iota)]
            assert input_answer_sets(p, iota) == expected

    def test_head_in_input_is_rejected(self, acp_text):
        with pytest.raises(HeadsIntersectInput):
            input_answer_sets(P(acp_text), {light})

    def test_hours_program(self, pi1_text):
        p = P(pi1_text)
        got = input_answer_sets(p, p.irregular_atoms)
        # the set without the constraint atom is also stable; only the
        # constraint side-condition later singles out the reported answer
        assert families(got) == {
            frozenset({"switch", "lightOn"}),
            frozenset({"switch", "lightOn", "|x>=12|"}),
        }


class TestDependencyGraph:
    """The positive dependency graph, seen through tightness."""

    def test_light_program_single_edge(self, acp_text):
        assert is_tight(P(acp_text))
        # the reverse of the one edge lightOn -> switch closes a cycle
        assert not is_tight(P(acp_text + "switch :- lightOn.\n"))

    def test_self_loop(self):
        assert not is_tight(P("a :- a.\n"))

    def test_denials_contribute_no_edges(self):
        assert is_tight(P(":- a, b.\n"))


class TestTightness:
    def test_light_program_is_tight(self, acp_text):
        assert is_tight(P(acp_text))

    def test_two_cycle(self):
        assert not is_tight(P("a :- b.\nb :- a.\n"))

    def test_negative_edges_do_not_count(self):
        assert is_tight(P("a :- not a.\n"))


class TestHeads:
    def test_light_program(self, acp_text):
        assert names(heads(P(acp_text))) == ["am", "lightOn", "switch"]

    def test_denials_only(self):
        assert heads(P(":- a.\n")) == frozenset()

    def test_empty(self):
        assert heads(Program(())) == frozenset()

    def test_rules_by_head_matches_a_scan_in_rule_order(self):
        # rule order fixes the order of disjuncts, and so the script bytes
        rng = random.Random(61)
        for _ in range(200):
            p = random_cas_program(rng, max_atoms=8, max_rules=14)
            for x in p.atoms:
                assert p.rules_by_head.get(x, ()) == tuple(r for r in p.rules if r.head == x)
            assert None not in p.rules_by_head
            assert heads(p) == frozenset(r.head for r in p.rules if r.head is not None)


class TestProgramInvariants:
    def test_irregular_atoms_are_the_atoms_with_a_constraint(self):
        r = Rule(a, frozenset({atom("|2*x < 2|"), b_}), frozenset({atom("|y<1|")}), frozenset())
        p = Program((r,))
        assert names(p.irregular_atoms) == ["|x<1|", "|y<1|"]
        assert {str(x.constraint) for x in p.irregular_atoms} == {"x<1", "y<1"}
        assert a.constraint is None

    def test_atoms_in_first_occurrence_order(self, pi1_text):
        p = P(pi1_text)
        assert [x.name for x in p.atoms] == [
            "switch",
            "lightOn",
            "am",
            "|x<12|",
            "|x>=12|",
            "|x<0|",
            "|x>23|",
        ]
