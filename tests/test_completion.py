import random

import pytest

from casp2smt.completion import bodies_of, input_completion, rule_implication
from casp2smt.errors import HeadsIntersectInput
from casp2smt.formula import (
    And,
    Atom,
    BOTTOM,
    Const,
    Implies,
    Not,
    Or,
    PropFormula,
    conj,
    disj,
    implies,
    to_clauses,
)
from casp2smt.parser import parse_program
from casp2smt.program import Program, atom

from .conftest import families
from .randprog import random_program, random_subset, random_tight_program
from .semantics import (
    NotAModel,
    clause_models,
    eval_formula,
    models_of,
    project_model,
    rule,
    with_facts,
)

a, b_, switch, light, am = map(atom, ("a", "b", "switch", "lightOn", "am"))

# the light-switch completion written out by hand: lightOn <-> switch & ~am,
# plus lightOn itself
LIGHT_BODY = And((Atom(switch), Not(Atom(am))))
ACP_COMP = conj(
    [Implies(Atom(light), LIGHT_BODY), Implies(LIGHT_BODY, Atom(light)), Atom(light)]
)


class TestBodiesOf:
    def test_light_body(self, acp_text):
        p = parse_program(acp_text)
        assert bodies_of(p, light) == [And((Atom(switch), Not(Atom(am))))]

    def test_choice_body_collapses_double_negation(self, acp_text):
        p = parse_program(acp_text)
        assert bodies_of(p, switch) == [Atom(switch)]

    def test_atom_without_rules(self, acp_text):
        assert bodies_of(parse_program(acp_text), a) == []


class TestCompletion:
    def test_light_program_models(self, acp_text):
        p = parse_program(acp_text)
        got = models_of(input_completion(p), p.atoms)
        assert got == models_of(ACP_COMP, p.atoms)
        assert families(got) == {frozenset({"switch", "lightOn"})}

    def test_empty_program_over_declared_vocabulary(self):
        # a denial that can never fire puts a in the vocabulary; with no rule
        # for a, its support is falsum
        never = rule(None, pos=[a], neg=[a])
        f = input_completion(Program((never,)))
        assert f == And((rule_implication(never), Implies(Atom(a), BOTTOM)))
        assert models_of(f, [a]) == [frozenset()]

    def test_two_cycle_completion_has_two_models(self):
        p = parse_program("a :- b.\nb :- a.\n")
        assert families(models_of(input_completion(p), p.atoms)) == {
            frozenset(),
            frozenset({"a", "b"}),
        }


class TestInputCompletion:
    def test_hours_program(self, pi1_text):
        p = parse_program(pi1_text)
        got = models_of(input_completion(p, p.irregular_atoms), p.atoms)
        # propositionally the constraint atom |x>=12| is unsupported input,
        # so it may float; the constraint side-condition decides later
        assert families(got) == {
            frozenset({"switch", "lightOn"}),
            frozenset({"switch", "lightOn", "|x>=12|"}),
        }

    def test_empty_input_coincides_with_completion(self):
        # Clark's completion: every rule, and a support formula for every atom
        rng = random.Random(3)
        for _ in range(40):
            p = random_program(rng)
            rules = [rule_implication(r) for r in p.rules]
            support = [implies(Atom(x), disj(bodies_of(p, x))) for x in sorted(p.atoms)]
            assert input_completion(p, frozenset()) == conj(rules + support)

    def test_input_atom_supports_itself(self):
        p = parse_program("a :- b.\n")
        f = input_completion(p, {b_})
        assert families(models_of(f, p.atoms)) == {
            frozenset(),
            frozenset({"a", "b"}),
        }

    def test_head_in_input_rejected(self, acp_text):
        with pytest.raises(HeadsIntersectInput):
            input_completion(parse_program(acp_text), {light})


class TestClausification:
    def test_single_atom(self):
        cs = to_clauses(Atom(a))
        assert cs.clauses == (((a, True),),)
        assert not cs.fresh_atoms

    def test_conjunction_flattens_without_fresh_atoms(self):
        cs = to_clauses(And((Atom(a), Atom(b_))))
        assert cs.clauses == (((a, True),), ((b_, True),))
        assert not cs.fresh_atoms

    def test_light_completion_round_trip(self, acp_text):
        p = parse_program(acp_text)
        cs = to_clauses(ACP_COMP)
        projected = {project_model(m, cs) for m in clause_models(cs, p.atoms)}
        assert projected == set(models_of(ACP_COMP, p.atoms))

    def test_fresh_atoms_round_trip_on_random_formulas(self):
        rng = random.Random(23)
        for _ in range(40):
            p = random_program(rng, max_atoms=5, max_rules=6)
            f = input_completion(p)
            cs = to_clauses(f)
            projected = {project_model(m, cs) for m in clause_models(cs, p.atoms)}
            assert projected == set(models_of(f, p.atoms))
            # full definitional clauses: every source model extends uniquely
            assert len(clause_models(cs, p.atoms)) == len(models_of(f, p.atoms))

    def test_negation_of_every_node_type_round_trips(self):
        rng = random.Random(41)
        vocab = [atom(n) for n in "pqrs"]
        kinds = ("atom", "const", "not", "and", "or", "implies")

        def formula(depth: int) -> PropFormula:
            kind = rng.choice(kinds if depth else kinds[:2])
            if kind == "atom":
                return Atom(rng.choice(vocab))
            if kind == "const":
                return Const(rng.random() < 0.5)
            if kind == "not":
                return Not(formula(depth - 1))
            if kind == "implies":
                return Implies(formula(depth - 1), formula(depth - 1))
            args = tuple(formula(depth - 1) for _ in range(rng.randint(1, 3)))
            return And(args) if kind == "and" else Or(args)

        negated = set()
        for _ in range(150):
            f = Not(formula(rng.randint(0, 2)))  # depth at most 3
            negated.add(type(f.arg))
            cs = to_clauses(f)
            projected = {project_model(m, cs) for m in clause_models(cs, vocab)}
            assert projected == set(models_of(f, vocab))
            assert len(clause_models(cs, vocab)) == len(models_of(f, vocab))
        # the negation of every node type was clausified
        assert negated == {Atom, Const, Not, And, Or, Implies}

    def test_project_requires_a_model(self):
        cs = to_clauses(Atom(a))
        with pytest.raises(NotAModel):
            project_model(frozenset(), cs)


class TestTheoremsAtDeskScale:
    def test_tight_input_completion_matches_input_answer_sets(self):
        from casp2smt.program import heads, input_answer_sets

        rng = random.Random(29)
        for _ in range(80):
            p = random_tight_program(rng, max_atoms=6, max_rules=8)
            iota = random_subset(rng, set(p.atoms) - heads(p))
            lhs = set(models_of(input_completion(p, iota), p.atoms))
            rhs = set(input_answer_sets(p, iota))
            assert lhs == rhs

    def test_input_answer_sets_model_input_completion(self):
        from casp2smt.program import heads, input_answer_sets

        rng = random.Random(31)
        for _ in range(80):
            p = random_program(rng, max_atoms=6, max_rules=8)
            iota = random_subset(rng, set(p.atoms) - heads(p))
            f = input_completion(p, iota)
            for x in input_answer_sets(p, iota):
                assert eval_formula(f, x)

    def test_input_completion_agrees_with_completion_of_extended_program(self):
        from casp2smt.program import heads

        rng = random.Random(37)
        for _ in range(80):
            p = random_program(rng, max_atoms=6, max_rules=8)
            iota = random_subset(rng, set(p.atoms) - heads(p))
            x = random_subset(rng, p.atoms)
            extended = with_facts(p, x & iota)
            lhs = eval_formula(input_completion(p, iota), x)
            rhs = eval_formula(input_completion(extended), x)
            assert lhs == rhs
