import itertools
import random
from fractions import Fraction

import pytest

from casp2smt.completion import input_completion
from casp2smt.errors import HeadsIntersectInput, RankVarForIrregular
from casp2smt.formula import Atom, And, Implies, Not, Or, TOP, conj, to_clauses
from casp2smt.lincon import LinearConstraint, LinExpr, Rel, negate
from casp2smt.lincon import gcsp_solve_bounded
from casp2smt.parser import parse_program
from casp2smt.program import atom, constraint_atom, heads, input_answer_sets, is_input_answer_set
from casp2smt.ranking import build_ranking_formula, fresh_rank_var

from .randprog import random_cas_program, random_program, random_subset
from .semantics import (
    PartialRanking,
    check_input_level_ranking,
    eval_formula,
    find_level_ranking,
    literal_ranking_formula,
    models_of,
)
from .test_script_bytes import RING12

a, b_, switch, light, am = map(atom, ("a", "b", "switch", "lightOn", "am"))


def brute_force_ranking_exists(p, x, iota=frozenset()):
    """Independent oracle: try every ranking with values 0..|x minus iota|."""
    ranked = sorted(set(x) - set(iota))
    ceiling = len(ranked)
    for values in itertools.product(range(ceiling + 1), repeat=len(ranked)):
        lr = dict(zip(ranked, values))
        if check_input_level_ranking(p, x, lr, iota):
            return True
    return False


class TestCheckLevelRanking:
    def test_light_program_ranking(self, acp_text):
        p = parse_program(acp_text)
        x = {switch, light}
        assert check_input_level_ranking(p, x, {switch: 0, light: 1})

    def test_flat_ranking_fails(self, acp_text):
        p = parse_program(acp_text)
        x = {switch, light}
        assert not check_input_level_ranking(p, x, {switch: 1, light: 1})

    def test_empty_set_is_vacuous(self, acp_text):
        assert check_input_level_ranking(parse_program(acp_text), set(), {})

    def test_partial_ranking_rejected(self, acp_text):
        with pytest.raises(PartialRanking):
            check_input_level_ranking(parse_program(acp_text), {switch, light}, {switch: 0})


class TestCheckInputLevelRanking:
    def test_hours_program(self, pi1_text):
        p = parse_program(pi1_text)
        x = {switch, light, atom("|x>=12|")}
        iota = p.irregular_atoms
        assert check_input_level_ranking(p, x, {switch: 0, light: 1}, iota)
        assert not check_input_level_ranking(p, x, {switch: 5, light: 0}, iota)

    def test_all_input_needs_empty_ranking(self, pi1_text):
        p = parse_program(pi1_text)
        assert check_input_level_ranking(p, {atom("|x>=12|")}, {}, p.irregular_atoms)


class TestExistsLevelRanking:
    def test_light_program(self, acp_text):
        assert find_level_ranking(parse_program(acp_text), {switch, light}) is not None

    def test_unsupported_cycle(self):
        p = parse_program("a :- b.\nb :- a.\n")
        assert find_level_ranking(p, {a, b_}) is None

    def test_empty_set(self):
        assert find_level_ranking(parse_program("a.\n"), set()) == {}

    def test_head_in_input_is_rejected(self, acp_text):
        with pytest.raises(HeadsIntersectInput):
            find_level_ranking(parse_program(acp_text), {switch, light}, {light})

    def test_decided_beyond_the_oracle_cap(self):
        # every atom of the 12-node ring: 36 regular atoms ranked over its
        # 12 constraint atoms as input, more than the 22 the oracle enumerates
        p = parse_program(RING12)
        x = frozenset(p.atoms)
        assert len(x) == 48
        assert find_level_ranking(p, x, p.irregular_atoms) is not None

    def test_found_witness_passes_the_checker(self):
        rng = random.Random(41)
        for _ in range(60):
            p = random_program(rng, max_atoms=6, max_rules=8)
            x = random_subset(rng, p.atoms)
            witness = find_level_ranking(p, x)
            if witness is not None:
                assert check_input_level_ranking(p, x, witness)

    def test_agrees_with_brute_force(self):
        rng = random.Random(43)
        for _ in range(60):
            p = random_program(rng, max_atoms=4, max_rules=6)
            x = random_subset(rng, p.atoms)
            assert (find_level_ranking(p, x) is not None) == brute_force_ranking_exists(p, x)

    def test_input_variant_agrees_with_brute_force(self):
        rng = random.Random(47)
        for _ in range(60):
            p = random_program(rng, max_atoms=4, max_rules=6)
            iota = random_subset(rng, set(p.atoms) - heads(p))
            x = random_subset(rng, p.atoms)
            found = find_level_ranking(p, x, iota) is not None
            assert found == brute_force_ranking_exists(p, x, iota)


class TestTheoremEquivalences:
    def test_answer_set_iff_ranking_on_completion_models(self):
        rng = random.Random(53)
        for _ in range(150):
            p = random_program(rng, max_atoms=6, max_rules=9)
            for x in models_of(input_completion(p), p.atoms):
                assert is_input_answer_set(p, x) == (find_level_ranking(p, x) is not None)

    def test_input_answer_set_iff_input_ranking_on_icomp_models(self):
        rng = random.Random(59)
        for _ in range(150):
            p = random_program(rng, max_atoms=5, max_rules=8)
            iota = random_subset(rng, set(p.atoms) - heads(p))
            answer_sets = set(input_answer_sets(p, iota))
            for x in models_of(input_completion(p, iota), p.atoms):
                assert (x in answer_sets) == (find_level_ranking(p, x, iota) is not None)

    def test_ranking_values_never_need_to_exceed_set_size(self):
        rng = random.Random(61)
        for _ in range(60):
            p = random_program(rng, max_atoms=5, max_rules=8)
            x = random_subset(rng, p.atoms)
            witness = find_level_ranking(p, x)
            if witness is not None:
                assert all(0 <= v <= len(x) for v in witness.values())


class TestFreshRankVar:
    def test_plain_name(self):
        assert fresh_rank_var(light) == "__lr_lightOn"

    def test_irregular_atoms_are_never_ranked(self):
        with pytest.raises(RankVarForIrregular):
            fresh_rank_var(atom("|x<12|"))

    def test_collision_gets_numeric_suffix(self):
        used: set[str] = set()
        first = fresh_rank_var(atom("a.b"), used)
        second = fresh_rank_var(atom("a_b"), used)
        assert (first, second) == ("__lr_a_b", "__lr_a_b_1")


def rank_pair(x: str, y: str) -> LinearConstraint:
    return LinearConstraint(LinExpr.of({f"__lr_{x}": 1, f"__lr_{y}": -1}), Rel.GE, Fraction(1))


class TestBuildRankingFormula:
    def test_mixed_cycle_program(self):
        p = parse_program("a :- b.\nb :- a.\n{c}.\na :- c.\n")
        rf = build_ranking_formula(p, frozenset())
        assert len(rf.ranking_atoms) == 3
        assert {t.constraint for t in rf.ranking_atoms} == {
            rank_pair("a", "b"),
            rank_pair("a", "c"),
            rank_pair("b", "a"),
        }
        assert rf.rank_vars == {"__lr_a", "__lr_b", "__lr_c"}
        # c's only body has no positive part, so c contributes no implication
        lhs_atoms = {
            f.lhs.atom for f in (rf.formula.args if isinstance(rf.formula, And) else (rf.formula,))
        }
        assert lhs_atoms == {a, b_}

    def test_tight_program_single_implication(self, acp_text):
        p = parse_program(acp_text)
        rf = build_ranking_formula(p, frozenset())
        pair = rank_pair("lightOn", "switch")
        expected = Implies(
            Atom(light),
            And(
                (
                    Atom(switch),
                    Not(Atom(am)),
                    Atom(constraint_atom(pair)),
                )
            ),
        )
        assert rf.formula == expected
        assert rf.ranking_atoms == (constraint_atom(pair),)
        assert rf.ranking_atoms[0].constraint == pair

    def test_all_input_positive_bodies_make_it_trivial(self):
        p = parse_program("{a}.\nb :- |x < 1|, not a.\n:- |x > 5|.\n")
        rf = build_ranking_formula(p, p.irregular_atoms)
        assert rf.formula == TOP
        assert rf.ranking_atoms == ()

    def test_skipped_implications_repeat_the_completion(self, pi1_text):
        """Beside the input completion, the paper's literal ranking formula
        clausifies to the same clauses and fresh atoms as the package's, which
        leaves out the atoms with no positive non-input body atom."""
        rng = random.Random(2008)
        programs = [parse_program(pi1_text), parse_program(RING12)]
        programs += [random_cas_program(rng) for _ in range(120)]
        cases = [(p, p.irregular_atoms) for p in programs]
        for p in (random_program(rng) for _ in range(120)):
            cases.append((p, random_subset(rng, set(p.atoms) - heads(p))))
        # programs whose ranking formula both skips atoms and ranks some
        skipped_and_ranked = 0
        for p, iota in cases:
            completion = input_completion(p, iota)
            literal = literal_ranking_formula(p, iota)
            ours = build_ranking_formula(p, iota).formula
            taken = [a.name for a in p.atoms]
            want = to_clauses(conj([completion, literal]), taken)
            got = to_clauses(conj([completion, ours]), taken)
            assert set(got.clauses) == set(want.clauses)
            assert got.fresh_atoms == want.fresh_atoms
            skipped_and_ranked += literal != ours and ours != TOP
        assert skipped_and_ranked >= 150

    def test_ranking_constraints_have_difference_shape(self):
        p = parse_program("a :- b.\nb :- a.\n{c}.\na :- c.\n")
        rf = build_ranking_formula(p, frozenset())
        for t in rf.ranking_atoms:
            assert sorted(coeff for _, coeff in t.constraint.expr.terms) == [-1, 1]


class TestRankingFormulaSemantics:
    def exists_extension(self, p, rf, x, hi):
        """Literal check: some subset of ranking atoms makes the formula true
        with a solvable difference problem."""
        ratoms = rf.ranking_atoms
        for bits in itertools.product((False, True), repeat=len(ratoms)):
            xi = frozenset(t for t, bit in zip(ratoms, bits) if bit)
            if not eval_formula(rf.formula, frozenset(x) | xi):
                continue
            gcsp = [t.constraint for t in sorted(xi)]
            gcsp += [negate(t.constraint) for t in sorted(set(ratoms) - xi)]
            if gcsp_solve_bounded(gcsp, 0, hi) is not None:
                return True
        return False

    def test_models_with_solvable_rankings_are_exactly_answer_sets(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(40):
            p = random_program(rng, max_atoms=4, max_rules=5)
            iota = random_subset(rng, set(p.atoms) - heads(p))
            rf = build_ranking_formula(p, iota)
            if len(rf.ranking_atoms) > 6:
                continue
            checked += 1
            answer_sets = set(input_answer_sets(p, iota))
            for x in models_of(input_completion(p, iota), p.atoms):
                got = self.exists_extension(p, rf, x, len(p.atoms))
                assert got == (x in answer_sets)
        assert checked >= 20
