import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casp2smt.errors import ParseError, UnboundVariable
from casp2smt.lincon import (
    LinearConstraint,
    LinExpr,
    Rel,
    evaluate,
    gcsp_enumerate_bounded,
    gcsp_solve_bounded,
    negate,
    real_solution,
    render_constraint,
)
from casp2smt.parser import parse_constraint
from casp2smt.program import atom, constraint_atom
from casp2smt.smtlib import symbol_table


def c(text: str) -> LinearConstraint:
    return parse_constraint(text)


class TestEvaluate:
    def test_ge_at_boundary(self):
        assert evaluate(c("x >= 12"), {"x": 12})

    def test_negated_constraint_flips_through_complement(self):
        k = negate(c("x < 12"))
        assert evaluate(k, {"x": 12})
        assert not evaluate(k, {"x": 11})

    def test_two_variable_arithmetic(self):
        assert evaluate(c("2*x2 + 3*x3 = 13"), {"x2": 2, "x3": 3})
        assert not evaluate(c("2*x2 + 3*x3 = 13"), {"x2": 3, "x3": 3})

    def test_missing_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(c("x + y < 4"), {"x": 1})


class TestNegate:
    def test_lt_becomes_ge(self):
        assert negate(c("x < 12")) == c("x >= 12")

    def test_double_negation_collapses(self):
        complement = LinearConstraint(LinExpr.of({"x": 2}), Rel.GE, Fraction(24))
        assert negate(complement) == c("x < 12")

    def test_eq_becomes_ne(self):
        assert negate(c("x = 0")) == c("x != 0")

    def test_involution(self):
        for text in ("x < 12", "x > 4", "2*x + 3*y <= 5", "x != 7", "x = 0"):
            assert negate(negate(c(text))) == c(text)


class TestNormalization:
    def test_unit_coefficient_is_implicit(self):
        assert c("x < 12") == c("1*x < 12")

    def test_common_factor_divides_out(self):
        assert c("2*x < 24") == c("x < 12")

    def test_leading_minus(self):
        assert c("-x <= -5") == c("x >= 5")

    def test_idempotent(self):
        k = c("2*x + 4*y != 6")
        assert (k.expr, k.rel, k.bound) == (LinExpr.of({"x": 1, "y": 2}), Rel.NE, 3)
        assert LinearConstraint(k.expr, k.rel, k.bound) == k

    def test_round_trip_is_identity(self):
        for text in ("x >= 12", "2*x2 + 3*x3 = 13", "-x + 2*y < 7", "x != 0"):
            k = c(text)
            assert parse_constraint(render_constraint(k)) == k

    def test_repeated_variable_merges(self):
        assert c("x + x < 4") == c("2*x < 4") == c("x < 2")

    def test_constraint_without_variables_is_rejected(self):
        for terms in ((), (("x", Fraction(1)), ("x", Fraction(-1)))):
            with pytest.raises(ValueError):
                LinearConstraint(LinExpr(terms), Rel.GE, Fraction(1))

    def test_rejects_garbage(self):
        garbage = ("< 4", "x 4", "x <", "x ? 4", "", "x < 4 y")
        # terms whose coefficients all cancel leave no variable
        for bad in garbage + ("x - x >= 1", "0*x < 2", "2*y - y - y = 0"):
            with pytest.raises(ParseError):
                parse_constraint(bad)


NONZERO = st.builds(
    Fraction, st.integers(-4, 4).filter(lambda k: k != 0), st.integers(1, 3)
)


@st.composite
def raw_fields(draw):
    """Expression, relation and bound as a caller might write them: rational
    coefficients, any sign first, common factors left in."""
    n = draw(st.integers(1, 3))
    variables = draw(st.lists(st.sampled_from("uvwxyz"), min_size=n, max_size=n, unique=True))
    coeffs = {v: draw(NONZERO) for v in variables}
    rel = draw(st.sampled_from(list(Rel)))
    if draw(st.booleans()):
        rel = rel.complement
    bound = Fraction(draw(st.integers(-10, 10)), draw(st.integers(1, 3)))
    return LinExpr.of(coeffs), rel, bound


def constraints():
    return raw_fields().map(lambda fields: LinearConstraint(*fields))


def valuation(data, names):
    return {name: data.draw(st.integers(-6, 6), label=name) for name in names}


@given(constraints(), st.data())
def test_complement_law(k, data):
    v = valuation(data, k.variables)
    assert evaluate(negate(k), v) == (not evaluate(k, v))


@given(constraints())
def test_rebuilding_from_fields_is_identity(k):
    again = LinearConstraint(k.expr, k.rel, k.bound)
    assert again == k and hash(again) == hash(k)
    coeffs = [coeff for _, coeff in k.expr.terms]
    assert all(x.denominator == 1 for x in coeffs + [k.bound])
    assert math.gcd(*(int(x) for x in coeffs + [k.bound])) == 1
    assert coeffs[0] > 0


@given(constraints(), NONZERO)
def test_scaling_rebuilds_the_same_constraint(k, factor):
    rel = k.rel if factor > 0 else k.rel.mirror
    scaled = LinearConstraint(k.expr.scaled(factor), rel, k.bound * factor)
    assert scaled == k and hash(scaled) == hash(k)


@given(constraints(), NONZERO)
def test_atom_text_gives_the_constraint_atom(k, factor):
    a = atom(f"|{render_constraint(k)}|")
    assert a == constraint_atom(k) and a.constraint == k
    rel = k.rel if factor > 0 else k.rel.mirror
    scaled = constraint_atom(LinearConstraint(k.expr.scaled(factor), rel, k.bound * factor))
    assert scaled == a and scaled.constraint == k
    assert symbol_table([scaled]) == symbol_table([a])


@given(raw_fields(), st.data())
def test_construction_preserves_satisfaction(fields, data):
    expr, rel, bound = fields
    v = valuation(data, expr.variables)
    assert evaluate(LinearConstraint(expr, rel, bound), v) == rel.holds(expr.value(v), bound)


class TestBoundedGcsp:
    def test_hours_example(self):
        cs = [c("x >= 12"), negate(c("x < 12")), negate(c("x < 0")), negate(c("x > 23"))]
        assert gcsp_solve_bounded(cs, 0, 23) == {"x": 12}
        assert list(gcsp_enumerate_bounded(cs, 0, 23)) == [
            {"x": v} for v in range(12, 24)
        ]

    def test_integer_gap(self):
        cs = [c("x > 4"), c("x < 5")]
        assert gcsp_solve_bounded(cs, -100, 100) is None
        assert list(gcsp_enumerate_bounded(cs, 0, 10)) == []

    def test_empty_problem(self):
        assert gcsp_solve_bounded([], 0, 5) == {}


@given(st.lists(constraints(), max_size=3), st.integers(-4, 0), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_enumerate_matches_brute_force(cs, lo, hi):
    variables = sorted({v for k in cs for v in k.variables})
    got = list(gcsp_enumerate_bounded(cs, lo, hi))
    expected = []
    for values in itertools.product(range(lo, hi + 1), repeat=len(variables)):
        v = dict(zip(variables, values))
        if all(evaluate(k, v) for k in cs):
            expected.append(v)
    assert got == expected
    solution = gcsp_solve_bounded(cs, lo, hi)
    assert solution == (expected[0] if expected else None)
    if solution is not None:
        assert all(evaluate(k, solution) for k in cs)


# one variable of x, y or z, small bounds so that equalities, disequalities
# and touching endpoints meet often
_UNIVARIATE = st.builds(
    lambda terms, rel, bound, complement: LinearConstraint(
        LinExpr(terms), rel.complement if complement else rel, Fraction(bound)
    ),
    st.tuples(
        st.tuples(st.sampled_from("xyz"), st.sampled_from([-2, -1, 1, 2, 3]).map(Fraction))
    ),
    st.sampled_from(list(Rel)),
    st.integers(-3, 3),
    st.booleans(),
)

# one to three of x, y and z, with every relation
_MULTIVARIATE = st.builds(
    lambda coeffs, rel, bound: LinearConstraint(LinExpr.of(coeffs), rel, Fraction(bound)),
    st.dictionaries(st.sampled_from("xyz"), st.sampled_from([-2, -1, 1, 2, 3]), min_size=1),
    st.sampled_from(list(Rel)),
    st.integers(-3, 3),
)


def univariate_feasible(cs) -> bool:
    """Reference decision for systems of one-variable constraints: every
    piece of a variable's solution set holds a bound, a midpoint of two
    bounds, or a point beyond all of them."""
    for name in {k.variables[0] for k in cs}:
        mine = [k for k in cs if k.variables == (name,)]
        ends = sorted({k.bound / k.expr.terms[0][1] for k in mine})
        points = ends + [(p + q) / 2 for p, q in zip(ends, ends[1:])] + [ends[0] - 1, ends[-1] + 1]
        if not any(all(evaluate(k, {name: p}) for k in mine) for p in points):
            return False
    return True


class TestRealIntervals:
    def test_open_interval_is_feasible(self):
        assert real_solution([c("x > 4"), c("x < 5")]) == {"x": Fraction(9, 2)}

    def test_empty_interval(self):
        assert real_solution([c("x > 4"), c("x < 4")]) is None

    def test_punctured_singleton(self):
        assert real_solution([c("x >= 4"), c("x <= 4"), c("x != 4")]) is None

    def test_puncture_in_wide_interval_is_harmless(self):
        assert real_solution([c("x >= 4"), c("x <= 5"), c("x != 4")]) is not None

    def test_witness_satisfies(self):
        cs = [c("x > 4"), c("x < 5"), c("y != 0"), c("2*x != 9")]
        witness = real_solution(cs)
        assert witness is not None
        assert all(evaluate(k, witness) for k in cs)

    def test_multivariate_is_solved(self):
        witness = real_solution([c("x + y < 4")])
        assert witness is not None and evaluate(c("x + y < 4"), witness)

    def test_disequality_off_a_line(self):
        # a puncture picked after the fact fails here: x = y meets x + y = 0
        cs = [c("x - y = 0"), c("x + y != 0")]
        witness = real_solution(cs)
        assert witness is not None and all(evaluate(k, witness) for k in cs)

    def test_disequality_against_its_equality(self):
        assert real_solution([c("x - y = 0"), c("x - y != 0")]) is None

    def test_box_cuts_off_a_feasible_system(self):
        assert real_solution([c("x > 100")]) == {"x": 101}
        assert real_solution([c("x > 100")], box=(0, 23)) is None
        assert real_solution([c("x > 20")], box=(0, 23)) == {"x": Fraction(43, 2)}

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_UNIVARIATE, min_size=1, max_size=7))
    def test_witness_exactly_when_feasible(self, cs):
        witness = real_solution(cs)
        if not univariate_feasible(cs):
            assert witness is None
        else:
            assert witness is not None
            assert all(evaluate(k, witness) for k in cs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_MULTIVARIATE, min_size=1, max_size=7))
    def test_agrees_with_the_reference_solver(self, minismt, cs):
        """minismt's own elimination splits each disequality both ways."""
        expected = minismt.solve_constraints(
            [(dict(k.expr.terms), k.rel.value, k.bound) for k in cs], False
        )
        witness = real_solution(cs)
        assert (witness is None) == (expected is None)
        if witness is not None:
            assert all(evaluate(k, witness) for k in cs)
