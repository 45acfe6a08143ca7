import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casp2smt.errors import ParseError, UnboundVariable, UnsupportedMultivariate
from casp2smt.lincon import (
    LexiconKind,
    LinearConstraint,
    LinExpr,
    Rel,
    evaluate,
    gcsp_enumerate_bounded,
    gcsp_solve_bounded,
    is_difference_shape,
    negate,
    parse_constraint,
    real_feasible_1d,
    real_witness_1d,
    render_constraint,
)

INT = LexiconKind.INTEGER_LINEAR


def c(text: str) -> LinearConstraint:
    return parse_constraint(text)


class TestEvaluate:
    def test_ge_at_boundary(self):
        assert evaluate(c("x >= 12"), {"x": 12})

    def test_negated_constraint_flips_through_complement(self):
        raw = LinearConstraint(LinExpr.of({"x": 1}), Rel.LT, Fraction(12), negated=True)
        assert evaluate(raw, {"x": 12})
        assert not evaluate(raw, {"x": 11})

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
        wrapped = LinearConstraint(LinExpr.of({"x": 1}), Rel.LT, Fraction(12), negated=True)
        assert negate(wrapped) == c("x < 12")

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
        assert k.normalized() == k

    def test_round_trip_is_identity(self):
        for text in ("x >= 12", "2*x2 + 3*x3 = 13", "-x + 2*y < 7", "x != 0"):
            k = c(text)
            assert parse_constraint(render_constraint(k)) == k

    def test_repeated_variable_merges(self):
        assert c("x + x < 4") == c("2*x < 4") == c("x < 2")

    def test_rejects_garbage(self):
        for bad in ("< 4", "x 4", "x <", "x ? 4", "", "x < 4 y"):
            with pytest.raises(ParseError):
                parse_constraint(bad)


@st.composite
def constraints(draw):
    n = draw(st.integers(1, 3))
    variables = draw(st.lists(st.sampled_from("uvwxyz"), min_size=n, max_size=n, unique=True))
    coeffs = {
        v: Fraction(draw(st.integers(-4, 4).filter(lambda k: k != 0)))
        for v in variables
    }
    rel = draw(st.sampled_from(list(Rel)))
    bound = Fraction(draw(st.integers(-10, 10)))
    negated = draw(st.booleans())
    return LinearConstraint(LinExpr.of(coeffs), rel, bound, negated)


@given(constraints(), st.data())
def test_complement_law(k, data):
    v = {
        name: data.draw(st.integers(-6, 6), label=name)
        for name in k.variables
    }
    assert evaluate(negate(k), v) == (not evaluate(k, v))


@given(constraints())
def test_normalize_idempotent(k):
    once = k.normalized()
    assert once.normalized() == once
    assert not once.negated


@given(constraints(), st.data())
def test_normalized_preserves_satisfaction(k, data):
    v = {name: data.draw(st.integers(-6, 6), label=name) for name in k.variables}
    assert evaluate(k.normalized(), v) == evaluate(k, v)


class TestBoundedGcsp:
    def test_hours_example(self):
        cs = [c("x >= 12"), negate(c("x < 12")), negate(c("x < 0")), negate(c("x > 23"))]
        assert gcsp_solve_bounded(cs, INT, 0, 23) == {"x": 12}
        assert gcsp_enumerate_bounded(cs, INT, 0, 23) == [
            {"x": v} for v in range(12, 24)
        ]

    def test_integer_gap(self):
        cs = [c("x > 4"), c("x < 5")]
        assert gcsp_solve_bounded(cs, INT, -100, 100) is None
        assert gcsp_enumerate_bounded(cs, INT, 0, 10) == []

    def test_empty_problem(self):
        assert gcsp_solve_bounded([], INT, 0, 5) == {}

    def test_declared_variable_without_constraints(self):
        assert gcsp_enumerate_bounded([], INT, 0, 1, variables=["x"]) == [
            {"x": 0},
            {"x": 1},
        ]

    def test_rejects_real_lexicon(self):
        with pytest.raises(ValueError):
            gcsp_solve_bounded([], LexiconKind.REAL_LINEAR, 0, 1)


@given(st.lists(constraints(), max_size=3), st.integers(-4, 0), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_enumerate_matches_brute_force(cs, lo, hi):
    variables = sorted({v for k in cs for v in k.variables})
    got = gcsp_enumerate_bounded(cs, INT, lo, hi, variables=variables)
    expected = []
    for values in itertools.product(range(lo, hi + 1), repeat=len(variables)):
        v = dict(zip(variables, values))
        if all(evaluate(k, v) for k in cs):
            expected.append(v)
    assert got == expected
    solution = gcsp_solve_bounded(cs, INT, lo, hi, variables=variables)
    assert solution == (expected[0] if expected else None)
    if solution is not None:
        assert all(evaluate(k, solution) for k in cs)


# one variable of x, y, z or none, small bounds so that equalities,
# punctures and touching endpoints meet often
_UNIVARIATE = st.builds(
    lambda terms, rel, bound, negated: LinearConstraint(
        LinExpr(terms), rel, Fraction(bound), negated
    ),
    st.one_of(
        st.just(()),
        st.tuples(
            st.tuples(st.sampled_from("xyz"), st.sampled_from([-2, -1, 1, 2, 3]).map(Fraction))
        ),
    ),
    st.sampled_from(list(Rel)),
    st.integers(-3, 3),
    st.booleans(),
)


class TestRealIntervals:
    def test_open_interval_is_feasible(self):
        assert real_feasible_1d([c("x > 4"), c("x < 5")])

    def test_empty_interval(self):
        assert not real_feasible_1d([c("x > 4"), c("x < 4")])

    def test_punctured_singleton(self):
        assert not real_feasible_1d([c("x >= 4"), c("x <= 4"), c("x != 4")])

    def test_puncture_in_wide_interval_is_harmless(self):
        assert real_feasible_1d([c("x >= 4"), c("x <= 5"), c("x != 4")])

    def test_witness_satisfies(self):
        cs = [c("x > 4"), c("x < 5"), c("y != 0"), c("2*x != 9")]
        witness = real_witness_1d(cs)
        assert witness is not None
        assert all(evaluate(k, witness) for k in cs)

    def test_multivariate_is_rejected(self):
        with pytest.raises(UnsupportedMultivariate):
            real_feasible_1d([c("x + y < 4")])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_UNIVARIATE, min_size=1, max_size=7))
    def test_witness_exactly_when_feasible(self, cs):
        witness = real_witness_1d(cs)
        if not real_feasible_1d(cs):
            assert witness is None
        else:
            assert witness is not None
            assert all(evaluate(k, witness) for k in cs)


class TestDifferenceShape:
    def test_plain_difference(self):
        assert is_difference_shape(c("x - y <= 3"))

    def test_scaled_difference_normalizes_in(self):
        assert is_difference_shape(c("2*x - 2*y <= 4"))

    def test_single_variable_is_not_difference(self):
        assert not is_difference_shape(c("x >= 12"))

    def test_unequal_coefficients_are_not_difference(self):
        assert not is_difference_shape(c("2*x - y <= 3"))
