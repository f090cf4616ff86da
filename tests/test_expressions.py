"""Parser, printer, and evaluator of the coefficient expression language."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.expressions import (
    BinOp,
    Call,
    Const,
    EvalDomainError,
    ExprSyntaxError,
    Neg,
    UnknownIdentifierError,
    Var,
    evaluate,
    parse_expr,
    print_expr,
)


def ev(text, **coords):
    env = {int(k[1:]): v for k, v in coords.items()}
    return evaluate(parse_expr(text), env)


class TestEvaluation:
    def test_polynomial_at_point(self):
        assert ev("1 + x1^2", x1=2.0) == 5.0

    def test_exp_abs(self):
        assert ev("exp(abs(x1))", x1=-1.0) == pytest.approx(math.e, rel=1e-15)

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalDomainError):
            ev("1 / x1", x1=0.0)

    def test_division_by_zero_array_mask(self):
        with pytest.raises(EvalDomainError) as exc:
            ev("1 / x1", x1=np.array([1.0, 0.0, 2.0]))
        assert list(exc.value.bad_mask) == [False, True, False]

    def test_log_of_negative_raises(self):
        with pytest.raises(EvalDomainError):
            ev("log(x1)", x1=-1.0)

    def test_sqrt_of_negative_raises(self):
        with pytest.raises(EvalDomainError):
            ev("sqrt(x1 - 2)", x1=0.0)

    def test_fractional_power_of_negative_raises(self):
        with pytest.raises(EvalDomainError):
            ev("x1^0.5", x1=-1.0)

    def test_precedence_power_over_unary_minus(self):
        # -x^2 parses as -(x^2)
        assert ev("-x1^2", x1=3.0) == -9.0

    def test_precedence_mul_over_add(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_left_associative_subtraction(self):
        assert ev("10 - 3 - 2") == 5.0

    def test_left_associative_division(self):
        assert ev("8 / 4 / 2") == 1.0

    def test_min_max_binary(self):
        assert ev("min(x1, 2) + max(x1, 2)", x1=5.0) == 7.0

    def test_vectorized_over_array(self):
        x = np.linspace(0, 1, 7)
        np.testing.assert_allclose(ev("sin(x1) * cos(x1)", x1=x),
                                   np.sin(x) * np.cos(x))

    def test_scientific_notation(self):
        assert ev("1e-4 + 2.5E2") == pytest.approx(250.0001)


class TestParsing:
    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("y + 1")

    def test_dimension_bound(self):
        parse_expr("x2", dim=2)
        with pytest.raises(UnknownIdentifierError):
            parse_expr("x3", dim=2)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("1 + 2 )")
        assert exc.value.offset == 6

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(1 + 2")

    def test_wrong_arity(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("min(1)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("abs(1, 2)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1 + $")

    @pytest.mark.parametrize("text", ["x1", "1 + x1^2", "min(x1, 2)"])
    @pytest.mark.parametrize("space", [" ", " \t", "\n  "])
    def test_trailing_whitespace_is_ignored(self, text, space):
        assert parse_expr(text + space, dim=1) == parse_expr(text, dim=1)
        assert parse_expr(space + text + space, dim=1) == parse_expr(text, dim=1)

    @pytest.mark.parametrize("text, offset", [("1 + $", 4), ("1 + 2 )", 6),
                                              ("x1 x1", 3)])
    def test_trailing_whitespace_keeps_error_offsets(self, text, offset):
        for t in (text, text + " \t"):
            with pytest.raises(ExprSyntaxError) as exc:
                parse_expr(t, dim=1)
            assert exc.value.offset == offset


# random expression trees for the roundtrip property
_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const),
    st.integers(min_value=1, max_value=3).map(Var),
)


def _trees(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(*t)
        ),
        st.tuples(st.sampled_from(["abs", "exp", "sin", "cos"]), children).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


expr_trees = st.recursive(_leaves, _trees, max_leaves=32)


class TestRoundtrip:
    @given(expr_trees)
    @settings(max_examples=300, deadline=None)
    def test_parse_print_identity(self, tree):
        assert parse_expr(print_expr(tree)) == tree

    @given(expr_trees)
    @settings(max_examples=100, deadline=None)
    def test_printed_form_reparses_stably(self, tree):
        text = print_expr(tree)
        assert print_expr(parse_expr(text)) == text
