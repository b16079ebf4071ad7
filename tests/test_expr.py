import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from revtone import ExprError, expr, parse_expr


def test_arithmetic_and_precedence():
    f = parse_expr("1 + 2*3 - 4/8", "s")
    assert f(0.0) == pytest.approx(6.5)
    # power binds tighter than unary minus and associates right
    assert parse_expr("-2^2", "s")(0.0) == pytest.approx(-4.0)
    assert parse_expr("2^3^2", "s")(0.0) == pytest.approx(512.0)


def test_variable_and_constants():
    f = parse_expr("cos(r)^2 + sin(r)^2", "r")
    assert f(0.71) == pytest.approx(1.0, abs=1e-15)
    assert parse_expr("pi", "s")(123.0) == pytest.approx(np.pi)
    # a constant expression still takes the shape of its argument
    assert parse_expr("pi", "s")(np.zeros(3)).shape == (3,)
    assert parse_expr("exp(0*s)", "s")(5.0) == pytest.approx(1.0)


def test_vectorizes_over_arrays():
    f = parse_expr("s^2 - s/2", "s")
    x = np.linspace(-1, 1, 11)
    assert np.allclose(f(x), x ** 2 - x / 2)


def test_scientific_notation_numbers():
    assert parse_expr("1.5e-3 + 2E2", "s")(0.0) == pytest.approx(200.0015)


def test_wrong_variable_rejected_with_position():
    with pytest.raises(ExprError) as err:
        parse_expr("sin(x)", "s")
    assert "position 5" in str(err.value)
    # positions count in the text as typed, across `^`
    with pytest.raises(ExprError) as err:
        parse_expr("r^2 + q", "r")
    assert "position 7" in str(err.value)


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(ExprError):
        parse_expr("cos(r", "r")
    with pytest.raises(ExprError):
        parse_expr("(r + 1))", "r")


@pytest.mark.parametrize("text", [
    "r + ", "r 2", "tan(r)", "r < 1", "r if r else 1", "r.real", "[r][0]",
    "sin(r, 2)", "sin(x=r)", "1j", "True", "r // 2", "r % 2", "r**2",
    "__import__('os')", "lambda: 1",
    pytest.param("r+" * 5000 + "r", id="deep-sum"),
    pytest.param("-" * 10000 + "r", id="deep-minus"),
])
def test_outside_the_grammar_rejected(text):
    with pytest.raises(ExprError):
        parse_expr(text, "r")


def test_expression_at_the_nesting_cap_evaluates_deep_in_the_stack():
    f = parse_expr("r+" * expr._MAX_DEPTH + "r", "r")

    def nested(k):
        return f(2.0) if k == 0 else nested(k - 1)

    assert nested(sys.getrecursionlimit() - 3 * expr._MAX_DEPTH) == 2.0 * (expr._MAX_DEPTH + 1)
    with pytest.raises(ExprError, match="nested deeper"):
        parse_expr("r+" * (expr._MAX_DEPTH + 1) + "r", "r")


@given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
       x=st.floats(-2, 2))
def test_matches_polynomial_evaluation(coeffs, x):
    text = " + ".join(f"{c!r}*s^{k}" for k, c in enumerate(coeffs))
    f = parse_expr(text, "s")
    expected = sum(c * x ** k for k, c in enumerate(coeffs))
    assert f(x) == pytest.approx(expected, abs=1e-9, rel=1e-9)
