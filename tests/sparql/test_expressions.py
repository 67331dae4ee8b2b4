"""Unit tests for SPARQL expression evaluation."""

import pytest

from repro.rdf.terms import IRI, Literal, Variable
from repro.sparql.expressions import (
    BinaryExpr,
    ConstExpr,
    ExpressionError,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
    effective_boolean_value,
    evaluate,
    evaluate_filter,
    expression_variables,
)


def const(value):
    return ConstExpr(Literal.from_python(value))


def var(name):
    return VarExpr(Variable(name))


X = Variable("x")
Y = Variable("y")


class TestEvaluate:
    def test_constant(self):
        assert evaluate(const(5), {}) == 5

    def test_variable_lookup(self):
        assert evaluate(var("x"), {X: Literal.from_python(7)}) == 7

    def test_unbound_variable_errors(self):
        with pytest.raises(ExpressionError):
            evaluate(var("x"), {})

    def test_iri_value(self):
        assert evaluate(var("x"), {X: IRI("urn:a")}) == IRI("urn:a")

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("+", 2, 3, 5),
            ("-", 2, 3, -1),
            ("*", 2, 3, 6),
            ("/", 6, 3, 2),
            ("=", 2, 2, True),
            ("!=", 2, 3, True),
            ("<", 2, 3, True),
            (">", 2, 3, False),
            ("<=", 3, 3, True),
            (">=", 2, 3, False),
        ],
    )
    def test_binary_ops(self, op, left, right, expected):
        assert evaluate(BinaryExpr(op, const(left), const(right)), {}) == expected

    def test_division_by_zero_errors(self):
        with pytest.raises(ExpressionError):
            evaluate(BinaryExpr("/", const(1), const(0)), {})

    def test_string_comparison(self):
        assert evaluate(BinaryExpr("<", const("abc"), const("abd")), {}) is True

    def test_mixed_type_ordering_errors(self):
        with pytest.raises(ExpressionError):
            evaluate(BinaryExpr("<", const("a"), const(1)), {})

    def test_unary_negation(self):
        assert evaluate(UnaryExpr("-", const(5)), {}) == -5

    def test_unary_not(self):
        assert evaluate(UnaryExpr("!", const(True)), {}) is False

    def test_logical_and_short_circuit(self):
        expr = BinaryExpr("&&", const(False), var("missing"))
        assert evaluate(expr, {}) is False

    def test_logical_or_recovers_from_error(self):
        expr = BinaryExpr("||", var("missing"), const(True))
        assert evaluate(expr, {}) is True

    def test_logical_or_error_when_other_false(self):
        expr = BinaryExpr("||", var("missing"), const(False))
        with pytest.raises(ExpressionError):
            evaluate(expr, {})

    def test_logical_and_error_when_other_true(self):
        expr = BinaryExpr("&&", var("missing"), const(True))
        with pytest.raises(ExpressionError):
            evaluate(expr, {})


class TestFunctions:
    def test_bound_true_false(self):
        assert evaluate(FunctionExpr("BOUND", (var("x"),)), {X: IRI("urn:a")}) is True
        assert evaluate(FunctionExpr("BOUND", (var("x"),)), {}) is False

    def test_str_of_iri(self):
        assert evaluate(FunctionExpr("STR", (var("x"),)), {X: IRI("urn:a")}) == "urn:a"

    def test_str_of_number(self):
        assert evaluate(FunctionExpr("STR", (const(5),)), {}) == "5"

    def test_regex_basic(self):
        expr = FunctionExpr("REGEX", (const("hepatomegaly"), const("hepato")))
        assert evaluate(expr, {}) is True

    def test_regex_case_insensitive_flag(self):
        expr = FunctionExpr("REGEX", (const("MAPK pathway"), const("mapk"), const("i")))
        assert evaluate(expr, {}) is True

    def test_regex_no_match(self):
        expr = FunctionExpr("REGEX", (const("abc"), const("zzz")))
        assert evaluate(expr, {}) is False

    def test_regex_non_string_errors(self):
        expr = FunctionExpr("REGEX", (const(5), const("a")))
        with pytest.raises(ExpressionError):
            evaluate(expr, {})

    def test_regex_invalid_pattern_is_an_expression_error(self):
        """An unbalanced pattern is a SPARQL expression error -- FILTER
        false -- not a raw ``re.error``."""
        expr = FunctionExpr(
            "REGEX", (const("MAPK signaling"), const("MAPK) signaling"), const("i"))
        )
        with pytest.raises(ExpressionError, match="REGEX pattern"):
            evaluate(expr, {})
        assert evaluate_filter(expr, {}) is False

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            evaluate(FunctionExpr("NOPE", ()), {})


class TestEffectiveBooleanValue:
    @pytest.mark.parametrize(
        "value,expected",
        [(True, True), (False, False), (1, True), (0, False), ("x", True), ("", False)],
    )
    def test_ebv(self, value, expected):
        assert effective_boolean_value(value) is expected

    def test_ebv_of_iri_errors(self):
        with pytest.raises(ExpressionError):
            effective_boolean_value(IRI("urn:a"))


class TestEvaluateFilter:
    def test_true(self):
        assert evaluate_filter(BinaryExpr(">", const(5), const(2)), {})

    def test_error_is_false(self):
        assert not evaluate_filter(var("missing"), {})

    @pytest.mark.parametrize("op", ["=", "!=", "<", ">="])
    @pytest.mark.parametrize("number", [1, 0, 1.0])
    def test_a_boolean_against_a_number_is_a_type_error(self, op, number):
        """SPARQL 1.1 has no boolean x numeric operator, and RDFterm-equal
        (§17.4.1.7) is a type error: the FILTER is false either way."""
        expression = BinaryExpr(op, var("b"), const(number))
        with pytest.raises(ExpressionError):
            evaluate(expression, {Variable("b"): Literal.from_python(True)})
        assert not evaluate_filter(expression, {Variable("b"): Literal.from_python(True)})

    def test_booleans_still_compare_with_booleans(self):
        assert evaluate_filter(BinaryExpr("=", const(True), const(True)), {})
        assert evaluate_filter(BinaryExpr("!=", const(True), const(False)), {})


def test_expression_variables():
    expr = BinaryExpr("+", var("x"), FunctionExpr("STR", (var("y"),)))
    assert expression_variables(expr) == frozenset({X, Y})
