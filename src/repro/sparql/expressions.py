"""SPARQL expression AST and evaluation.

Implements the expression subset the paper's analytical queries use:
logical ``&&``/``||``/``!``, comparisons, arithmetic, ``REGEX``,
``BOUND``, ``STR``, and effective boolean value semantics.  Expression
errors follow SPARQL semantics: they propagate as
:class:`ExpressionError` and FILTER treats them as false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from repro.errors import SparqlEvaluationError
from repro.rdf.terms import IRI, Literal, Term, Variable


class ExpressionError(SparqlEvaluationError):
    """A SPARQL expression evaluation error (type error, unbound var...)."""


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarExpr:
    variable: Variable

    def __str__(self) -> str:
        return self.variable.n3()


@dataclass(frozen=True)
class ConstExpr:
    term: Term

    def __str__(self) -> str:
        return self.term.n3()


@dataclass(frozen=True)
class UnaryExpr:
    op: str  # '!' or '-' or '+'
    operand: "Expression"

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class BinaryExpr:
    op: str  # '||' '&&' '=' '!=' '<' '>' '<=' '>=' '+' '-' '*' '/'
    left: "Expression"
    right: "Expression"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class FunctionExpr:
    """A builtin call: REGEX, BOUND, STR."""

    name: str  # upper-cased
    args: tuple["Expression", ...]

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.name}({rendered})"


Expression = Union[VarExpr, ConstExpr, UnaryExpr, BinaryExpr, FunctionExpr]

#: A solution mapping: variable -> concrete term.
Bindings = dict[Variable, Term]


def expression_variables(expr: Expression) -> frozenset[Variable]:
    """All variables mentioned anywhere in *expr*."""
    if isinstance(expr, VarExpr):
        return frozenset((expr.variable,))
    if isinstance(expr, ConstExpr):
        return frozenset()
    if isinstance(expr, UnaryExpr):
        return expression_variables(expr.operand)
    if isinstance(expr, BinaryExpr):
        return expression_variables(expr.left) | expression_variables(expr.right)
    if isinstance(expr, FunctionExpr):
        result: frozenset[Variable] = frozenset()
        for arg in expr.args:
            result |= expression_variables(arg)
        return result
    raise ExpressionError(f"unknown expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _numeric(value: object) -> Union[int, float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionError(f"expected a numeric value, got {value!r}")
    return value


def term_value(term: Term) -> object:
    """The comparable/computable value of an RDF term."""
    if isinstance(term, Literal):
        return term.python_value()
    return term


def effective_boolean_value(value: object) -> bool:
    """SPARQL EBV: booleans as-is, numbers vs 0, strings vs ''."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return value != ""
    raise ExpressionError(f"no effective boolean value for {value!r}")


def _compare(op: str, left: object, right: object) -> bool:
    # Python's bool is an int, but SPARQL's boolean and numeric value
    # spaces are disjoint: no operator compares them, and RDFterm-equal
    # (SPARQL 1.1 §17.4.1.7) is a type error between distinct literals.
    if isinstance(left, bool) != isinstance(right, bool) and isinstance(
        left, (int, float)
    ) and isinstance(right, (int, float)):
        raise ExpressionError(f"cannot compare {left!r} and {right!r}")
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    # Ordering comparisons require mutually comparable operands.
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    textual = isinstance(left, str) and isinstance(right, str)
    if not (numeric or textual):
        raise ExpressionError(f"cannot order {left!r} and {right!r}")
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise ExpressionError(f"unknown comparison operator {op!r}")


def evaluate(expr: Expression, bindings: Bindings) -> object:
    """Evaluate *expr* under *bindings* to a Python value or RDF term.

    Raises :class:`ExpressionError` on SPARQL expression errors (the
    caller decides whether that means "false" as in FILTER, or an
    unbound result as in projection of a failed BIND).
    """
    if isinstance(expr, ConstExpr):
        return term_value(expr.term)
    if isinstance(expr, VarExpr):
        term = bindings.get(expr.variable)
        if term is None:
            raise ExpressionError(f"unbound variable {expr.variable}")
        return term_value(term)
    if isinstance(expr, UnaryExpr):
        if expr.op == "!":
            return not effective_boolean_value(evaluate(expr.operand, bindings))
        value = _numeric(evaluate(expr.operand, bindings))
        return -value if expr.op == "-" else value
    if isinstance(expr, BinaryExpr):
        return _evaluate_binary(expr, bindings)
    if isinstance(expr, FunctionExpr):
        return _evaluate_function(expr, bindings)
    raise ExpressionError(f"unknown expression node: {expr!r}")


def _evaluate_binary(expr: BinaryExpr, bindings: Bindings) -> object:
    op = expr.op
    if op == "||":
        # SPARQL logical-or: an error on one side is recoverable when the
        # other side is true.
        try:
            if effective_boolean_value(evaluate(expr.left, bindings)):
                return True
            left_error = False
        except ExpressionError:
            left_error = True
        right = effective_boolean_value(evaluate(expr.right, bindings))
        if right:
            return True
        if left_error:
            raise ExpressionError("logical-or: one operand errored, other false")
        return False
    if op == "&&":
        try:
            if not effective_boolean_value(evaluate(expr.left, bindings)):
                return False
            left_error = False
        except ExpressionError:
            left_error = True
        right = effective_boolean_value(evaluate(expr.right, bindings))
        if not right:
            return False
        if left_error:
            raise ExpressionError("logical-and: one operand errored, other true")
        return True

    left = evaluate(expr.left, bindings)
    right = evaluate(expr.right, bindings)
    if op in ("=", "!=", "<", ">", "<=", ">="):
        return _compare(op, left, right)
    left_num, right_num = _numeric(left), _numeric(right)
    if op == "+":
        return left_num + right_num
    if op == "-":
        return left_num - right_num
    if op == "*":
        return left_num * right_num
    if op == "/":
        if right_num == 0:
            raise ExpressionError("division by zero")
        return left_num / right_num
    raise ExpressionError(f"unknown binary operator {op!r}")


def _evaluate_function(expr: FunctionExpr, bindings: Bindings) -> object:
    name = expr.name
    if name == "BOUND":
        if len(expr.args) != 1 or not isinstance(expr.args[0], VarExpr):
            raise ExpressionError("BOUND takes exactly one variable argument")
        return expr.args[0].variable in bindings
    if name == "STR":
        if len(expr.args) != 1:
            raise ExpressionError("STR takes exactly one argument")
        value = evaluate(expr.args[0], bindings)
        if isinstance(value, IRI):
            return value.value
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)
    if name == "REGEX":
        if len(expr.args) not in (2, 3):
            raise ExpressionError("REGEX takes two or three arguments")
        text = evaluate(expr.args[0], bindings)
        pattern = evaluate(expr.args[1], bindings)
        if not isinstance(text, str) or not isinstance(pattern, str):
            raise ExpressionError("REGEX operands must be strings")
        flags = 0
        if len(expr.args) == 3:
            flag_text = evaluate(expr.args[2], bindings)
            if not isinstance(flag_text, str):
                raise ExpressionError("REGEX flags must be a string")
            if "i" in flag_text:
                flags |= re.IGNORECASE
        try:
            return re.search(pattern, text, flags) is not None
        except re.error as exc:  # a SPARQL expression error: FILTER is false
            raise ExpressionError(f"REGEX pattern {pattern!r}: {exc}") from None
    raise ExpressionError(f"unsupported function {name!r}")


def evaluate_filter(expr: Expression, bindings: Bindings) -> bool:
    """FILTER semantics: expression errors count as false."""
    try:
        return effective_boolean_value(evaluate(expr, bindings))
    except ExpressionError:
        return False
