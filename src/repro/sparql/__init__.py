"""SPARQL front end: tokenizer, parser, AST, serializer, and the
reference engine's in-memory operators (:mod:`repro.sparql.evaluator`)."""

from repro.sparql.aggregates import (
    Accumulator,
    UNBOUND,
    aggregate_values,
    make_accumulator,
)
from repro.sparql.ast import (
    AggregateExpr,
    FilterPattern,
    GroupGraphPattern,
    OptionalPattern,
    ProjectionItem,
    SelectQuery,
    SubSelect,
    TriplesBlock,
    UnionPattern,
)
from repro.sparql.evaluator import evaluate_bgp
from repro.sparql.expressions import (
    BinaryExpr,
    Bindings,
    ConstExpr,
    Expression,
    ExpressionError,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
    evaluate_filter,
)
from repro.sparql.parser import parse_query
from repro.sparql.serializer import expression_text, serialize_query
from repro.sparql.tokenizer import Token, tokenize

__all__ = [
    "expression_text",
    "serialize_query",
    "Accumulator",
    "AggregateExpr",
    "BinaryExpr",
    "Bindings",
    "ConstExpr",
    "Expression",
    "ExpressionError",
    "FilterPattern",
    "FunctionExpr",
    "GroupGraphPattern",
    "OptionalPattern",
    "ProjectionItem",
    "SelectQuery",
    "SubSelect",
    "Token",
    "TriplesBlock",
    "UNBOUND",
    "UnaryExpr",
    "UnionPattern",
    "VarExpr",
    "aggregate_values",
    "evaluate_bgp",
    "evaluate_filter",
    "make_accumulator",
    "parse_query",
    "tokenize",
]
