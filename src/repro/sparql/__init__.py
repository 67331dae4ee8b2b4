"""SPARQL front end: tokenizer, parser, AST, serializer, and the
reference engine's in-memory operators (:mod:`repro.sparql.evaluator`)."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sparql.aggregates": (
            "Accumulator", "UNBOUND", "aggregate_values", "make_accumulator"
        ),
        "repro.sparql.ast": (
            "AggregateExpr",
            "FilterPattern",
            "GroupGraphPattern",
            "OptionalPattern",
            "ProjectionItem",
            "SelectQuery",
            "SubSelect",
            "TriplesBlock",
            "UnionPattern",
        ),
        "repro.sparql.evaluator": ("evaluate_bgp",),
        "repro.sparql.expressions": (
            "BinaryExpr",
            "Bindings",
            "ConstExpr",
            "Expression",
            "ExpressionError",
            "FunctionExpr",
            "UnaryExpr",
            "VarExpr",
            "evaluate_filter",
        ),
        "repro.sparql.parser": ("parse_query",),
        "repro.sparql.serializer": ("expression_text", "serialize_query"),
        "repro.sparql.tokenizer": ("Token", "tokenize"),
    },
)
