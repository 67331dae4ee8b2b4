"""Reference (oracle) evaluation of analytical queries.

Evaluates the decomposed :class:`AnalyticalQuery` model directly with
the in-memory SPARQL machinery — no MapReduce, no rewriting.  Every
distributed engine must reproduce this engine's row multiset.
"""

from __future__ import annotations

from repro.core.query_model import AnalyticalQuery, GroupingSubquery
from repro.core.results import EngineConfig, ExecutionReport, Row, check_supported
from repro.rdf.graph import Graph
from repro.sparql.ast import AggregateExpr
from repro.sparql.evaluator import (
    evaluate_aggregate,
    evaluate_bgp,
    hash_join,
    left_join,
    _python_to_term,
    _sort_rows,
)
from repro.sparql.expressions import (
    ExpressionError,
    VarExpr,
    evaluate as evaluate_expression,
    evaluate_filter,
)


def evaluate_subquery(subquery: GroupingSubquery, graph: Graph) -> list[Row]:
    """Evaluate one grouping subquery: BGP (+ OPTIONAL left joins),
    filters, group, aggregate."""
    required: list = []
    optional: list = []
    for star in subquery.pattern.stars:
        for pattern in star.patterns:
            (optional if star.is_optional(pattern) else required).append(pattern)
    rows = evaluate_bgp(required, graph)
    for pattern in optional:
        rows = left_join(rows, evaluate_bgp([pattern], graph))
    for expression in subquery.pattern.filters:
        rows = [row for row in rows if evaluate_filter(expression, row)]
    bindings = []
    for variable in subquery.group_by:
        bindings.append((variable, VarExpr(variable)))
    for spec in subquery.aggregates:
        argument = None if spec.variable is None else VarExpr(spec.variable)
        bindings.append(
            (spec.alias, AggregateExpr(spec.func, argument, spec.distinct))
        )
    aggregated = evaluate_aggregate(subquery.group_by, bindings, rows)
    if subquery.having is not None:
        aggregated = [
            row for row in aggregated if evaluate_filter(subquery.having, row)
        ]
    return aggregated


def evaluate_analytical(query: AnalyticalQuery, graph: Graph) -> list[Row]:
    """Evaluate the full analytical query (join of subqueries, extends,
    projection)."""
    result: list[Row] | None = None
    for subquery in query.subqueries:
        rows = evaluate_subquery(subquery, graph)
        result = rows if result is None else hash_join(result, rows)
    assert result is not None
    output: list[Row] = []
    projection = set(query.projection)
    for row in result:
        extended = dict(row)
        for alias, expression in query.outer_extends:
            try:
                extended[alias] = _python_to_term(evaluate_expression(expression, extended))
            except ExpressionError:
                pass
        output.append({v: t for v, t in extended.items() if v in projection})
    if query.distinct:
        seen = set()
        deduped = []
        for row in output:
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        output = deduped
    return apply_result_modifiers(query, output)


def _canonical_row_key(row: Row):
    return sorted((variable.name, str(term)) for variable, term in row.items())


def apply_result_modifiers(query: AnalyticalQuery, rows: list[Row]) -> list[Row]:
    """Apply the outer ORDER BY / LIMIT / OFFSET, identically across engines.

    SPARQL leaves tie order unspecified; for cross-engine determinism
    (and testability) ties are broken by a canonical row key before the
    stable ORDER BY passes run.
    """
    if not query.has_modifiers():
        return rows
    rows = sorted(rows, key=_canonical_row_key)
    if query.order_by:
        rows = _sort_rows(rows, tuple(query.order_by))
    end = None if query.limit is None else query.offset + query.limit
    return rows[query.offset : end]


class ReferenceEngine:
    """Oracle engine: correct by construction, no cost accounting."""

    name = "reference"

    def execute(
        self, query: AnalyticalQuery, graph: Graph, config: EngineConfig | None = None
    ) -> ExecutionReport:
        from repro import obs

        check_supported(self.name, config)
        with obs.span(self.name, "engine", {"engine": self.name}):
            return ExecutionReport(
                engine=self.name,
                rows=evaluate_analytical(query, graph),
                stats=None,
                plan=["in-memory"],
            )
