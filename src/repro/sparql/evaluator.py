"""The reference engine's in-memory operators.

:mod:`repro.core.reference` evaluates an analytical query's grouping
subqueries with these: basic graph pattern matching, the hash join and
left join of solution sequences, grouping with aggregates, and the
ORDER BY sort every engine's result modifiers share.

A basic graph pattern is matched as index nested-loop joins: patterns
are taken greedily, most bound components first; each step is compiled
once from the variables bound so far, then every row walks the graph's
SPO, POS or OSP index (:meth:`Graph.walk`) with its bound terms and is
extended once per match.  Rows, and the keys in each row, come out in
the order of that walk, which follows the graph's insertion order.  The
engines, not this module, are where the paper's optimizations live.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.errors import SparqlEvaluationError
from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Literal, Term, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.aggregates import UNBOUND, make_accumulator
from repro.sparql.ast import AggregateExpr, OrderCondition, ProjectionExpression
from repro.sparql.expressions import (
    Bindings,
    ExpressionError,
    evaluate as evaluate_expression,
)

Row = Bindings  # Variable -> Term
Rows = list[Row]


def _python_to_term(value: object) -> Term:
    if isinstance(value, (IRI, BNode, Literal)):
        return value
    if isinstance(value, (bool, int, float, str)):
        return Literal.from_python(value)
    raise SparqlEvaluationError(f"cannot convert {value!r} to an RDF term")


# ---------------------------------------------------------------------------
# BGP matching
# ---------------------------------------------------------------------------


def _pattern_selectivity(pattern: TriplePattern, bound: set[Variable]) -> int:
    """Higher is more selective: count of concrete-or-bound components."""
    score = 0
    for component in pattern:
        if not isinstance(component, Variable) or component in bound:
            score += 1
    return score


def _compile_step(pattern: TriplePattern, bound: set[Variable]):
    """Fix, once per step, where each component of *pattern* comes from
    (every row at a step binds the same variables, *bound*).

    The first three results are a ``(constant, variable)`` pair per
    position: a constant is looked up as given, a bound variable is read
    from the row, and a new variable (``(None, None)``) matches anything.
    Then each new variable with the position it first occurs at, in
    order, and the ``(later, first)`` positions of a new variable that
    repeats, whose terms must be equal."""
    lookup: list[tuple[Term | None, Variable | None]] = []
    first: dict[Variable, int] = {}
    repeats: list[tuple[int, int]] = []
    for position, component in enumerate(pattern):
        if not isinstance(component, Variable):
            lookup.append((component, None))
        elif component in bound:
            lookup.append((None, component))
        else:
            lookup.append((None, None))
            if component in first:
                repeats.append((position, first[component]))
            else:
                first[component] = position
    return (*lookup, tuple(first.items()), repeats)


def evaluate_bgp(patterns: Sequence[TriplePattern], graph: Graph) -> Rows:
    """Match a basic graph pattern as index nested-loop joins, choosing
    the join order greedily by the number of bound components."""
    rows: Rows = [{}]
    remaining = list(patterns)
    bound: set[Variable] = set()
    while remaining:
        remaining.sort(key=lambda step: _pattern_selectivity(step, bound), reverse=True)
        pattern = remaining.pop(0)
        (s, read_s), (p, read_p), (o, read_o), new, repeats = _compile_step(pattern, bound)
        next_rows: Rows = []
        for row in rows:
            walk = graph.walk(
                s if read_s is None else row[read_s],
                p if read_p is None else row[read_p],
                o if read_o is None else row[read_o],
            )
            for terms in walk:
                if repeats and any(terms[i] != terms[j] for i, j in repeats):
                    continue
                extended = dict(row)
                for variable, position in new:
                    extended[variable] = terms[position]
                next_rows.append(extended)
        rows = next_rows
        if not rows:
            return []
        bound |= pattern.variables()
    return rows


# ---------------------------------------------------------------------------
# Solution mapping combinators
# ---------------------------------------------------------------------------


def compatible(left: Row, right: Row) -> bool:
    """SPARQL solution-mapping compatibility."""
    for variable, term in left.items():
        other = right.get(variable)
        if other is not None and other != term:
            return False
    return True


def merge_rows(left: Row, right: Row) -> Row:
    merged = dict(left)
    merged.update(right)
    return merged


def hash_join(left: Rows, right: Rows) -> Rows:
    """Join two solution multisets on their shared variables.

    Uses a hash join on the shared variables when every row binds all of
    them, falling back to a nested-loop compatibility join otherwise
    (needed in the presence of OPTIONAL-produced partial rows).
    """
    if not left or not right:
        return []
    left_vars = set().union(*(row.keys() for row in left))
    right_vars = set().union(*(row.keys() for row in right))
    shared = left_vars & right_vars
    if not shared:
        return [merge_rows(l, r) for l in left for r in right]
    shared_tuple = tuple(sorted(shared, key=lambda v: v.name))
    fully_bound = all(
        all(v in row for v in shared_tuple) for row in left
    ) and all(all(v in row for v in shared_tuple) for row in right)
    if not fully_bound:
        return [merge_rows(l, r) for l in left for r in right if compatible(l, r)]
    index: dict[tuple, Rows] = defaultdict(list)
    for row in right:
        index[tuple(row[v] for v in shared_tuple)].append(row)
    output: Rows = []
    for row in left:
        key = tuple(row[v] for v in shared_tuple)
        for match in index.get(key, ()):
            output.append(merge_rows(row, match))
    return output


def left_join(left: Rows, right: Rows) -> Rows:
    output: Rows = []
    for l in left:
        matched = False
        for r in right:
            if compatible(l, r):
                output.append(merge_rows(l, r))
                matched = True
        if not matched:
            output.append(dict(l))
    return output


# ---------------------------------------------------------------------------
# Grouping and aggregation
# ---------------------------------------------------------------------------


def _group_key(row: Row, group_vars: tuple[Variable, ...]) -> tuple:
    return tuple(row.get(variable) for variable in group_vars)


def _compute_aggregate(aggregate: AggregateExpr, rows: Rows) -> object:
    accumulator = make_accumulator(aggregate.func, aggregate.distinct)
    if aggregate.arg is None:  # COUNT(*)
        for _ in rows:
            accumulator.update(None)
        return accumulator.result()
    for row in rows:
        try:
            value = evaluate_expression(aggregate.arg, row)
        except ExpressionError:
            continue  # unbound/erroring rows do not contribute
        accumulator.update(value.value if isinstance(value, IRI) else value)
    return accumulator.result()


def evaluate_aggregate(
    group_vars: tuple[Variable, ...],
    bindings: Sequence[tuple[Variable, ProjectionExpression]],
    rows: Rows,
) -> Rows:
    """Group *rows* on *group_vars* and bind, per group, each alias of
    *bindings* to a group variable's key or an aggregate's result.  No
    group variables is GROUP BY ALL: one group, even over no rows."""
    groups: dict[tuple, Rows] = defaultdict(list)
    if not group_vars:
        groups[()] = []
    for row in rows:
        groups[_group_key(row, group_vars)].append(row)
    output: Rows = []
    for key, group_rows in groups.items():
        representative: Row = {
            variable: term for variable, term in zip(group_vars, key) if term is not None
        }
        result_row: Row = {}
        for alias, expression in bindings:
            if isinstance(expression, AggregateExpr):
                value = _compute_aggregate(expression, group_rows)
                if value is UNBOUND:
                    continue  # aggregate produced no value (e.g. MIN of empty)
            else:
                try:
                    value = evaluate_expression(expression, representative)
                except ExpressionError:
                    continue  # an unbound group key leaves the alias unbound
            result_row[alias] = _python_to_term(value)
        output.append(result_row)
    return output


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def _order_key(conditions: tuple[OrderCondition, ...]):
    def type_rank(value: object) -> int:
        if isinstance(value, bool):
            return 1
        if isinstance(value, (int, float)):
            return 2
        if isinstance(value, str):
            return 3
        if isinstance(value, IRI):
            return 4
        return 5

    def key(row: Row):
        parts = []
        for condition in conditions:
            try:
                value = evaluate_expression(condition.expression, row)
            except ExpressionError:
                parts.append((0, 0, ""))  # unbound sorts first
                continue
            rank = type_rank(value)
            if isinstance(value, IRI):
                comparable: object = value.value
            elif isinstance(value, bool):
                comparable = int(value)
            else:
                comparable = value
            if condition.descending and isinstance(comparable, (int, float)):
                comparable = -comparable
                parts.append((rank, 0, comparable))
            else:
                parts.append((rank, 0, comparable))
        return tuple(parts)

    return key


def _sort_rows(rows: Rows, conditions: tuple[OrderCondition, ...]) -> Rows:
    # Stable multi-pass sort: apply conditions right-to-left so string
    # descending order also works (Python sort has no per-key reverse).
    ordered = list(rows)
    for condition in reversed(conditions):
        ordered.sort(key=_order_key((OrderCondition(condition.expression, False),)))
        if condition.descending:
            ordered.reverse()
    return ordered
