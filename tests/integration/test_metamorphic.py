"""Metamorphic relations: a rewrite that keeps a query's meaning keeps
its simulated clock.

The paper's result is the simulated clock (MR cycles, bytes scanned,
shuffled and materialized, cost seconds), so it must price what a query
means, not how it is spelled.  Each relation below rewrites a query
into another spelling of the same query (Atre's semantics: the same
solution multiset, here also in the same order) and requires every
engine's rows, cycles and every simulated byte, record and cost field
to stay identical -- unsharded, and at two shards under both
partitioners on the engines that shard.

The relations run over the whole catalog at the ``tiny`` presets and
over generated star-shaped composites (:func:`tests.ntga.strategies.
analytical_queries`), the shape real query logs are mostly made of.
A relation a query text is needed for (prefixed vs full IRIs) runs over
the catalog only.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass, replace
from functools import cache
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.catalog import CATALOG, get_query
from repro.bench.harness import dataset_config
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.core.query_model import AnalyticalQuery, PropKey
from repro.core.results import SHARD_CAPABLE_ENGINES, EngineConfig, ExecutionReport
from repro.datasets import generate
from repro.rdf.terms import BNode, IRI, Literal, Variable
from repro.sparql.expressions import BinaryExpr, FunctionExpr, VarExpr, expression_variables
from tests.ntga.strategies import analytical_queries, composite_graphs

#: (engine, shards, partitioner) cells every relation is checked on.
CELLS = (
    *((engine, 1, None) for engine in ("reference", *PAPER_ENGINES)),
    *(
        (engine, 2, partitioner)
        for engine in SHARD_CAPABLE_ENGINES
        for partitioner in ("hash", "min-edge-cut")
    ),
)

def _same(variable: Variable) -> Variable:
    return variable


def _mapped(node, variable_map: Callable[[Variable], Variable]):
    """*node* with every variable replaced through *variable_map*,
    rebuilt field by field (terms and interned keys hold none)."""
    if isinstance(node, Variable):
        return variable_map(node)
    if isinstance(node, (IRI, BNode, Literal, PropKey, str)):
        return node
    if isinstance(node, tuple):
        return tuple(_mapped(item, variable_map) for item in node)
    if isinstance(node, frozenset):
        return frozenset(_mapped(item, variable_map) for item in node)
    if is_dataclass(node):
        return type(node)(
            **{
                field.name: _mapped(getattr(node, field.name), variable_map)
                for field in fields(node)
                if field.init
            }
        )
    return node


def renamed(query: AnalyticalQuery):
    """Every variable gets a suffix: a longer spelling of one query."""
    return (
        replace(_mapped(query, lambda v: Variable(v.name + "_xxxxxxxx")), source_text=None),
        lambda v: Variable(v.name.removesuffix("_xxxxxxxx")),
    )


def _with_subqueries(query: AnalyticalQuery, rewrite) -> AnalyticalQuery:
    return replace(
        query,
        subqueries=tuple(rewrite(subquery) for subquery in query.subqueries),
        source_text=None,
    )


def _with_stars(query: AnalyticalQuery, rewrite) -> AnalyticalQuery:
    return _with_subqueries(
        query,
        lambda subquery: replace(
            subquery, pattern=replace(subquery.pattern, stars=rewrite(subquery.pattern.stars))
        ),
    )


def property_order(query: AnalyticalQuery):
    """Each star lists its triple patterns in reverse."""
    return (
        _with_stars(
            query,
            lambda stars: tuple(replace(star, patterns=star.patterns[::-1]) for star in stars),
        ),
        _same,
    )


def star_order(query: AnalyticalQuery):
    """Each subquery lists its stars in reverse."""
    return _with_stars(query, lambda stars: stars[::-1]), _same


def subquery_order(query: AnalyticalQuery):
    """The outer query lists its grouping subqueries in reverse."""
    return replace(query, subqueries=query.subqueries[::-1], source_text=None), _same


def _flipped(expression):
    """*expression* with the operands of every ``&&`` swapped."""
    if isinstance(expression, BinaryExpr):
        left, right = _flipped(expression.left), _flipped(expression.right)
        if expression.op == "&&":
            left, right = right, left
        return BinaryExpr(expression.op, left, right)
    return expression


def conjunct_order(query: AnalyticalQuery):
    """Each subquery lists its FILTERs in reverse, and every conjunction
    its conjuncts."""
    return (
        _with_subqueries(
            query,
            lambda subquery: replace(
                subquery,
                pattern=replace(
                    subquery.pattern,
                    filters=tuple(_flipped(f) for f in subquery.pattern.filters[::-1]),
                ),
            ),
        ),
        _same,
    )


def conjoined(query: AnalyticalQuery) -> AnalyticalQuery:
    """*query* with each FILTER ``F`` spelled as the two clauses
    ``F && BOUND(?x)`` and ``BOUND(?x)`` (``?x`` the first variable ``F``
    reads, always bound there): the same query, with conjuncts and
    clauses for :func:`conjunct_order` to swap."""

    def bound(expression):
        (variable, *_) = sorted(expression_variables(expression), key=lambda v: v.name)
        return FunctionExpr("BOUND", (VarExpr(variable),))

    def rewrite(subquery):
        filters = subquery.pattern.filters
        spelled = tuple(BinaryExpr("&&", f, bound(f)) for f in filters)
        spelled += tuple(bound(f) for f in filters)
        return replace(subquery, pattern=replace(subquery.pattern, filters=spelled))

    return _with_subqueries(query, rewrite)


_PREFIX = re.compile(r"^PREFIX (\w+): <([^>]*)>\n", re.MULTILINE)


def full_iris(text: str) -> str:
    """The query text with every prefixed name written as a full IRI."""
    for prefix, namespace in _PREFIX.findall(text):
        text = re.sub(rf"\b{prefix}:(\w+)", rf"<{namespace}\1>", text)
    return _PREFIX.sub("", text)


def signature(report: ExecutionReport, variable_map=_same) -> dict:
    """Everything a relation must keep: the rows, in order, read in the
    original's variables, and every simulated cycle, byte, record and
    cost figure (job names are labels, not measurements)."""
    stats = report.stats
    return {
        "rows": [{variable_map(v): t for v, t in row.items()} for row in report.rows],
        "cycles": report.cycles,
        "map_only_cycles": report.map_only_cycles,
        "cost_seconds": report.cost_seconds,
        "load_bytes": report.load_bytes,
        "counters": stats.counters.as_dict() if stats else {},
        "jobs": [
            (
                job.map_only, job.map_tasks, job.reduce_tasks, job.input_bytes,
                job.side_input_bytes, job.shuffle_bytes, job.output_bytes,
                job.input_records, job.output_records, job.cost_seconds,
            )
            for job in (stats.jobs if stats else ())
        ],
    }


def _config(base: EngineConfig, shards: int, partitioner: str | None) -> EngineConfig:
    return replace(base, shards=shards, partitioner=partitioner) if shards > 1 else base


def signatures(query, graph, base: EngineConfig, variable_map=_same) -> dict:
    """:func:`signature` of *query* in every cell."""
    return {
        (engine, *sharding): signature(
            make_engine(engine).execute(query, graph, _config(base, *sharding)), variable_map
        )
        for engine, *sharding in CELLS
    }


def assert_same(before: dict, after: dict) -> None:
    for cell in CELLS:
        assert after[cell] == before[cell], cell


# -- over the catalog ------------------------------------------------------------


@cache
def _graph(dataset: str):
    return generate(dataset, "tiny")


def _setting(qid: str) -> tuple:
    dataset = get_query(qid).dataset
    return _graph(dataset), dataset_config(dataset)


@cache
def _catalog_signatures(qid: str) -> dict:
    return signatures(to_analytical(get_query(qid).sparql), *_setting(qid))


QIDS = sorted(CATALOG)
FILTERED = [qid for qid in QIDS if "FILTER" in get_query(qid).sparql]

CATALOG_REWRITES = {
    "renaming": renamed,
    "property-order": property_order,
    "star-order": star_order,
    "subquery-order": subquery_order,
}

#: Relations that do not hold yet, with their cause, and the catalog
#: queries they break on.  Every break found keeps the rows' multiset;
#: what moves is the order of the rows or the plan.
BREAKS = {
    "property-order": (
        {"G6", "G7", "G8", "MG6", "MG7", "MG8", "MG10", "MG11", "MG12", "MG13", "MG14",
         "MG17", "MG18"},
        "the reference evaluator walks a star's patterns in the order written, so "
        "its row order follows them; Hive streams the first-written of two "
        "equally large tables, and hive-mqo's grouping of MG13 and MG14 "
        "shuffles partial rows laid out in the composite's pattern order",
    ),
    "star-order": (
        set(QIDS),
        "the engines plan stars in the order written: Hive forms and joins "
        "them in that order (another join tree, other map-join choices, "
        "other cycle counts), RAPID+ and RAPIDAnalytics expand and α-join "
        "them in that order, and the reference's row order follows its walk",
    ),
    "subquery-order": (
        {qid for qid in QIDS if get_query(qid).is_multi_grouping},
        "grouping subqueries are planned, materialized and combined in the "
        "order written: the job sequence, the MQO composite's layout and "
        "the outer combination's row order follow it",
    ),
}


def _cells(relations):
    for relation in sorted(relations):
        broken, cause = BREAKS.get(relation, ((), ""))
        for qid in QIDS:
            marks = pytest.mark.xfail(strict=True, reason=cause) if qid in broken else ()
            yield pytest.param(relation, qid, marks=marks, id=f"{relation}-{qid}")


@pytest.mark.parametrize("relation, qid", _cells(CATALOG_REWRITES))
def test_catalog_relation(relation, qid):
    rewritten, variable_map = CATALOG_REWRITES[relation](to_analytical(get_query(qid).sparql))
    assert_same(_catalog_signatures(qid), signatures(rewritten, *_setting(qid), variable_map))


@pytest.mark.parametrize("qid", QIDS)
def test_catalog_prefixed_and_full_iris(qid):
    text = get_query(qid).sparql
    spelled = full_iris(text)
    assert "PREFIX" not in spelled and spelled != text
    assert_same(_catalog_signatures(qid), signatures(to_analytical(spelled), *_setting(qid)))


@pytest.mark.parametrize("qid", FILTERED)
def test_catalog_filter_conjunct_order(qid):
    query = conjoined(to_analytical(get_query(qid).sparql))
    rewritten, _ = conjunct_order(query)
    assert rewritten != query
    assert_same(signatures(query, *_setting(qid)), signatures(rewritten, *_setting(qid)))


def test_the_catalog_has_filters_to_reorder():
    assert FILTERED


# -- over generated queries ------------------------------------------------------

#: Property order is left out here: over these small stars it breaks
#: only where two tables tie in size, which a handful of samples rarely
#: draws, so a strict xfail would flip with the sample; the catalog
#: pins its breaks deterministically.
GENERATED_REWRITES = {
    "renaming": renamed,
    "conjunct-order": conjunct_order,
    "star-order": star_order,
    "subquery-order": subquery_order,
}


@pytest.mark.parametrize(
    "relation",
    [
        pytest.param(relation, marks=pytest.mark.xfail(strict=True, reason=BREAKS[relation][1]))
        if relation in BREAKS
        else relation
        for relation in sorted(GENERATED_REWRITES)
    ],
)
@settings(
    max_examples=8,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=analytical_queries(filtered=True), graph=composite_graphs())
def test_generated_relation(relation, query, graph):
    rewritten, variable_map = GENERATED_REWRITES[relation](query)
    base = EngineConfig()
    assert_same(signatures(query, graph, base), signatures(rewritten, graph, base, variable_map))
