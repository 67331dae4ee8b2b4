"""The public execution facade: run any query on any engine.

>>> from repro import run_query
>>> report = run_query(sparql_text, graph, engine="rapid-analytics")
>>> report.rows, report.cycles, report.cost_seconds
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro import obs
from repro.core.query_model import AnalyticalQuery, from_select_query
from repro.core.results import EngineConfig, ExecutionReport
from repro.errors import PlanningError
from repro.rdf.graph import Graph
from repro.sparql.ast import SelectQuery
from repro.sparql.parser import parse_query


class Engine(Protocol):
    name: str

    def execute(
        self, query: AnalyticalQuery, graph: Graph, config: EngineConfig | None = None
    ) -> ExecutionReport:
        ...


def _reference() -> Engine:
    from repro.core.reference import ReferenceEngine

    return ReferenceEngine()


def _rapid_plus() -> Engine:
    from repro.ntga.engine import rapid_plus_engine

    return rapid_plus_engine()


def _rapid_analytics() -> Engine:
    from repro.ntga.engine import rapid_analytics_engine

    return rapid_analytics_engine()


def _hive_naive() -> Engine:
    from repro.hive.engine import hive_naive_engine

    return hive_naive_engine()


def _hive_mqo() -> Engine:
    from repro.hive.engine import hive_mqo_engine

    return hive_mqo_engine()


ENGINE_FACTORIES: dict[str, Callable[[], Engine]] = {
    "reference": _reference,
    "hive-naive": _hive_naive,
    "hive-mqo": _hive_mqo,
    "rapid-plus": _rapid_plus,
    "rapid-analytics": _rapid_analytics,
}

#: The engines the paper's evaluation compares (Section 5).
PAPER_ENGINES = ("hive-naive", "hive-mqo", "rapid-plus", "rapid-analytics")

def make_engine(name: str) -> Engine:
    try:
        factory = ENGINE_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(ENGINE_FACTORIES))
        raise PlanningError(f"unknown engine {name!r} (known: {known})") from None
    return factory()


def to_analytical(query: str | SelectQuery | AnalyticalQuery) -> AnalyticalQuery:
    """Coerce any accepted query form into the analytical model."""
    if isinstance(query, AnalyticalQuery):
        return query
    if isinstance(query, SelectQuery):
        return from_select_query(query)
    return from_select_query(parse_query(query), source_text=query)


def run_query(
    query: str | SelectQuery | AnalyticalQuery,
    graph: Graph,
    engine: str = "rapid-analytics",
    config: EngineConfig | None = None,
) -> ExecutionReport:
    """Parse (if needed), plan, and execute *query* on the named engine.

    Faults and recovery are knobs of *config* like any other:
    ``EngineConfig(fault_plan=..., recovery=...)``.
    """
    executor = make_engine(engine)
    with obs.span("query", "query", {"qid": "query"}):
        return executor.execute(to_analytical(query), graph, config)


def run_all_engines(
    query: str | SelectQuery | AnalyticalQuery,
    graph: Graph,
    config: EngineConfig | None = None,
    engines: tuple[str, ...] = PAPER_ENGINES,
) -> dict[str, ExecutionReport]:
    """Run the same query on several engines (the paper's comparisons)."""
    analytical = to_analytical(query)
    executors = {name: make_engine(name) for name in engines}
    with obs.span("query", "query", {"qid": "query"}):
        return {
            name: executor.execute(analytical, graph, config)
            for name, executor in executors.items()
        }
