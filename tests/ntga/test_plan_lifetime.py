"""Compiled plans die with the jobs that own them.

Expansion plans (``StarPlan`` / ``JoinPlan``) and α-join plans
(``AlphaJoinPlan``) are built per job and hold what they compiled on
themselves.  Keying a module-level container by plan objects instead
would keep every served unit's plan alive for the life of the process --
measured at +10% peak RSS on a 400-request stream.  This pins the absence
of such a container: serving the same stream again through a fresh
service must leave nothing behind, and neither may planning queries that
differ only in their variable names (a table keyed by query patterns
would hold one entry per spelling).
"""

import gc
import re
import sys
from types import FunctionType, ModuleType

import pytest

from repro.bench.catalog import get_query
from repro.bench.harness import chem_config
from repro.core.engines import to_analytical
from repro.core.query_model import StarPattern
from repro.core.results import EngineConfig
from repro.mapreduce.hdfs import HDFS
from repro.ntga.composite import CanonicalSubquery
from repro.ntga.physical import AlphaJoinPlan, TripleGroupStore, load_triplegroups
from repro.ntga.planner import plan_rapid_analytics
from repro.plan.cardinality import CardinalityEstimator
from repro.plan.enumerator import plan_adaptive
from repro.rdf.graph import Graph
from repro.rdf.stats import GraphStats, cached_profile
from repro.ntga.triplegroup import JoinPlan, StarPlan
from repro.serve.service import OK, QueryService, ServiceConfig
from repro.serve.workload import WorkloadSpec, workload_requests

PLAN_TYPES = (CanonicalSubquery, StarPattern, StarPlan, JoinPlan, AlphaJoinPlan)


def _container_sizes() -> dict[str, int]:
    """Size of every module-level container (and ``lru_cache``) defined
    under ``repro.ntga`` and ``repro.core``."""
    immutable = (str, bytes, tuple, frozenset, type)
    sizes = {}
    for module_name, module in list(sys.modules.items()):
        if not re.fullmatch(r"repro\.(ntga|core)(\..*)?", module_name):
            continue
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                sizes[f"{module_name}.{name}"] = value.cache_info().currsize
            elif hasattr(value, "__len__") and not isinstance(value, immutable):
                sizes[f"{module_name}.{name}"] = len(value)
    return sizes


def _live_plan_objects() -> dict[str, int]:
    gc.collect()
    counts = dict.fromkeys((cls.__name__ for cls in PLAN_TYPES), 0)
    for obj in gc.get_objects():
        if type(obj) in PLAN_TYPES:
            counts[type(obj).__name__] += 1
    return counts


def test_serving_a_stream_again_leaves_no_plan_behind(chem_tiny):
    requests = workload_requests(
        WorkloadSpec(seeds=1, clients=3, mix="chem-overlap", requests=40), seed=7
    )

    def serve_once() -> tuple[dict[str, int], dict[str, int]]:
        service = QueryService(chem_tiny, ServiceConfig(engine_config=chem_config()))
        responses = service.serve(requests)
        assert all(response.status == OK for response in responses)
        del service, responses
        return _container_sizes(), _live_plan_objects()

    serve_once()  # fills every value-keyed memo (schemas, layouts)
    containers_2, live_2 = serve_once()
    containers_3, live_3 = serve_once()
    assert containers_2  # the scan does see repro.ntga's containers
    assert containers_3 == containers_2
    assert live_3 == live_2


def test_planning_renamed_queries_grows_no_container(chem_tiny):
    """Each query pattern carries its derived facts (its property keys
    among them) on itself, so renaming every variable leaves no entry
    behind in a module-level table."""
    store = load_triplegroups(chem_tiny, HDFS())
    text = get_query("MG6").sparql

    def plan_renamed(suffix: int) -> None:
        renamed = re.sub(r"\?(\w+)", rf"?\1_{suffix}", text)
        plan_rapid_analytics(to_analytical(renamed), store)

    plan_renamed(0)  # fills every value-keyed memo (schemas, keys)
    before = _container_sizes()
    assert any(name.startswith("repro.core.") for name in before)
    for suffix in range(1, 5):
        plan_renamed(suffix)
    assert _container_sizes() == before


def _reachable(roots) -> list:
    """Every object reachable from *roots* through attributes, containers
    and closure cells -- not through a function's globals: what a plan
    *holds*, not what its code can name."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, str, bytes, int, float)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
            stack += obj.__defaults__ or ()
        else:
            stack += gc.get_referents(obj)
    return list(seen.values())


@pytest.mark.parametrize("mode", ["rule", "cost"])
def test_a_plan_holds_no_data_and_no_statistics(mode, chem_tiny):
    """A plan is handed to caches and reports that outlive the query.  A
    priced one went through the estimator -- every job's ``leaving`` was
    called with it, and left a ``JobEstimate`` behind -- and must come out
    holding plan-time facts only, like the rule planner's."""
    query = to_analytical(get_query("MG6").sparql)
    store = load_triplegroups(chem_tiny, HDFS())
    if mode == "rule":
        plan = plan_rapid_analytics(query, store)
    else:
        plan = plan_adaptive(query, store, cached_profile(chem_tiny), EngineConfig(), mode)
        assert all(job.estimate is not None for job in plan.jobs)
    held = _reachable([plan])
    assert any(isinstance(obj, AlphaJoinPlan) for obj in held)  # the walk does descend
    leaked = (Graph, GraphStats, CardinalityEstimator, TripleGroupStore)
    assert [type(obj).__name__ for obj in held if isinstance(obj, leaked)] == []
