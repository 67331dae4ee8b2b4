"""A QueryService builds each batch's composite once.

The greedy packing in ``_form_units`` tries each new query against each
open batch by building the composite of the merged subquery list
:func:`~repro.ntga.planner.plan_batch` would evaluate.  The unit a batch
forms carries the composite of the last trial it passed, and
``execute_batch`` runs on it; nothing is kept past the window.
"""

import itertools
from unittest.mock import patch

from repro.bench.catalog import CATALOG, get_query
from repro.bench.harness import chem_config
from repro.core.query_model import parse_analytical
from repro.errors import OverlapError
from repro.ntga import planner
from repro.ntga.composite import build_composite_n
from repro.ntga.planner import batch_composite
from repro.serve.service import OK, QueryService, ServeRequest, ServiceConfig, _Group


def service_of(graph):
    return QueryService(graph, ServiceConfig(engine_config=chem_config()))


def groups_of(service, *qids):
    return [
        _Group(service._fingerprint(get_query(qid).sparql), [(index, None)])
        for index, qid in enumerate(qids)
    ]


def counting_builds():
    """Patch the planner's composite builder with a recording wrapper."""
    built = []

    def build(subqueries):
        built.append(build_composite_n(subqueries))
        return built[-1]

    return built, patch.object(planner, "build_composite_n", build)


def test_a_unit_carries_the_composite_its_last_trial_built(chem_tiny):
    service = service_of(chem_tiny)
    built, patched = counting_builds()
    with patched:
        units = service._form_units(groups_of(service, "MG6", "MG7", "G9"), 0.0, False)
    # MG7 joins MG6; G9 overlaps neither the pair, so it runs solo.
    assert [len(unit.groups) for unit in units] == [2, 1]
    assert len(built) == 1  # the one trial that passed
    assert units[0].composite is built[0]
    assert units[1].composite is None


def test_each_window_builds_its_own_trials(chem_tiny):
    """No verdict outlives a window: the same refused pair is tried
    again, and builds again, in the next one."""
    service = service_of(chem_tiny)
    groups = groups_of(service, "MG6", "G9")
    calls = []

    def build(subqueries):
        calls.append(len(subqueries))
        return build_composite_n(subqueries)

    with patch.object(planner, "build_composite_n", build):
        first = service._form_units(groups, 0.0, False)
        second = service._form_units(groups, 1.0, False)
    # MG6's two subqueries and G9's one, once per window.
    assert calls == [3, 3]
    assert [len(unit.groups) for unit in first] == [len(unit.groups) for unit in second] == [1, 1]


def test_the_batch_runs_on_the_composite_its_trial_built(chem_tiny):
    service = service_of(chem_tiny)
    requests = [
        ServeRequest(get_query(qid).sparql, arrival=0.01 * (index + 1), label=qid)
        for index, qid in enumerate(("MG6", "MG7"))
    ]
    handed = []
    built, patched = counting_builds()
    real = planner.plan_batch

    def spy(queries, store, *args, composite=None, **kwargs):
        handed.append(composite)
        return real(queries, store, *args, composite=composite, **kwargs)

    with patched, patch("repro.ntga.engine.plan_batch", spy):
        responses = service.serve(requests)
    assert [response.status for response in responses] == [OK, OK]
    assert {response.source for response in responses} == {"batch"}
    # MG6 and MG7 share a subquery: the merged list holds three, and
    # plan_batch builds no composite of its own.
    assert [len(composite.subqueries) for composite in built] == [3]
    (composite,) = handed
    assert composite is built[0]
    assert service.counter_snapshot()["batch_merges"] == 1


def raw_verdict(queries) -> bool:
    """What the trial decided before: every member's subqueries
    concatenated, duplicates and all."""
    subqueries = [subquery for query in queries for subquery in query.subqueries]
    try:
        if len(subqueries) > 1:
            build_composite_n(subqueries)
    except OverlapError:
        return False
    return True


def merged_verdict(queries) -> bool:
    try:
        batch_composite(queries)
    except OverlapError:
        return False
    return True


def test_raw_and_merged_verdicts_agree_on_every_catalog_pair_and_triple():
    """Trials now ask about the merged list the batch executes; on the
    catalog that changes no verdict -- every ordered pair and every
    triple, repeats included: 3,952 member lists."""
    parsed = {qid: parse_analytical(query.sparql) for qid, query in CATALOG.items()}
    member_lists = list(itertools.product(parsed, repeat=2)) + list(
        itertools.combinations_with_replacement(parsed, 3)
    )
    assert len(member_lists) == 3952
    verdicts = {}
    for members in member_lists:
        queries = [parsed[qid] for qid in members]
        verdicts[members] = (raw_verdict(queries), merged_verdict(queries))
    assert [members for members, (raw, merged) in verdicts.items() if raw != merged] == []
    merging = sum(merged for _, merged in verdicts.values())
    assert 0 < merging < len(member_lists)
