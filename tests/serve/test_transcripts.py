"""Full-transcript differential for :class:`~repro.serve.QueryService`.

``transcripts.json`` pins, for every cell of a configuration matrix over
one ``chem`` ``tiny`` graph, everything a ``serve()`` call can be seen
to do: every response field (by ``repr``; rows as their order-sensitive
``rows_digest``), ``counter_snapshot()``, the ``repr`` of the two cost
accumulators, the traced event list (name, sorted attributes, simulated
time) and the ``repro-metrics/v1`` snapshot of a collecting run.  It was
captured at 3e8ff0b, the last commit before the service was restructured
into stage functions with one settle path: the restructuring moved no
outcome, counter, event, metric or float bit.  It was re-cut once when a
solution row stopped being sized by its variable names (simulated times
and costs moved; ``tests/test_golden_recut.py`` maps it back), with the
faulty cells' plan re-derived as seed 33 so each still drives its path,
and again when the serve layer stopped replaying the cost planner's
choice (only the ``cost-planner`` cell's replay events, plan-cache
counters and choice ``source`` moved; mapped back the same way).

Every cell serves the same kind of stream -- MG6 / MG7 / MG8 / G8, a
spelling variant of MG6 and one unparseable text -- under the
configuration that drives one path of the scheduler, and asserts the
counter that path bumps, so the matrix cannot silently stop covering it.

Regenerate (only when a behaviour change is intended, and say so)::

    PYTHONPATH=src python tests/serve/test_transcripts.py
"""

from __future__ import annotations

import json
from ast import literal_eval
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

import pytest

from repro import obs
from repro.bench.catalog import get_query
from repro.bench.harness import chem_config
from repro.core.results import rows_digest
from repro.datasets import generate
from repro.mapreduce.faults import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs.calibration import CalibrationMonitor
from repro.serve.resilience import (
    BreakerPolicy,
    DegradationPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serve.service import QueryService, ServeRequest, ServeResponse, ServiceConfig

TRANSCRIPTS = Path(__file__).with_name("transcripts.json")

_MG6 = get_query("MG6").sparql
TEXTS = {
    "MG6": _MG6,
    "MG6~": "\n".join(line.strip() for line in _MG6.splitlines()),
    "MG7": get_query("MG7").sparql,
    "MG8": get_query("MG8").sparql,
    "G8": get_query("G8").sparql,
    "bad": "SELECT WHERE {{{",
}
#: Two arrivals per 0.25 s window at the default spacing: MG6 and its
#: spelling variant share the first window (dedup), MG7 + MG8 the
#: second (an MQO merge), and later windows repeat earlier queries.
LABELS = ("MG6", "MG6~", "MG7", "MG8", "G8", "MG7", "bad", "MG6", "MG8", "G8")

#: Crashes the merged MG7 + MG8 unit and some solo runs, not all (fault
#: identities are keyed by volume: re-derive the seed when sizes move).
FAULTS = FaultPlan(seed=33, task_failure_rate=0.02, max_attempts=1)


def stream(
    count: int, start: float = 0.0, offset: int = 0, priorities: bool = False
) -> list[ServeRequest]:
    requests = []
    for i in range(count):
        label = LABELS[(offset + i) % len(LABELS)]
        requests.append(
            ServeRequest(
                TEXTS[label],
                arrival=round(start + 0.1 * (i + 1), 6),
                label=label,
                priority=(7 * i) % 3 if priorities else 0,
            )
        )
    return requests


@dataclass(frozen=True)
class Cell:
    config: Callable[[], ServiceConfig]
    requests: Callable[[], list[ServeRequest]]
    #: ``counter_snapshot()`` keys the cell exists to drive above zero.
    covers: tuple[str, ...]


def _config(**overrides: Any) -> Callable[[], ServiceConfig]:
    return lambda: ServiceConfig(engine_config=chem_config(), **overrides)


def _faulty(**overrides: Any) -> Callable[[], ServiceConfig]:
    return lambda: ServiceConfig(
        engine_config=replace(chem_config(), fault_plan=FAULTS), **overrides
    )


def _breaker(stale: bool) -> Cell:
    """Phase one trips the breaker (threshold 1): a retry is turned away
    at its start, later windows at their close -- and, with the stale
    tier on, a query answered before the trip is served stale.  Phase
    two arrives after the cooldown: the half-open window runs its two
    queries solo (the bypass) and the second finds no probe left."""
    resilience = ResilienceConfig(
        retry=RetryPolicy(retries=1),
        breaker=BreakerPolicy(threshold=1, cooldown=30.0),
        degradation=DegradationPolicy(stale=stale),
    )
    covers = ("breaker_trips", "breaker_fast_fails", "breaker_half_opens",
              "batching_bypassed_windows", "isolated_groups", "retries")
    return Cell(
        _faulty(resilience=resilience, enable_result_cache=False),
        lambda: stream(10) + stream(8, start=100.2, offset=2),
        covers + (("degraded_stale",) if stale else ()),
    )


CELLS: dict[str, Cell] = {
    "default": Cell(
        _config(),
        lambda: stream(14),
        ("dedup_requests", "batch_merges", "result_cache_hits", "failed"),
    ),
    "solo-uncached": Cell(
        _config(enable_batching=False, enable_result_cache=False),
        lambda: stream(14),
        ("units_solo", "dedup_requests"),
    ),
    "max-pending-1": Cell(_config(max_pending=1), lambda: stream(8), ("rejected",)),
    "tight-deadline": Cell(
        _config(deadline=0.2),
        lambda: stream(14),
        ("deadline_exceeded", "deadline_exceeded_at_dispatch"),
    ),
    "shed-1": Cell(
        _config(
            resilience=ResilienceConfig(degradation=DegradationPolicy(shed_threshold=1))
        ),
        lambda: stream(8, priorities=True),
        ("shed_requests",),
    ),
    "breaker-stale": _breaker(stale=True),
    "breaker-no-stale": _breaker(stale=False),
    "retry-abandoned": Cell(
        _faulty(
            resilience=ResilienceConfig(
                retry=RetryPolicy(retries=2, base_backoff=8.0),
                breaker=BreakerPolicy(threshold=0),
            ),
            enable_result_cache=False,
            deadline=10.0,
        ),
        lambda: stream(10),
        # A stale answer that lands past its deadline is downgraded too.
        ("retries_abandoned_deadline", "degraded_stale", "deadline_exceeded"),
    ),
    # One retry recovers, three fail again (``serve_retries_total``'s
    # ``failed`` series has no counter).
    "retries": Cell(
        _faulty(
            resilience=ResilienceConfig(
                retry=RetryPolicy(retries=2), breaker=BreakerPolicy(threshold=0)
            )
        ),
        lambda: stream(10),
        ("retries", "retry_successes", "isolated_groups"),
    ),
    "fail-fast-faults": Cell(_faulty(), lambda: stream(10), ("isolated_groups", "failed")),
    "cost-planner": Cell(
        lambda: ServiceConfig(
            engine_config=replace(chem_config(), planner="cost"),
            enable_batching=False,
            enable_result_cache=False,
        ),
        lambda: stream(14),
        ("plan_cache_hits",),
    ),
}


#: A pinned response is the ``repr`` of its field values in this order.
FIELDS = tuple(f.name for f in fields(ServeResponse))


def _response(response: ServeResponse) -> str:
    values = {name: getattr(response, name) for name in FIELDS}
    if response.rows is not None:
        values["rows"] = rows_digest(response.rows)
    return repr(tuple(values.values()))


def _outcome(service: QueryService, responses: list[ServeResponse]) -> dict[str, Any]:
    return {
        "responses": [_response(response) for response in responses],
        "counters": service.counter_snapshot(),
        "executed_cost_seconds": repr(service.executed_cost_seconds),
        "retry_cost_seconds": repr(service.retry_cost_seconds),
    }


def capture(graph, cell: Cell) -> dict[str, Any]:
    """One cell, served twice: bare, then traced and collecting.  The
    telemetry run must reproduce the bare run's outcome exactly."""
    bare = QueryService(graph, cell.config(), calibration=CalibrationMonitor())
    outcome = _outcome(bare, bare.serve(cell.requests()))
    monitor = CalibrationMonitor()
    watched = QueryService(graph, cell.config(), calibration=monitor)
    with obs.tracing() as tracer, obs_metrics.collecting() as registry:
        responses = watched.serve(cell.requests())
    assert _outcome(watched, responses) == outcome
    outcome["events"] = [
        f"{event.name} @{event.sim_time!r} {sorted(event.attrs.items())!r}"
        for event in tracer.events
    ]
    outcome["metrics"] = obs_metrics.snapshot_dict(
        registry, calibration=monitor.report()
    )
    return outcome


def capture_all(graph) -> dict[str, Any]:
    return {name: capture(graph, cell) for name, cell in CELLS.items()}


@pytest.fixture(scope="module")
def transcripts(chem_tiny):
    return capture_all(chem_tiny)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(TRANSCRIPTS.read_text())


@pytest.mark.parametrize("name", list(CELLS))
def test_transcript_did_not_move(name, transcripts, pinned):
    assert transcripts[name] == pinned[name]


def test_the_matrix_is_the_pinned_matrix(pinned):
    assert list(pinned) == list(CELLS)


@pytest.mark.parametrize("name", list(CELLS))
def test_each_cell_drives_its_path(name, transcripts):
    counters = transcripts[name]["counters"]
    assert {key: counters[key] for key in CELLS[name].covers if counters[key] <= 0} == {}


BREAKER_OPEN = "circuit breaker open for engine 'rapid-analytics'"


def test_the_breaker_turns_requests_away_at_both_gates(transcripts):
    responses = [
        dict(zip(FIELDS, literal_eval(pinned)))
        for pinned in transcripts["breaker-no-stale"]["responses"]
    ]
    turned_away = [r for r in responses if r["error"] == BREAKER_OPEN]
    window = ServiceConfig().batch_window
    at_close = [
        r for r in turned_away
        if r["attempts"] == 0
        and r["started"] == (int(r["arrival"] // window) + 1) * window
    ]
    at_unit_start = [r for r in turned_away if r["attempts"] >= 1]
    assert at_close and at_unit_start


def test_the_stale_tier_answers_what_the_breaker_turned_away(transcripts):
    assert any(
        event.startswith("request-degraded ") and f"('reason', {BREAKER_OPEN!r})" in event
        for event in transcripts["breaker-stale"]["events"]
    )


def test_a_retry_that_fails_again_is_counted(transcripts):
    (retries,) = [
        family
        for family in transcripts["retries"]["metrics"]["metrics"]
        if family["name"] == "serve_retries_total"
    ]
    outcomes = {series["labels"]["outcome"]: series["value"] for series in retries["series"]}
    assert outcomes["failed"] > 0 and outcomes["success"] > 0


def test_the_cost_planner_prices_every_solo_run(transcripts):
    events = transcripts["cost-planner"]["events"]
    assert any(event.startswith("planner-choice ") for event in events)
    assert not any("'plan-choice'" in event for event in events)  # nothing replayed
    assert transcripts["cost-planner"]["metrics"]["calibration"]["queries"]


if __name__ == "__main__":
    captured = capture_all(generate("chem", "tiny"))
    TRANSCRIPTS.write_text(json.dumps(captured, indent=1) + "\n")
    print(f"wrote {TRANSCRIPTS} ({len(captured)} cells)")
