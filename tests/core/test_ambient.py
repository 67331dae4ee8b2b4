"""Settings and ambient state (DESIGN.md §7.5): the slots, the knob
table, the spec grammar — and the guard that they stay the only ones.

The per-system suites (``tests/plan/test_knob.py``,
``TestRepresentationContext``, the ``obs`` hook tests) pin
each public wrapper's own behaviour; what they share — nesting,
restore-on-exception, all-or-nothing detach, one validator, one
tokenizer — is checked here once, parametrised over every slot, knob
and spec.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ambient, obs
from repro.ambient import (
    KNOBS,
    PARTITIONER,
    PLANNER,
    REPRESENTATION,
    Field,
    knob_overrides,
    parse_spec,
)
from repro.bench.chaos import ChaosSpec
from repro.core.results import EngineConfig, check_supported
from repro.errors import (
    CheckpointError,
    ReproError,
    ResilienceError,
    ServeError,
    ShardError,
)
from repro.ntga.factorized import active_representation
from repro.obs import metrics
from repro.serve.resilience import ResilienceConfig
from repro.serve.slo import SLOSpec
from repro.serve.workload import WorkloadSpec

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# -- slots ----------------------------------------------------------------------


def test_every_slot_starts_empty():
    assert {name: getattr(ambient, name) for name in ambient.SLOTS} == dict.fromkeys(
        ambient.SLOTS
    )


@pytest.mark.parametrize("slot", ambient.SLOTS)
def test_install_nests_and_restores(slot):
    outer, inner = object(), object()
    with ambient.installed(**{slot: outer}):
        assert getattr(ambient, slot) is outer
        with ambient.installed(**{slot: inner}):
            assert getattr(ambient, slot) is inner
        assert getattr(ambient, slot) is outer
    assert getattr(ambient, slot) is None


@pytest.mark.parametrize("slot", ambient.SLOTS)
def test_install_restores_after_exception(slot):
    outer = object()
    with ambient.installed(**{slot: outer}):
        with pytest.raises(RuntimeError):
            with ambient.installed(**{slot: object()}):
                raise RuntimeError("boom")
        assert getattr(ambient, slot) is outer
    assert getattr(ambient, slot) is None


def test_install_leaves_other_slots_alone():
    with ambient.installed(planner="cost"):
        with ambient.installed(tracer="t", representation="flat"):
            assert ambient.planner == "cost"
        assert (ambient.tracer, ambient.representation) == (None, None)


def test_unknown_slot_is_rejected_before_anything_is_set():
    with pytest.raises(TypeError, match="unknown ambient slot"):
        with ambient.installed(planner="cost", tracr=object()):
            pass  # pragma: no cover - never entered
    assert ambient.planner is None and not hasattr(ambient, "tracr")


def test_detached_suspends_every_sink_and_only_the_sinks():
    assert ambient.SINKS == ("tracer", "registry")
    with obs.tracing() as tracer, metrics.collecting() as registry:
        with active_representation("flat"), ambient.installed(planner="cost"):
            with ambient.detached():
                assert (ambient.tracer, ambient.registry) == (None, None)
                assert (ambient.representation, ambient.planner) == ("flat", "cost")
            assert (ambient.tracer, ambient.registry) == (tracer, registry)


@pytest.mark.parametrize(
    "install, slot", [(obs.tracing, "tracer"), (metrics.collecting, "registry")]
)
def test_sink_wrappers_install_their_slot(install, slot):
    with install() as fresh:
        assert getattr(ambient, slot) is fresh
        with install(fresh) as same:
            assert same is fresh
    assert getattr(ambient, slot) is None


# -- the knob table -------------------------------------------------------------


@pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.name)
def test_knob_accepts_its_choices_and_defaults_to_one(knob):
    assert knob.default in knob.choices
    for choice in knob.choices:
        assert knob.validate(choice) == choice
        assert knob.resolve(choice) == choice
    assert knob.resolve() == knob.resolve(None) == knob.default


@pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.name)
@pytest.mark.parametrize("bad", ["", "bogus", None, 7])
def test_knob_rejects_with_its_own_one_line_error(knob, bad):
    with pytest.raises(knob.error) as excinfo:
        knob.validate(bad)
    message = str(excinfo.value)
    assert repr(bad) in message and "\n" not in message
    assert knob.separator.join(knob.choices) in message


def test_where_the_knobs_differ_is_data():
    assert REPRESENTATION.validate(" Flat ") == "flat"
    with pytest.raises(ReproError, match="invalid planner 'Rule'"):
        PLANNER.validate("Rule")
    with pytest.raises(ShardError, match="unknown partitioner 'Hash'; expected one of hash, "):
        PARTITIONER.validate("Hash")


@pytest.mark.parametrize("knob", [REPRESENTATION, PLANNER], ids=lambda knob: knob.name)
def test_resolve_is_explicit_then_ambient_then_default(knob):
    first, second = [c for c in knob.choices if c != knob.default][:2]
    with ambient.installed(**{knob.name: first}):
        assert knob.resolve() == first
        assert knob.resolve(second) == second
    assert knob.resolve() == knob.default


def test_knob_overrides_reads_validates_and_skips_what_is_absent():
    from types import SimpleNamespace

    source = SimpleNamespace(representation=" Flat ", planner=None, shards="4")
    assert knob_overrides(source) == {"representation": "flat"}
    assert knob_overrides(SimpleNamespace()) == {}
    with pytest.raises(ReproError, match="invalid planner"):
        knob_overrides(SimpleNamespace(planner="cheapest"))


# -- EngineConfig validates itself ---------------------------------------------


@pytest.mark.parametrize(
    "field, error",
    [("representation", ReproError), ("planner", ReproError), ("partitioner", ShardError)],
)
def test_engine_config_rejects_a_bad_knob_where_it_is_built(field, error):
    with pytest.raises(error, match="bogus"):
        EngineConfig(**{field: "bogus"})


def test_engine_config_stores_the_canonical_representation():
    assert EngineConfig(representation=" FLAT ").representation == "flat"


@pytest.mark.parametrize("shards", [0, -1])
def test_engine_config_rejects_non_positive_shards(shards):
    with pytest.raises(ShardError, match="shards must be >= 1"):
        EngineConfig(shards=shards)


def test_check_supported_is_the_one_combination_validator():
    check_supported("hive-naive", None)
    check_supported("hive-naive", EngineConfig())
    check_supported("rapid-plus", EngineConfig(shards=2))
    with pytest.raises(ShardError, match="does not support sharded"):
        check_supported("hive-naive", EngineConfig(partitioner="hash"))
    # Engine x config is all there is to validate: a merged MQO batch is
    # an NTGA plan like any other, so "batch" is not a dimension.
    import inspect

    assert list(inspect.signature(check_supported).parameters) == ["engine", "config"]


# -- the spec grammar -----------------------------------------------------------

SPECS = {
    "workload": (WorkloadSpec.from_spec, ServeError, "seeds=1,clients=1,mix=chem-overlap"),
    "resilience": (ResilienceConfig.from_spec, ResilienceError, "retries=1"),
    "slo": (SLOSpec.from_spec, ServeError, "p99=10"),
    "chaos": (ChaosSpec.from_spec, CheckpointError, "seeds=1,rate=0.1"),
}

#: (spec, text, fragment of the diagnostic) — one row per failure class
#: of the grammar, per spec that can show it.
MALFORMED = [
    ("workload", "seeds 1,clients=1,mix=chem-overlap", "expected key=value, got 'seeds 1'"),
    ("workload", "seeds=1,clients=1,mix=chem-overlap,bogus=1", "unknown key 'bogus' (known: seeds, "),
    ("workload", "seeds=1,clients=1", "mix required"),
    ("workload", "", "seeds, clients, mix required"),
    ("workload", "seeds=banana,clients=1,mix=chem-overlap", "invalid literal for int()"),
    ("workload", "seeds=1,clients=1,mix=chem-overlap,rate=fast", "could not convert string to float"),
    ("workload", "seeds=1,clients=1,mix=chem-overlap,batch=maybe", "batch must be on/off, got 'maybe'"),
    ("workload", "seeds=0,clients=1,mix=chem-overlap", "seeds must be >= 1"),
    ("workload", "seeds=1,clients=1,mix=chem-overlap,window=nan", "window must be > 0"),
    ("workload", "seeds=1,clients=1,mix=chem-overlap,window=inf", "window must be > 0 and finite"),
    ("workload", "seeds=1,clients=1,mix=nope", "unknown mix 'nope' (known: "),
    ("workload", "seeds=1,clients=1,mix=chem-overlap,representation=wide", "invalid representation 'wide'"),
    ("workload", "seeds=1,clients=1,mix=chem-overlap,planner=Cost", "invalid planner 'Cost'"),
    ("resilience", "retries", "expected key=value, got 'retries'"),
    ("resilience", "banana=1", "unknown key 'banana' (known: retries, backoff, "),
    ("resilience", "retries=two", "invalid literal for int()"),
    ("resilience", "stale=maybe", "stale must be on/off"),
    ("resilience", "retries=-1", "retries must be >= 0"),
    ("resilience", "shed=many", "invalid literal for int()"),
    ("slo", "p50", "expected key=value, got 'p50'"),
    ("slo", "p42=1", "unknown key 'p42' (known: p50, p95, p99, budget)"),
    ("slo", "p50=abc", "could not convert string to float"),
    ("slo", "budget=0.1", "needs at least one of p50/p95/p99"),
    ("slo", "p50=0", "p50 target must be > 0"),
    ("chaos", "bogus", "expected key=value, got 'bogus'"),
    ("chaos", "seeds=3,rate=0.1,typo=4", "unknown key 'typo' (known: seeds, rate, "),
    ("chaos", "seeds=3", "rate required"),
    ("chaos", "seeds=x,rate=0.1", "invalid literal for int()"),
    ("chaos", "seeds=3,rate=1.5", "rate must be in [0, 1)"),
    ("chaos", "seeds=3,rate=0.1,attempts=0", "attempts must be >= 1"),
]


@pytest.mark.parametrize("what, text, fragment", MALFORMED)
def test_malformed_spec_is_one_typed_line(what, text, fragment):
    parse, error, _ = SPECS[what]
    with pytest.raises(error) as excinfo:
        parse(text)
    message = str(excinfo.value)
    assert message.startswith(f"invalid {what} spec {text!r}: ")
    assert fragment in message
    assert "\n" not in message


@pytest.mark.parametrize("what", SPECS)
def test_grammar_ignores_blank_pairs_and_padding_and_keeps_the_last_value(what):
    parse, _, minimal = SPECS[what]
    key, _, value = minimal.rpartition(",")[2].partition("=")
    padded = ", ".join(f" {pair.replace('=', ' = ')} " for pair in minimal.split(","))
    assert parse(f",{padded},,") == parse(minimal)
    assert parse(f"{key}=999999,{minimal}") == parse(minimal)


def test_flags_convert_on_off_true_false_in_any_case():
    fields = {"flag": Field(bool)}
    for raw, value in [("on", True), ("OFF", False), ("True", True), ("false", False)]:
        assert parse_spec(f"flag={raw}", "test", ReproError, fields, dict) == {"flag": value}


def test_a_field_can_rename_its_keyword_and_be_required():
    fields = {"n": Field(int, "count", required=True), "name": Field(str)}
    assert parse_spec("n=3,name=x", "test", ReproError, fields, dict) == {
        "count": 3,
        "name": "x",
    }
    with pytest.raises(ReproError, match="invalid test spec 'name=x': n required"):
        parse_spec("name=x", "test", ReproError, fields, dict)


_KEYS = sorted(
    {"seeds", "clients", "mix", "rate", "batch", "planner", "representation", "retries",
     "stale", "shed", "jitter", "p50", "p99", "budget", "attempts", "write", "bogus"}
)
_VALUES = st.one_of(
    st.sampled_from(
        ["1", "0", "-1", "3", "0.5", "1e400", "nan", "inf", "-0.0", "on", "off", "maybe",
         "chem-overlap", "cost", "flat", " Flat ", "", "=", "9" * 30, "٣", "1_0"]
    ),
    st.text(max_size=6),
)
_PAIRS = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _VALUES).map("=".join),
    st.text(max_size=8),
)
_TEXTS = st.one_of(st.text(max_size=40), st.lists(_PAIRS, max_size=6).map(",".join))


@pytest.mark.parametrize("what", SPECS)
@settings(max_examples=150, deadline=None)
@given(text=_TEXTS)
def test_any_text_is_a_spec_or_the_specs_own_error(what, text):
    parse, error, _ = SPECS[what]
    try:
        spec = parse(text)
    except error as problem:
        assert str(problem).startswith(f"invalid {what} spec {text!r}: ")
        assert "\n" not in str(problem).replace(repr(text), "")
    else:
        assert parse(text) == spec


# -- the guard: no second ambient mechanism -------------------------------------

#: What the five hand-rolled mechanisms this module replaced looked
#: like: a module global rebound under ``global``, a ``threading.local``,
#: an ``_ACTIVE`` / ``_AMBIENT`` holder, a ``previous = <holder>`` save.
_SECOND_MECHANISM = re.compile(
    r"^\s*global\s+_\w+"
    r"|threading\.local"
    r"|\b_ACTIVE\b|\b_AMBIENT\b"
    r"|previous\s*=\s*\(?\s*(getattr\(\s*)?_[A-Z]",
    re.MULTILINE,
)


def test_ambient_state_lives_only_in_the_ambient_module():
    offenders = {
        str(path.relative_to(SRC)): sorted(set(m.group(0).strip() for m in _SECOND_MECHANISM.finditer(text)))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "ambient.py"
        and _SECOND_MECHANISM.search(text := path.read_text(encoding="utf-8"))
    }
    assert offenders == {}


def test_spec_and_knob_logic_is_not_re_implemented():
    sources = {
        path: path.read_text(encoding="utf-8")
        for path in SRC.rglob("*.py")
        if path.name != "ambient.py"
    }
    tokenizers = [str(p.relative_to(SRC)) for p, text in sources.items() if 'partition("=")' in text]
    validators = [
        str(p.relative_to(SRC))
        for p, text in sources.items()
        if re.search(r"^def validate_(representation|planner|partitioner)\b", text, re.MULTILINE)
    ]
    assert (tokenizers, validators) == ([], [])


def test_there_is_one_plan_shape():
    """A solo query is a batch of one (DESIGN.md, "One plan shape"): the
    second plan record, the two result-join builders it needed and the
    batch x shards fence stay deleted."""
    gone = re.compile(
        r"BatchPlan|build_final_join_job|build_multi_file_result_join|batch=True"
    )
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if gone.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_a_plan_prices_itself():
    """The enumerator prices the jobs the planners compile (docs/cost_model.md,
    "The plan enumerator"): the second write-up of each plan's structure,
    the Hive pricing nothing could choose and the by-name re-join of
    estimates with actuals stay deleted -- and ``repro.plan`` spells no
    job name, the planners own them."""
    gone = re.compile(
        r"_pipeline_estimates|_ntga_candidates|_hive_candidates|HIVE_COLUMN_BYTES"
        r"|build_candidate|actual_by_name|_row_source|\.executable\b"
    )
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if gone.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    job_name = re.compile(r'"(ra|rp|hive):|f"(ra|rp):')
    plan_modules = sorted((SRC / "plan").glob("*.py"))
    assert len(plan_modules) >= 4
    spelled = [
        path.name for path in plan_modules if job_name.search(path.read_text(encoding="utf-8"))
    ]
    assert spelled == []


def test_the_combine_stage_is_a_fold():
    """Map tasks aggregate in place (docs/performance.md, "TG_AgJ
    aggregates in place"): the combiner over grouped per-solution
    accumulators, its job field and its merge function stay deleted."""
    gone = re.compile(r"merge_partials|combiner=|\bCombiner\b")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if gone.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_every_request_ends_in_one_settle_path():
    """``QueryService`` ends a request in one place (docs/serving.md, "The
    scheduler model"): one ``ServeResponse(`` construction under ``src/``,
    and the five settle functions and the metric mirror it replaced stay
    deleted."""
    built = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "ServeResponse(" in text
    ]
    assert len(built) == 1 and built[0].startswith("serve/service.py:"), built
    gone = re.compile(
        r"\b_(fast_fail|degrade_group|fail|settle_success|finish|resilience_metric)\b"
    )
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if gone.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_derived_layouts_have_one_owner():
    """What is computed once per graph version is an entry of the graph's
    own memo (``Graph.derived``, DESIGN.md §7.2): no module keeps a weakly
    keyed cache of its own, and a ``Partition`` is plain data, every
    field part of its value, no cache hung on it."""
    from dataclasses import MISSING, fields

    from repro.shard.partition import Partition

    weak = re.compile(r"\bweakref\b|WeakKeyDictionary")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if weak.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert all(
        field.compare and field.default is MISSING and field.default_factory is MISSING
        for field in fields(Partition)
    )


def test_no_module_level_container_holds_shard_layouts(bsbm_small):
    """Partitions and the store parts derived from them belong to their
    graph: they are entries of its memo and nowhere else.  A module-level
    container reaching them keeps every graph a process ever sharded
    alive (measured: +39% peak RSS on the ``bsbm-scale`` ledger
    workload)."""
    import collections
    import gc
    import sys

    from repro.bench.catalog import get_query
    from repro.core.engines import run_query
    from repro.shard.execution import ShardRecord, store_parts
    from repro.shard.partition import Partition, build_partition

    run_query(get_query("MG1").sparql, bsbm_small, config=EngineConfig(shards=2))
    # There is a layout to find.
    assert store_parts(bsbm_small, build_partition(bsbm_small, "hash", 2))

    plain = (dict, list, tuple, set, frozenset, collections.deque)

    def reaches_a_layout(root) -> bool:
        """Follow plain containers (and ``lru_cache`` tables) only: what
        a graph's memo holds is held by the graph, not by the module."""
        seen, stack = set(), [root]
        while stack:
            value = stack.pop()
            if isinstance(value, (ShardRecord, Partition)):
                return True
            if id(value) in seen or not (
                isinstance(value, plain) or hasattr(value, "cache_info")
            ):
                continue
            seen.add(id(value))
            stack.extend(gc.get_referents(value))
        return False

    holders = [
        f"{module_name}.{name}"
        for module_name, module in sorted(sys.modules.items())
        if module_name == "repro" or module_name.startswith("repro.")
        for name, value in vars(module).items()
        if not name.startswith("__") and reaches_a_layout(value)
    ]
    assert holders == []
