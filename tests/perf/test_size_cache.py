"""Property tests for the cached size-estimation fast path.

The contract under test: for every record shape the engines produce,
``estimate_size`` (cached, type-dispatched) returns exactly what the
seed's uncached implementation (``_reference_estimate_size``) returns —
on first call, on repeat calls (cache hits), and across structurally
equal copies.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_model import PropKey
from repro.mapreduce import cost
from repro.mapreduce.cost import _reference_estimate_size, estimate_size
from repro.ntga.triplegroup import JoinedTripleGroup, TripleGroup
from repro.perf import reference_mode
from repro.rdf.terms import BNode, IRI, Literal, Variable
from repro.rdf.triples import Triple
from tests.ntga.strategies import assert_memos_stay_hidden

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_text = st.text(min_size=1, max_size=20)
_iris = st.builds(IRI, _text.map(lambda s: "urn:" + s))
_bnodes = st.builds(BNode, _text)
_variables = st.builds(Variable, st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True))
_literals = st.one_of(
    st.builds(Literal, _text),
    st.builds(Literal, _text, datatype=_text.map(lambda s: "urn:dt/" + s)),
    st.builds(Literal, _text, language=st.sampled_from(["en", "de", "fr"])),
)
_terms = st.one_of(_iris, _bnodes, _literals)
_subjects = st.one_of(_iris, _bnodes)

_triples = st.builds(Triple, _subjects, _iris, _terms)


@st.composite
def _triplegroups(draw):
    subject = draw(_subjects)
    pairs = draw(st.lists(st.tuples(_iris, _terms), min_size=1, max_size=5))
    return TripleGroup(subject, tuple(Triple(subject, p, o) for p, o in pairs))


@st.composite
def _joined_triplegroups(draw):
    groups = draw(st.lists(_triplegroups(), min_size=1, max_size=3))
    fixed = draw(st.lists(st.tuples(_variables, _terms), max_size=2))
    return JoinedTripleGroup(
        tuple(enumerate(groups)), tuple(dict(fixed).items())
    )


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    _text,
)

_leaves = st.one_of(_scalars, _terms, _variables, _triples)

_records = st.recursive(
    st.one_of(_leaves, _triplegroups(), _joined_triplegroups()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.one_of(_terms, _variables, _text), children, max_size=4),
        st.frozensets(_leaves, max_size=4),
    ),
    max_leaves=12,
)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(_records)
def test_cached_size_equals_reference(record):
    assert estimate_size(record) == _reference_estimate_size(record)
    # Second call exercises the populated caches — must be idempotent.
    assert estimate_size(record) == _reference_estimate_size(record)


@settings(max_examples=100)
@given(_records)
def test_reference_mode_agrees(record):
    cached = estimate_size(record)
    with reference_mode():
        assert estimate_size(record) == cached


@settings(max_examples=100)
@given(_triples)
def test_structurally_equal_triples_report_equal_sizes(triple):
    # A fresh copy has cold caches; a triple that was already sized has
    # warm ones.  Equality of the value objects must imply size equality.
    estimate_size(triple)  # warm the original
    copy = Triple(triple.subject, triple.property, triple.object)
    assert triple == copy
    assert estimate_size(triple) == estimate_size(copy)


@settings(max_examples=100)
@given(_triplegroups())
def test_structurally_equal_triplegroups_report_equal_sizes(group):
    group.estimated_size()  # warm the memo
    copy = TripleGroup(
        group.subject,
        tuple(Triple(t.subject, t.property, t.object) for t in group.triples),
    )
    assert group == copy
    assert copy.estimated_size() == group.estimated_size()
    assert copy.props() == group.props()


def test_agg_row_pins_its_size_in_a_hidden_slot():
    from repro.ntga.physical import AggRow

    assert_memos_stay_hidden(
        lambda: AggRow(1, ((Variable("n"), Literal("3")),)),
        lambda row: row.estimated_size(),
    )


def test_a_prop_key_carries_no_instance_dict():
    assert not hasattr(PropKey(IRI("urn:p")), "__dict__")


def test_no_record_memo_goes_through_an_instance_dict():
    """The memo idiom is a declared slot (``rdf.terms.cache_slot``);
    probing ``__dict__`` is what used to materialise one per record."""
    src = Path(cost.__file__).resolve().parents[1]
    offenders = [
        str(path.relative_to(src))
        for package in ("ntga", "core")
        for path in sorted((src / package).rglob("*.py"))
        if "__dict__" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_mutable_estimated_size_objects_are_never_cached():
    """Records whose estimated_size can change (accumulators) must be
    re-sized on every call — the dispatch table may not pin them."""

    class Growing:
        def __init__(self):
            self.n = 10

        def estimated_size(self):
            return self.n

    record = Growing()
    assert estimate_size(record) == 10
    record.n = 99
    assert estimate_size(record) == 99


def test_arbitrary_object_falls_back_to_repr():
    class Opaque:
        def __repr__(self):
            return "<opaque>"

    assert estimate_size(Opaque()) == _reference_estimate_size(Opaque())
    assert estimate_size(Opaque()) == cost._POINTER + len("<opaque>")


def test_accumulator_tuple_sizes_track_merges():
    """AccumulatorTuple mutates on merge; its shuffle size must follow."""
    from repro.sparql.aggregates import AccumulatorTuple, make_accumulator

    first = AccumulatorTuple(
        [make_accumulator("SUM"), make_accumulator("COUNT", distinct=True)]
    )
    second = AccumulatorTuple(
        [make_accumulator("SUM"), make_accumulator("COUNT", distinct=True)]
    )
    for value in (5, 7):
        first.accumulators[0].update(value)
        first.accumulators[1].update(value)
    second.accumulators[0].update(11)
    second.accumulators[1].update("urn:distinct-key")
    before = estimate_size(first)
    first.merge(second)
    after = estimate_size(first)
    # The cached dispatcher must re-size the mutated tuple, not serve a
    # stale cached value...
    assert after == _reference_estimate_size(first)
    # ...and the merge really did change the size (the distinct set grew).
    assert after > before


@settings(max_examples=100)
@given(st.one_of(_iris, _bnodes))
def test_iri_and_bnode_sizes_pin_on_first_sizing(term):
    """The Hive row builders peek ``term._size`` and only fall back to
    the estimator when it is unset: the first sizing must set it."""
    fresh = type(term)(term.value if isinstance(term, IRI) else term.label)
    assert fresh._size is None
    assert estimate_size(fresh) == _reference_estimate_size(fresh)
    assert fresh._size == _reference_estimate_size(fresh)


@settings(max_examples=100)
@given(_records)
def test_shard_record_size_pins_and_equals_reference(payload):
    from repro.shard.execution import _ENVELOPE_OVERHEAD, ShardRecord

    record = ShardRecord((0, 1), payload)
    expected = _reference_estimate_size(payload) + _ENVELOPE_OVERHEAD
    assert estimate_size(record) == expected
    assert record._size == expected
    assert estimate_size(record) == expected  # served from the pin
    with reference_mode():
        assert estimate_size(record) == expected


def test_shard_record_pin_survives_reducing_a_copy_of_its_accumulators():
    """The envelope of a shuffled ``(key, accumulators)`` pair is sized
    once; that is sound only while reducers merge into *copies*.  The
    accumulator tuple itself stays un-cached (it is mutable)."""
    from repro.shard.execution import ShardRecord
    from repro.sparql.aggregates import AccumulatorTuple

    def accumulators(*values):
        bundle = AccumulatorTuple.fresh([("SUM", False), ("COUNT", True)])
        for value in values:
            for accumulator in bundle.accumulators:
                accumulator.update(value)
        return bundle

    stored, other = accumulators(5, 7), accumulators(11)
    record = ShardRecord((0,), (("key",), stored))
    pinned = estimate_size(record)
    working = stored.copy()
    working.merge(other)
    assert working.results() == [23, 3]
    assert stored.results() == [12, 2]
    assert estimate_size(record) == pinned
    with reference_mode():
        assert estimate_size(record) == pinned
    assert not hasattr(stored, "_size")
    assert estimate_size(working) == _reference_estimate_size(working) > estimate_size(stored)


@settings(max_examples=60, deadline=None)
@given(_triplegroups(), _triplegroups(), st.sampled_from(["flat", "factorized"]))
def test_alpha_join_pins_sizes_equal_to_the_reference_derivation(left, right, representation):
    """The compiled α-join pins ``_size`` on the star wrappers it ships
    and on the records it merges, arithmetically from their parts; a cold
    re-derivation must agree, flat and factorized."""
    from repro.core.query_model import StarPattern
    from repro.ntga.composite import CompositePlan, CompositeStar
    from repro.ntga.physical import TripleGroupStore, build_alpha_join_job, derive_join_steps
    from repro.rdf.triples import TriplePattern

    join = Variable("j")
    # Make the groups meet: the right one's first triple takes the left's object.
    first = right.triples[0]
    right = TripleGroup(
        right.subject,
        (Triple(first.subject, first.property, left.triples[0].object),) + right.triples[1:],
    )

    def star(name, group):
        subject, objects = Variable(name), {group.triples[0].property: join}
        for triple in group.triples:
            objects.setdefault(triple.property, Variable(f"{name}{len(objects)}"))
        return StarPattern(
            subject, tuple(TriplePattern(subject, p, o) for p, o in objects.items())
        )

    stars = (star("a", left), star("b", right))
    plan = CompositePlan(
        tuple(CompositeStar(s, s.props(), frozenset()) for s in stars), ()
    )
    (step,) = derive_join_steps(plan)
    job = build_alpha_join_job(
        name="t:join",
        step=step,
        plan=plan,
        store=TripleGroupStore(empty_path="t/empty"),
        previous_output=None,
        joined_so_far=frozenset({0}),
        output="t/out",
        representation=representation,
    )

    def assert_pinned(record):
        pinned = record._size
        with reference_mode():
            assert record.estimated_size() == pinned

    pairs = list(job.mapper(left)) + list(job.mapper(right))
    by_key = {}
    for key, (tag, wrapper) in pairs:
        assert_pinned(wrapper)
        by_key.setdefault(key, []).append((tag, wrapper))
    merged = [record for key, values in by_key.items() for record in job.reducer(key, values)]
    assert merged  # the groups do meet
    for record in merged:
        assert_pinned(record)
