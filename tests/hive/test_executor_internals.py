"""Unit tests for Hive executor internals: how a VP record is read
through a compiled triple pattern, pushed filters, the one-Row merge and
projection of a join, and the compiled star and join plans -- their rows
against a dict-merging oracle, and every shuffled envelope's size against
the ``(tag, Row)`` pair it stands for."""

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query_model import StarPattern, prop_key_of
from repro.core.results import EngineConfig, Row
from repro.hive.executor import (
    HiveExecutor,
    _accepts,
    _binds,
    _BoundFilter,
    _joined,
    _matched,
    _pushable,
    _Shipped,
)
from repro.hive.tables import load_vertical_partitions
from repro.mapreduce.cost import estimate_size
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runner import MapReduceRunner
from repro.perf import reference_mode
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple, TriplePattern
from repro.sparql.expressions import BinaryExpr, ConstExpr, VarExpr
from tests.conftest import canonical_sorted_rows

S, O = Variable("s"), Variable("o")
P = IRI("urn:p")


def gt(variable, value):
    return BinaryExpr(">", VarExpr(variable), ConstExpr(Literal.from_python(value)))


def vp_row(tp, record, filters=()):
    """A record read through *tp*'s compiled test and bindings."""
    test = _accepts(tp, filters)
    if test is not None and not test(record):
        return None
    return {variable: record[column] for variable, column in _binds(tp)}


class TestVPRow:
    def test_plain_record(self):
        tp = TriplePattern(S, P, O)
        row = vp_row(tp, (IRI("urn:a"), Literal("x")))
        assert row == {S: IRI("urn:a"), O: Literal("x")}

    def test_type_record_single_column(self):
        tp = TriplePattern(S, IRI("urn:type"), IRI("urn:C"))
        row = vp_row(tp, (IRI("urn:a"),))
        assert row == {S: IRI("urn:a")}

    def test_concrete_object_match_and_mismatch(self):
        tp = TriplePattern(S, P, Literal("News"))
        assert vp_row(tp, (IRI("urn:a"), Literal("News"))) == {S: IRI("urn:a")}
        assert vp_row(tp, (IRI("urn:a"), Literal("Review"))) is None

    def test_concrete_subject(self):
        tp = TriplePattern(IRI("urn:a"), P, O)
        assert vp_row(tp, (IRI("urn:a"), Literal("x"))) == {O: Literal("x")}
        assert vp_row(tp, (IRI("urn:b"), Literal("x"))) is None

    def test_same_variable_subject_object(self):
        tp = TriplePattern(S, P, S)
        assert vp_row(tp, (IRI("urn:a"), IRI("urn:a"))) == {S: IRI("urn:a")}
        assert vp_row(tp, (IRI("urn:a"), IRI("urn:b"))) is None

    def test_pushed_filter(self):
        tp = TriplePattern(S, P, O)
        filters = [gt(O, 10)]
        assert vp_row(tp, (IRI("urn:a"), Literal.from_python(20)), filters) is not None
        assert vp_row(tp, (IRI("urn:a"), Literal.from_python(5)), filters) is None


class TestPushable:
    def test_single_variable_filter_on_object(self):
        tp = TriplePattern(S, P, O)
        filters = [gt(O, 1), gt(S, 1), BinaryExpr("<", VarExpr(O), VarExpr(S))]
        pushed = _pushable(filters, tp)
        assert pushed == [filters[0]]

    def test_concrete_object_pushes_nothing(self):
        tp = TriplePattern(S, P, Literal("x"))
        assert _pushable([gt(O, 1)], tp) == []


class TestRowHelpers:
    def test_compatible_merge(self):
        left = Row({S: IRI("urn:a")})
        right = {S: IRI("urn:a"), O: Literal("x")}
        merged = _joined(left, right, None)
        assert merged == right
        assert merged._size == estimate_size(dict(right))
        conflicting = {S: IRI("urn:b")}
        assert _joined(left, conflicting, None) is None

    def test_project(self):
        row = {S: IRI("urn:a"), O: Literal("x")}
        projected = _joined(row, {}, frozenset({S}))
        assert projected == {S: IRI("urn:a")}
        assert projected._size == estimate_size({S: IRI("urn:a")})
        assert _joined(row, {}, None) == row

    def test_bound_filter_is_frozen_marker(self):
        marker = _BoundFilter(S)
        assert marker.variable == S
        assert _BoundFilter(S) == marker


# -- the compiled plans, end to end --------------------------------------------

A, B, C = IRI("urn:a"), IRI("urn:b"), IRI("urn:c")
Q, CLASS = IRI("urn:q"), IRI("urn:C")
X1, X2 = Variable("x1"), Variable("x2")
ONE, TWO = Literal.from_python(1), Literal.from_python(2)
GRAPH = Graph(
    [
        Triple(A, P, ONE), Triple(A, P, TWO), Triple(A, Q, ONE), Triple(A, Q, A),
        Triple(B, P, TWO), Triple(B, Q, B), Triple(B, Q, TWO), Triple(C, Q, ONE),
        Triple(A, RDF_TYPE, CLASS), Triple(C, RDF_TYPE, CLASS),
    ]
)


class Recording(HiveExecutor):
    """Keeps every job it runs, to replay its mapper afterwards."""

    def __init__(self, mapjoin_threshold: int):
        hdfs = HDFS()
        store = load_vertical_partitions(GRAPH, hdfs)
        config = EngineConfig(mapjoin_threshold=mapjoin_threshold)
        super().__init__(hdfs, store, MapReduceRunner(hdfs), config, "naive")
        self.jobs = []

    def _run(self, job):
        self.jobs.append(job)
        return super()._run(job)

    def shipped(self, job):
        """Every ``(record, envelope)`` *job*'s mapper ships."""
        return [
            (record, envelope)
            for path in job.inputs
            for record in self.hdfs.read(path).records
            for _, envelope in job.mapper((path, record))
        ]


def records_of(tp):
    """*tp*'s VP table, read off GRAPH: 1-tuples for a class, else pairs."""
    if tp.property == RDF_TYPE:
        return [(t.subject,) for t in GRAPH if t.property == RDF_TYPE and t.object == tp.object]
    return [(t.subject, t.object) for t in GRAPH if t.property == tp.property]


def oracle_star(star, filters, keep):
    """The star's rows the way they were made before the plan was
    compiled: one dict per matching record, merged pattern by pattern
    (required, then optional; an optional pattern with no record leaves
    the combinations as they are), then projected."""
    optional_keys = star.optional_props

    def rows_of(tp, subject):
        optional = prop_key_of(tp) in optional_keys
        rows = []
        for record in records_of(tp):
            if record[0] != subject:
                continue
            row = vp_row(tp, record, [] if optional else _pushable(filters, tp))
            if row is not None and optional and not isinstance(tp.object, Variable):
                row[_matched(star, tp)] = tp.object
            if row is not None:
                rows.append(row)
        return rows

    def merge(left, right):
        if any(left.get(v, t) != t for v, t in right.items()):
            return None
        return {**left, **right}

    order = sorted(star.patterns, key=lambda tp: prop_key_of(tp) in optional_keys)
    result = []
    for subject in sorted({t.subject for t in GRAPH}, key=str):
        combos = [{}]
        for tp in order:
            rows = rows_of(tp, subject)
            if not rows and prop_key_of(tp) in optional_keys:
                continue
            combos = [m for c, r in product(combos, rows) if (m := merge(c, r)) is not None]
        result += [{v: t for v, t in c.items() if keep is None or v in keep} for c in combos]
    return result


OBJECTS = [S, X1, X2, ONE, TWO, A]


@st.composite
def stars(draw):
    """A star over GRAPH: variable or concrete subject, two or three
    patterns (repeated variables, the subject as an object, concrete and
    class objects), some keys LEFT OUTER, a pushable filter, a keep set."""
    subject = draw(st.sampled_from([S, A]))
    patterns = []
    for _ in range(draw(st.integers(2, 3))):
        prop = draw(st.sampled_from([P, Q, RDF_TYPE]))
        obj = CLASS if prop == RDF_TYPE else draw(st.sampled_from(OBJECTS))
        patterns.append(TriplePattern(subject, prop, obj))
    keys = sorted({prop_key_of(tp) for tp in patterns}, key=str)
    optional = frozenset(draw(st.sets(st.sampled_from(keys), max_size=len(keys) - 1)))
    star = StarPattern(subject, tuple(patterns), optional)
    variables = sorted(star.variables(), key=lambda v: v.name)
    subsets = st.sets(st.sampled_from(variables)) if variables else st.just(set())
    keep = draw(st.none() | subsets.map(frozenset))
    filters = draw(st.sampled_from([(), (gt(X1, 1),)]))
    return star, filters, keep


def check_envelopes(executor, job, sized_as):
    for record, envelope in executor.shipped(job):
        assert type(envelope) is _Shipped
        expected = estimate_size((envelope.tag, Row(sized_as(record, envelope))))
        assert estimate_size(envelope) == envelope.estimated_size() == expected


def check_star(star, filters, keep, cached=True):
    """Every physical variant of the star's formation, and a reduce-side
    join of its rows with a VP table, against the oracle."""
    expected = oracle_star(star, filters, keep)
    for threshold in (0, 10**9):
        executor = Recording(threshold)
        path = executor._star_formation(star, filters, keep, star.optional_props)
        rows = executor.hdfs.read(path).records
        assert canonical_sorted_rows(rows) == canonical_sorted_rows(expected)
        if cached:
            assert all(row._size == estimate_size(dict(row)) for row in rows)
        job = executor.jobs[-1]
        if job.reducer is not None:

            def star_row(record, envelope):
                tp = star.patterns[envelope.tag]
                row = vp_row(tp, record)
                if prop_key_of(tp) in star.optional_props and not isinstance(tp.object, Variable):
                    row[_matched(star, tp)] = tp.object
                return row

            check_envelopes(executor, job, star_row)
        joined = [v for v in (keep if keep is not None else star.variables()) if v != S]
        if threshold or not joined:
            continue
        variable = min(joined, key=lambda v: v.name)
        right_tp = TriplePattern(variable, Q, X2)
        right_path = executor.store.path_for(prop_key_of(right_tp))
        out = executor._join_rows(path, right_path, right_tp, variable, (), None)
        expected_join = [
            {**left, **right}
            for left in expected
            if variable in left
            for record in executor.hdfs.read(right_path).records
            if (right := vp_row(right_tp, record)) is not None
            and all(left.get(v, t) == t for v, t in right.items())
        ]
        assert canonical_sorted_rows(executor.hdfs.read(out).records) == (
            canonical_sorted_rows(expected_join)
        )
        if executor.jobs[-1].reducer is not None:
            check_envelopes(
                executor,
                executor.jobs[-1],
                lambda record, envelope: (
                    record if envelope.tag == "L" else vp_row(right_tp, record)
                ),
            )


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(stars())
def test_compiled_star_and_join_plans_match_the_oracle_and_ship_exact_sizes(case):
    star, filters, keep = case
    check_star(star, filters, keep)
    with reference_mode():
        check_star(star, filters, keep, cached=False)


def formed(star, threshold=0):
    executor = Recording(threshold)
    path = executor._star_formation(star, (), None, star.optional_props)
    return executor.hdfs.read(path).records


class TestStarPlan:
    def test_conflicting_repeated_variable(self):
        star = StarPattern(S, (TriplePattern(S, P, X1), TriplePattern(S, Q, X1)))
        assert canonical_sorted_rows(formed(star)) == canonical_sorted_rows(
            [{S: A, X1: ONE}, {S: B, X1: TWO}]
        )

    def test_projection_with_keep_none_keeps_every_column(self):
        star = StarPattern(S, (TriplePattern(S, RDF_TYPE, CLASS), TriplePattern(S, Q, X1)))
        assert canonical_sorted_rows(formed(star)) == canonical_sorted_rows(
            [{S: A, X1: ONE}, {S: A, X1: A}, {S: C, X1: ONE}]
        )

    @pytest.mark.parametrize("threshold", [0, 10**9])
    def test_a_property_named_twice_pairs_every_record_of_a_subject(self, threshold):
        """One table backs both patterns: a mapper sees one record at a
        time, so the star joins reduce-side, never pairing a record only
        with itself."""
        star = StarPattern(S, (TriplePattern(S, P, X1), TriplePattern(S, P, X2)))
        assert canonical_sorted_rows(formed(star, threshold)) == canonical_sorted_rows(
            [{S: A, X1: x1, X2: x2} for x1 in (ONE, TWO) for x2 in (ONE, TWO)]
            + [{S: B, X1: TWO, X2: TWO}]
        )

    def test_optional_concrete_object_binds_its_marker(self):
        optional = TriplePattern(S, P, TWO)
        star = StarPattern(
            S, (TriplePattern(S, Q, X1), optional), frozenset({prop_key_of(optional)})
        )
        marker = _matched(star, optional)
        rows = formed(star)
        assert {(row[S], row.get(marker)) for row in rows} == {(A, TWO), (B, TWO), (C, None)}

    def test_a_second_pattern_of_one_property_gets_its_own_marker(self):
        first, second = TriplePattern(S, P, ONE), TriplePattern(S, P, TWO)
        star = StarPattern(S, (TriplePattern(S, Q, X1), first, second))
        assert _matched(star, first) != _matched(star, second)
        assert _matched(star, first).name == f"matched {S} {prop_key_of(first)}"
