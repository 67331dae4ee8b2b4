"""TG_AgJ enumerates a detail record once per distinct star layout.

Subqueries of one composite that share a layout -- the same canonical
stars over the same composite stars, grouped, filtered or aggregated
differently (MG6's two groupings, a G8 batch at several thresholds) --
share one compiled expansion.  What the job emits must be exactly what
one expansion *per subquery* gives: every pair below is checked against
that expansion, written out here from :func:`joined_solutions`, in
order -- subquery order, then row order -- as the mapper emits it (one
item per solution) and folded (a map task's partial per group), and the
job's output against one job per subquery.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.catalog import CATALOG
from repro.core.query_model import AggregateSpec, parse_analytical
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runner import MapReduceRunner, _chunk, _JobInputs, _map_combine, _sort_key
from repro.ntga.composite import CanonicalSubquery, CompositePlan, CompositeStar
from repro.ntga.factorized import active_representation
from repro.ntga.operators import AlphaCondition
from repro.ntga.physical import (
    build_agg_join_job,
    load_triplegroups,
    make_star_filter,
    shared_prefilters,
)
from repro.ntga.planner import plan_batch
from repro.ntga.triplegroup import JoinedTripleGroup, JoinPlan, TripleGroup, joined_solutions
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple
from repro.sparql.aggregates import AccumulatorTuple, accumulator_factory
from repro.sparql.expressions import BinaryExpr, ConstExpr, VarExpr, evaluate_filter

from tests.ntga.strategies import OBJECTS, factorized, fixed_for, groups, stars

REPRESENTATIONS = ("flat", "factorized")
EX = "PREFIX ex: <http://ex.org/> "
CHEM = "PREFIX chem: <http://chem2bio2rdf.example.org/vocabulary/> "
ASSAY = "{ ?b chem:CID ?cid ; chem:outcome ?a }"


# ---------------------------------------------------------------------------
# One expansion per subquery, written out
# ---------------------------------------------------------------------------


def aggregate_input(term):
    """What an aggregate reads of a term: a literal's value, an IRI's text."""
    if isinstance(term, Literal):
        return term.python_value()
    if isinstance(term, IRI):
        return term.value
    return term


def partial_of(aggregates, solution) -> AccumulatorTuple:
    accumulators = [accumulator_factory(a.func, a.distinct)() for a in aggregates]
    for accumulator, aggregate in zip(accumulators, aggregates):
        if aggregate.variable is None:
            accumulator.update(None)
        elif solution.get(aggregate.variable) is not None:
            accumulator.update(aggregate_input(solution[aggregate.variable]))
    return AccumulatorTuple(accumulators)


def per_subquery(composite, joined):
    """``(key, partial)`` per solution: each subquery expands *joined* on
    its own, in subquery order."""
    props = joined.props()
    pairs = []
    for subquery in composite.subqueries:
        if not subquery.alpha.satisfied_by(props):
            continue
        indices = dict(enumerate(subquery.star_indices))
        for solution in joined_solutions(subquery.stars, joined, indices):
            if not all(evaluate_filter(f, solution) for f in subquery.filters):
                continue
            key = (subquery.subquery_id, tuple(solution.get(v) for v in subquery.group_by))
            pairs.append((key, partial_of(subquery.aggregates, solution)))
    return pairs


def combined(pairs):
    """One map task's pairs folded: per key, the partials merged into the
    first, keys in shuffle order."""
    grouped: dict = {}
    for key, partial in pairs:
        if key in grouped:
            grouped[key].merge(partial)
        else:
            grouped[key] = partial
    return [(key, grouped[key]) for key in sorted(grouped, key=_sort_key)]


def rendered(pairs) -> list:
    """Bit for bit: every accumulator's partial state and result, as repr."""
    return [
        (key, [(repr(a.partial()), repr(a.result())) for a in partial.accumulators])
        for key, partial in pairs
    ]


def as_detail(record, star_filter):
    """The detail record TG_AgJ expands for *record* (None: filtered out)."""
    if isinstance(record, JoinedTripleGroup):
        return record
    filtered = star_filter(record) if star_filter is not None else record
    return None if filtered is None else JoinedTripleGroup.single(0, filtered)


def check_job(composite, job, records, star_filter=None, tasks=3):
    expected = []
    for record in records:
        joined = as_detail(record, star_filter)
        expected.append([] if joined is None else per_subquery(composite, joined))
    # Emitted: one item per solution, record by record, each stepped
    # into a fresh partial of its own.
    zero, step = job.fold

    def partial_of_one(item):
        partial = zero(item)
        step(partial, item)
        return partial

    assert [
        rendered([(key, partial_of_one(item)) for key, item in job.mapper(record)])
        for record in records
    ] == [rendered(pairs) for pairs in expected]
    # Folded: each map task's partials, one per group.
    folded = _map_combine(job, _JobInputs(records, job.mapper, tasks, 0, 0, 0, 0), Counters())
    want = [
        pair
        for chunk in _chunk(expected, tasks)
        for pair in combined([pair for pairs in chunk for pair in pairs])
    ]
    assert rendered(folded) == rendered(want)


def check_output(composite, job, hdfs, store, prefilters, representation, detail_input):
    """The shared job's rows are the rows of one job per subquery."""
    runner = MapReduceRunner(hdfs)
    runner.run_job(job)
    alone = Counter()
    for subquery in composite.subqueries:
        solo = build_agg_join_job(
            name=f"solo{subquery.subquery_id}",
            plan=CompositePlan(composite.stars, (subquery,)),
            detail_input=detail_input,
            store=store,
            output=f"solo/{subquery.subquery_id}",
            prefilters=prefilters,
            representation=representation,
        )
        runner.run_job(solo)
        alone.update(hdfs.read(solo.output).records)
    shared = hdfs.read(job.output).records
    assert Counter(shared) == alone
    return shared


# ---------------------------------------------------------------------------
# Drawn composites: several subqueries per layout
# ---------------------------------------------------------------------------

_FUNCS = st.sampled_from(["COUNT", "MIN", "MAX"])


@st.composite
def agg_cases(draw):
    """A composite of one or two stars with two to four subqueries; the
    first two share the full layout, later ones may take the second star
    alone.  Group keys and aggregates may name a variable the pattern
    leaves unbound, or one only a join binding holds."""
    pattern = tuple(draw(stars(index)) for index in range(draw(st.integers(1, 2))))
    layouts = [(pattern, tuple(range(len(pattern))))]
    if len(pattern) == 2:
        layouts.append(((pattern[1],), (1,)))
    variables = sorted(
        set().union(*(star.variables() for star in pattern))
        | {Variable("elsewhere"), Variable("nowhere")},
        key=lambda variable: variable.name,
    )
    props = sorted(set().union(*(star.props() for star in pattern)), key=str)
    subqueries = []
    for sid in range(draw(st.integers(2, 4))):
        layout_stars, indices = layouts[0] if sid < 2 else draw(st.sampled_from(layouts))
        group_by = tuple(draw(st.lists(st.sampled_from(variables), max_size=2, unique=True)))
        aggregates = tuple(
            AggregateSpec(
                Variable(f"agg{sid}_{index}"),
                func,
                None if func == "COUNT" and star else variable,
                distinct,
            )
            for index, (func, variable, distinct, star) in enumerate(
                draw(
                    st.lists(
                        st.tuples(_FUNCS, st.sampled_from(variables), st.booleans(), st.booleans()),
                        min_size=1,
                        max_size=2,
                    )
                )
            )
        )
        filters = tuple(
            BinaryExpr(op, VarExpr(variable), ConstExpr(term))
            for op, variable, term in draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(["=", "!="]),
                        st.sampled_from(variables),
                        st.sampled_from(OBJECTS),
                    ),
                    max_size=1,
                )
            )
        )
        alpha = AlphaCondition(frozenset(draw(st.sets(st.sampled_from(props), max_size=1))))
        subqueries.append(
            CanonicalSubquery(
                sid, layout_stars, indices, group_by, group_by, aggregates, alpha, filters
            )
        )
    composite = CompositePlan(
        tuple(CompositeStar(s, s.required_props(), s.optional_props) for s in pattern),
        tuple(subqueries),
    )
    representation = draw(st.sampled_from(REPRESENTATIONS))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        drawn = [draw(groups(star)) for star in pattern]
        fixed = fixed_for(draw, pattern, drawn)
        if representation == "factorized":
            drawn = [factorized(draw, star, group) for star, group in zip(pattern, drawn)]
        records.append(JoinedTripleGroup(tuple(enumerate(drawn)), fixed))
    return composite, representation, records


@settings(max_examples=150, deadline=None)
@given(agg_cases(), st.integers(1, 3))
def test_shared_layouts_emit_what_one_expansion_per_subquery_does(case, tasks):
    composite, representation, records = case
    job = build_agg_join_job(
        "t:agg", composite, "t/detail", store=None, output="t/agg",
        representation=representation,
    )
    check_job(composite, job, records, tasks=tasks)


def test_a_record_is_expanded_once_per_distinct_layout(monkeypatch):
    """Two subqueries over one layout, one over another: three α-passing
    subqueries, two expansions of the record."""
    both = "{ ?p ex:feature ?f ; ex:label ?l }"
    queries = [
        parse_analytical(EX + f"SELECT ?f (COUNT(?p) AS ?n) {both} GROUP BY ?f"),
        parse_analytical(EX + f"SELECT ?l (MAX(?f) AS ?m) {both} GROUP BY ?l"),
        parse_analytical(EX + "SELECT (COUNT(?f) AS ?n) { ?p ex:feature ?f }"),
    ]
    expanded = []
    expand = JoinPlan.expand

    def counting(self, joined):
        expanded.append(joined)
        return expand(self, joined)

    monkeypatch.setattr(JoinPlan, "expand", counting)
    plan = plan_batch(queries, load_triplegroups(Graph(), HDFS()))
    composite = plan.defaults_by_plan[0][0]
    (job,) = [job for job in plan.jobs if "TG_AgJ" in job.labels]
    assert len({(sq.stars, sq.star_indices) for sq in composite.subqueries}) == 2
    subject = IRI("http://ex.org/p1")
    group = TripleGroup(
        subject,
        (
            Triple(subject, IRI("http://ex.org/feature"), IRI("http://ex.org/f1")),
            Triple(subject, IRI("http://ex.org/label"), Literal("one")),
        ),
    )
    assert len(list(job.mapper(group))) == 3
    assert len(expanded) == 2


# ---------------------------------------------------------------------------
# Catalog batches: MG6 alone, G8 at three thresholds, the MG6-MG8 family
# ---------------------------------------------------------------------------


def g8_at(threshold: int):
    text = CATALOG["G8"].sparql
    assert "?s1 > 50" in text
    return parse_analytical(text.replace("?s1 > 50", f"?s1 > {threshold}"))


BATCHES = {
    "MG6": lambda: [parse_analytical(CATALOG["MG6"].sparql)],
    "G8@30,50,70": lambda: [g8_at(30), g8_at(50), g8_at(70)],
    "MG6+MG7+MG8": lambda: [
        parse_analytical(CATALOG[qid].sparql) for qid in ("MG6", "MG7", "MG8")
    ],
    # One star: TG_AgJ filters EC-file records itself.
    "assay-star": lambda: [
        parse_analytical(CHEM + f"SELECT ?cid (COUNT(?a) AS ?n) {ASSAY} GROUP BY ?cid"),
        parse_analytical(CHEM + f"SELECT ?a (MAX(?cid) AS ?m) {ASSAY} GROUP BY ?a"),
        parse_analytical(CHEM + f"SELECT (COUNT(DISTINCT ?cid) AS ?n) {ASSAY}"),
    ],
}


@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_catalog_batches_emit_what_one_expansion_per_subquery_does(
    chem_tiny, batch, representation
):
    hdfs = HDFS()
    store = load_triplegroups(chem_tiny, hdfs)
    with active_representation(representation):
        plan = plan_batch(BATCHES[batch](), store)
    assert plan.representation == representation
    composite = plan.defaults_by_plan[0][0]
    (agg,) = [job for job in plan.jobs if "TG_AgJ" in job.labels]
    runner = MapReduceRunner(hdfs)
    runner.run_workflow(plan.jobs[: plan.jobs.index(agg)])
    records = [record for path in agg.inputs for record in hdfs.read(path).records]
    prefilters = shared_prefilters(composite.subqueries)
    single = len(composite.stars) == 1
    star_filter = (
        make_star_filter(composite.stars[0], prefilters, representation) if single else None
    )
    layouts = Counter((sq.stars, sq.star_indices) for sq in composite.subqueries)
    assert max(layouts.values()) > 1, "the batch must share a layout"
    check_job(composite, agg, records, star_filter)
    rows = check_output(
        composite, agg, hdfs, store, prefilters, representation,
        None if single else agg.inputs[0],
    )
    assert rows, "the batch must aggregate something"
