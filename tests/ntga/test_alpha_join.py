"""Differential: the compiled TG_AlphaJoin cycle against a naive oracle.

``build_alpha_join_job`` compiles one ``AlphaJoinPlan`` per join step
(slots, column readers, a fixed-variable layout, α bitmasks, pinned
sizes).  The oracle below is Algorithm 2 written the obvious way over
the *logical* layer -- ``optional_group_filter``, ``JoinSide.keys_for``,
``JoinedTripleGroup.merge``, ``AlphaCondition.satisfied_by`` -- with
nested loops and re-derived sizes.  The comparison is end to end through
``MapReduceRunner`` and includes order: of the output records, and of
the bindings inside each record's ``fixed``.
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.query_model import PropKey, StarPattern, prop_key_of
from repro.mapreduce.cost import estimate_size
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runner import MapReduceRunner, _sort_key
from repro.ntga.composite import CanonicalSubquery, CompositePlan, CompositeStar
from repro.ntga.factorized import FactorizedRelation, schema_for
from repro.ntga.operators import optional_group_filter
from repro.ntga.physical import (
    TripleGroupStore,
    build_alpha_join_job,
    derive_join_steps,
    restricted_alphas,
)
from repro.ntga.triplegroup import JoinedTripleGroup, TripleGroup, equivalence_class
from repro.perf import reference_mode
from repro.rdf.terms import IRI, Variable, term_sort_key
from repro.rdf.triples import Triple, TriplePattern
from tests.ntga import strategies
from tests.ntga.strategies import OBJECTS, OPTIONAL_PROPS, PROPS, PT, SUBJECTS, TY, tg

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def naive_alpha_join(step, plan, records, joined_so_far, representation, first_step):
    """One α-join cycle over the job's input *records*, in input order:
    ``(output records, shuffle bytes, output bytes)``."""
    factorized = representation == "factorized"
    variable = step.primary.variable
    alphas = restricted_alphas(plan, joined_so_far | {step.new_star})

    def star_match(index, group):
        star = plan.stars[index]
        kept = optional_group_filter([group], star.p_prim, star.p_sec, star.constraints)
        if not kept:
            return None
        component = kept[0]
        if factorized:
            component = FactorizedRelation.from_triplegroup(
                component, schema_for(star.all_props())
            )
        return JoinedTripleGroup.single(index, component)

    emitted = []  # (key, tag, record), in map order
    for record in records:
        if isinstance(record, JoinedTripleGroup):
            tagged = [("L", step.primary.left_side, record)]
        else:
            tagged = [("R", step.primary.right_side, star_match(step.new_star, record))]
            if first_step:
                tagged.insert(0, ("L", step.primary.left_side, star_match(0, record)))
        for tag, side, joined in tagged:
            if joined is not None:
                emitted += [(key, tag, joined) for key in side.keys_for(joined)]

    # Flat records ship the join binding in the value, unless they carry
    # the variable already; factorized ones leave it on the shuffle key.
    shuffle_bytes = 0
    for key, tag, joined in emitted:
        if not factorized and variable not in dict(joined.fixed):
            joined = JoinedTripleGroup(joined.components, joined.fixed + ((variable, key),))
        shuffle_bytes += estimate_size(key) + estimate_size((tag, joined))

    output = []
    for key in sorted({key for key, _, _ in emitted}, key=_sort_key):
        lefts = [joined for k, tag, joined in emitted if k == key and tag == "L"]
        rights = [joined for k, tag, joined in emitted if k == key and tag == "R"]
        for left in lefts:
            for right in rights:
                candidates = [left.merge(right, ((variable, key),))]
                for edge in step.extras:
                    candidates = [
                        JoinedTripleGroup(
                            candidate.components,
                            tuple({**dict(candidate.fixed), edge.variable: value}.items()),
                        )
                        for candidate in candidates
                        for value in sorted(
                            set(edge.left_side.keys_for(candidate))
                            & set(edge.right_side.keys_for(candidate)),
                            key=term_sort_key,
                        )
                        if dict(candidate.fixed).get(edge.variable, value) == value
                    ]
                output += [
                    candidate
                    for candidate in candidates
                    if not alphas
                    or any(alpha.satisfied_by(candidate.props()) for alpha in alphas)
                ]
    return output, shuffle_bytes, sum(estimate_size(record) for record in output)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

PT2 = IRI("urn:PT2")

# Strategies are built once (hypothesis validates each new strategy object
# on first use) and subsets are drawn as bitmasks: one draw each.
_STARS = st.sampled_from([2, 3, 3])
_LINKS = st.sampled_from([1, 1, 1, 2])
_SHAPE = st.sampled_from(["old-subject", "new-subject", "objects", "reuse"])
_LINK_PROP = st.sampled_from(PROPS + PROPS + [TY])
_PICK = st.integers(0, 11)
_BITS = st.integers(0, 255)
_SUBQUERIES = st.integers(1, 3)
_FEWEST_SECONDARIES = st.sampled_from([0, 1, 1, 1])
_GROUPS_PER_STAR = st.integers(2, 3)
#: What a variable's triples hold: subjects, and few, so that joins meet
#: -- and a class, so that ``?s rdf:type ?t`` columns list one.
_JOIN_VALUES = st.sampled_from(SUBJECTS[:2] * 2 + [PT])


def subset(items, bits):
    return [item for position, item in enumerate(items) if bits >> position & 1]


@st.composite
def join_plans(draw):
    """A composite pattern of two or three stars, each star linked to an
    earlier one subject-object or object-object -- sometimes over a
    variable an earlier link already uses (so a later step finds it
    bound), sometimes twice (extras) -- with primaries, secondaries,
    OPTIONALs, constants and typed / plain ``rdf:type`` patterns, and
    one to three subqueries whose α requires some of the secondaries.
    (A link whose property is taken is dropped: not every plan drawn is
    connected.)"""
    count = draw(_STARS)
    subjects = [Variable(f"s{index}") for index in range(count)]
    patterns = [{} for _ in range(count)]  # per star: PropKey -> (property, object)

    def add(star, prop, obj):
        key = prop_key_of(TriplePattern(subjects[star], prop, obj))
        patterns[star].setdefault(key, (prop, obj))

    links = []
    for new in range(1, count):
        for _ in range(draw(_LINKS)):
            old = draw(_PICK) % new
            shape = draw(_SHAPE)
            if shape == "old-subject":  # ?new p ?old
                add(new, draw(_LINK_PROP), subjects[old])
            elif shape == "new-subject":  # ?old p ?new
                add(old, draw(_LINK_PROP), subjects[new])
            else:
                if shape == "reuse" and links:
                    variable = links[draw(_PICK) % len(links)]
                else:
                    variable = Variable(f"j{len(links)}")
                    links.append(variable)
                add(old, draw(_LINK_PROP), variable)
                add(new, draw(_LINK_PROP), variable)
    for star in range(count):
        others = [
            (prop, obj)
            for prop in PROPS
            for obj in (Variable(f"v{star}"), OBJECTS[1], SUBJECTS[0])
        ] + [(TY, obj) for obj in (PT, PT2, Variable(f"t{star}"))]
        for _ in range(draw(_PICK) % 4 or (not patterns[star])):
            add(star, *others[draw(_PICK)])
        for prop in subset(OPTIONAL_PROPS, draw(_BITS)):
            add(star, prop, Variable(f"opt{star}{prop.value[-1]}"))

    stars = [
        StarPattern(
            subject,
            tuple(TriplePattern(subject, p, o) for p, o in chosen.values()),
            frozenset(key for key in chosen if key.property in OPTIONAL_PROPS),
        )
        for subject, chosen in zip(subjects, patterns)
    ]
    primaries = []
    for star in stars:
        # Some of the required keys, at least one, not all -- and not
        # ``rdf:type ?t`` if avoidable: no group ever reports the plain
        # key (``props()`` qualifies it by class), so a star that demands
        # it matches nothing.
        required = sorted(star.required_props(), key=lambda k: (k == PropKey(TY), str(k)))
        primaries.append(subset(required[:-1], draw(_BITS)) or required[:1])
    # Mostly every subquery asks for a secondary (α can prune); sometimes
    # one asks for nothing (every combination materializes).
    fewest = draw(_FEWEST_SECONDARIES)
    asks = []
    for _ in range(draw(_SUBQUERIES)):
        asks.append([])
        for star, p_prim in zip(stars, primaries):
            secondary = sorted(star.props() - frozenset(p_prim), key=str)
            asks[-1].append(subset(secondary, draw(_BITS)) or secondary[:fewest])
    return composite_plan(stars, primaries, asks)


def composite_plan(stars, primaries, asks):
    """A composite plan over *stars* with the given primary keys per
    star, and one subquery per entry of *asks*: the secondary keys, per
    star, its original pattern has beside the primaries."""
    composite_stars = []
    for star, p_prim in zip(stars, primaries):
        constraints = {
            prop_key_of(pattern): pattern.object
            for pattern in star.patterns
            if pattern.property != TY and not isinstance(pattern.object, Variable)
        }
        composite_stars.append(
            CompositeStar(star, frozenset(p_prim), star.props() - frozenset(p_prim), constraints)
        )
    subqueries = []
    for subquery_id, asked in enumerate(asks):
        sub_stars = []
        for composite_star, secondaries in zip(composite_stars, asked):
            keep = composite_star.p_prim | frozenset(secondaries)
            pattern = composite_star.pattern
            sub_stars.append(
                StarPattern(
                    pattern.subject,
                    tuple(p for p in pattern.patterns if prop_key_of(p) in keep),
                    pattern.optional_props & keep,
                )
            )
        subqueries.append(
            CanonicalSubquery(
                subquery_id, tuple(sub_stars), tuple(range(len(stars))), (), (), ()
            )
        )
    return CompositePlan(tuple(composite_stars), tuple(subqueries))


@st.composite
def stored_groups(draw, plan):
    """Triplegroups that tend to match the plan's stars, a few per star:
    some without one of the star's secondary properties (α has something
    to prune), some with a triple repeated (a stored file is not a
    checked graph) or given a sibling value (n-split fan-out)."""
    drawn = []
    for composite_star in plan.stars:
        secondary = sorted({key.property for key in composite_star.p_sec}, key=str)
        for _ in range(draw(_GROUPS_PER_STAR)):
            group = draw(strategies.groups(composite_star.pattern, objects=_JOIN_VALUES))
            triples = group.triples
            pick = draw(_PICK)
            if pick < len(secondary):
                triples = tuple(t for t in triples if t.property != secondary[pick])
            elif pick - len(secondary) < len(triples):
                chosen = triples[pick - len(secondary)]
                sibling = Triple(chosen.subject, chosen.property, SUBJECTS[pick % 2])
                triples += (chosen, sibling)
            drawn.append(TripleGroup(group.subject, triples))
    return draw(st.permutations(drawn))


def store_groups(groups, hdfs):
    """``load_triplegroups`` for a hand-made group list."""
    store = TripleGroupStore(empty_path="t/ec/_empty")
    hdfs.write(store.empty_path, [])
    by_class = {}
    for group in groups:
        by_class.setdefault(equivalence_class(group), []).append(group)
    classes = sorted(by_class, key=lambda ec: sorted(iri.value for iri in ec))
    for index, ec in enumerate(classes):
        store.paths_by_class[ec] = f"t/ec/{index:05d}"
        hdfs.write(store.paths_by_class[ec], by_class[ec])
    return store


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


def assert_jobs_equal_oracle(plan, groups):
    """Run every join step of *plan* over *groups*, flat and factorized,
    and compare each job with the oracle.  Returns the last step's flat
    output."""
    steps = derive_join_steps(plan)
    for representation in ("factorized", "flat"):
        hdfs = HDFS()
        store = store_groups(groups, hdfs)
        runner = MapReduceRunner(hdfs)
        joined, previous, expected = frozenset({0}), None, []
        for index, step in enumerate(steps):
            job = build_alpha_join_job(
                name=f"t:alpha-join-{index}",
                step=step,
                plan=plan,
                store=store,
                previous_output=previous,
                joined_so_far=joined,
                output=f"t/join{index}",
                representation=representation,
            )
            counters = Counters()
            runner.run_job(job, counters)

            stored = job.inputs if previous is None else job.inputs[1:]
            records = expected + [
                record for path in stored for record in hdfs.read(path).records
            ]
            with reference_mode():
                expected, shuffle_bytes, output_bytes = naive_alpha_join(
                    step, plan, records, joined, representation, previous is None
                )
            output = hdfs.read(job.output).records
            assert output == expected
            assert counters["shuffle_bytes"] == shuffle_bytes
            assert counters["hdfs_bytes_written"] == output_bytes
            # The pinned memos are what a cold re-derivation gives.
            for record in output:
                pinned = record.estimated_size(), record.props()
                with reference_mode():
                    assert (record.estimated_size(), record.props()) == pinned
            joined, previous = joined | {step.new_star}, job.output
    return expected


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_compiled_alpha_join_equals_naive_oracle(data):
    plan = data.draw(join_plans())
    assume(plan.composite_graph_pattern().is_connected())
    assert_jobs_equal_oracle(plan, data.draw(stored_groups(plan)))


# Corners the generator reaches too rarely to rely on, pinned by hand.

S0, S1, S2 = (Variable(f"s{index}") for index in range(3))
A, B, C = SUBJECTS
P0, P1, P2 = PROPS
LONG = IRI("urn:a-longer-value")


def star(subject, *pairs):
    return StarPattern(subject, tuple(TriplePattern(subject, p, o) for p, o in pairs))


def test_typed_alpha_key_is_met_by_another_stars_plain_type_column():
    """α asks star 0 for ``rdf:type PT1``; only star 1 -- whose schema
    has the plain ``rdf:type`` column of ``?s1 a ?t`` -- lists the class.
    ``props()`` is a union over components, so the combination holds."""
    plan = composite_plan(
        [star(S0, (P0, Variable("j")), (TY, PT)), star(S1, (P1, Variable("j")), (TY, Variable("t")))],
        [[PropKey(P0)], [PropKey(P1)]],
        [[[PropKey(TY, PT)], []]],
    )
    groups = [
        tg(A, (P0, C)),
        tg(B, (P1, C), (TY, PT)),  # vouches for star 0's missing class
        tg(C, (P1, C), (TY, PT2)),  # does not
    ]
    (joined,) = assert_jobs_equal_oracle(plan, groups)
    assert joined.components[1][1].subject == B


def test_left_record_bound_to_another_value_of_the_join_property():
    """Step 1 joins on ``?j`` again, reading star 0's two-valued
    property: a record that chose one value still emits under the other,
    and the merged ``fixed`` takes the key -- in place, sizes included."""
    j = Variable("j")
    plan = composite_plan(
        [star(S0, (P0, j)), star(S1, (P1, j)), star(S2, (P2, j))],
        [[PropKey(P0)], [PropKey(P1)], [PropKey(P2)]],
        [[[], [], []]],
    )
    groups = [tg(A, (P0, B), (P0, LONG)), tg(B, (P1, B), (P1, LONG)), tg(C, (P2, LONG), (P2, B))]
    output = assert_jobs_equal_oracle(plan, groups)
    assert [record.fixed for record in output] == [((j, LONG),)] * 2 + [((j, B),)] * 2


def test_extra_edge_with_two_shared_values_expands_in_term_order():
    """Star 1 attaches to star 0 twice; the second edge's sides share
    two values, one output per value in ``term_sort_key`` order."""
    j, k = Variable("j"), Variable("k")
    plan = composite_plan(
        [star(S0, (P0, j), (P1, k)), star(S1, (P0, j), (P2, k))],
        [[PropKey(P0)], [PropKey(P0)]],
        [[[PropKey(P1)], [PropKey(P2)]]],
    )
    groups = [tg(A, (P0, C), (P1, LONG), (P1, B), (P1, A)), tg(B, (P0, C), (P2, B), (P2, LONG))]
    output = assert_jobs_equal_oracle(plan, groups)
    assert [record.fixed for record in output] == [
        ((j, C), (k, LONG)),
        ((j, C), (k, B)),
    ]


def test_alpha_key_held_by_a_later_component_of_the_left_record():
    """At step 1 one α asks star 1 -- the left record's *second*
    component -- for a secondary, the other asks star 2: a combination
    lacking the latter materializes only on the strength of slot 1."""
    j, k = Variable("j"), Variable("k")
    PT3 = IRI("urn:PT3")
    plan = composite_plan(
        [
            star(S0, (TY, PT), (P0, j)),
            star(S1, (TY, PT2), (P0, j), (P1, k), (P2, Variable("x"))),
            star(S2, (TY, PT3), (P1, k), (P2, Variable("y"))),
        ],
        [
            [PropKey(TY, PT), PropKey(P0)],
            [PropKey(TY, PT2), PropKey(P0), PropKey(P1)],
            [PropKey(TY, PT3), PropKey(P1)],
        ],
        [[[], [PropKey(P2)], []], [[], [], [PropKey(P2)]]],
    )
    groups = [
        tg(A, (TY, PT), (P0, C)),
        tg(B, (TY, PT2), (P0, C), (P1, A), (P2, A)),  # holds star 1's secondary
        tg(C, (TY, PT2), (P0, C), (P1, A)),  # does not
        tg(LONG, (TY, PT3), (P1, A)),  # star 2 without its secondary
    ]
    (joined,) = assert_jobs_equal_oracle(plan, groups)
    assert [group.subject for _, group in joined.components] == [A, B, LONG]


def test_mapper_order_and_traced_counters_of_an_extra_edge():
    """What the record comparison cannot see: a group matching both
    stars is tagged left first, and under tracing a pruned combination
    counts once per ``fixed`` its extra edges would have produced."""
    j, k = Variable("j"), Variable("k")
    plan = composite_plan(
        [star(S0, (P0, j), (P1, k), (P2, Variable("x"))), star(S1, (P0, j), (P1, k))],
        [[PropKey(P0)], [PropKey(P0)]],
        [[[PropKey(P1), PropKey(P2)], [PropKey(P1)]]],
    )
    groups = [tg(A, (P0, C), (P1, LONG), (P1, B))]  # both stars, twice; no P2 for α
    hdfs = HDFS()
    (step,) = derive_join_steps(plan)
    job = build_alpha_join_job(
        name="t:alpha-join-0",
        step=step,
        plan=plan,
        store=store_groups(groups, hdfs),
        previous_output=None,
        joined_so_far=frozenset({0}),
        output="t/join0",
        representation="factorized",
    )
    assert [tag for _, (tag, _) in job.mapper(groups[0])] == ["L", "R"]
    with obs.tracing() as tracer:
        MapReduceRunner(hdfs).run_job(job)
    counted = Counter()
    for span in tracer.spans:
        counted.update(span.metrics)
    assert hdfs.read(job.output).records == []
    assert counted["alpha_combinations_pruned"] == 2
    assert counted["alpha_combinations_materialized"] == 0
