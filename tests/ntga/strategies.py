"""Shared generators and naive oracles for the NTGA differential tests.

``test_triplegroup.py`` (compiled expansion) and ``test_physical.py``
(compiled α-join) draw their stars and triplegroups from the same
strategies and check against oracles written the slow, obvious way.
Whole analytical queries (two overlapping grouping subqueries) and
graphs for them close the file, for the engine-level property tests.
"""

import copy

from hypothesis import strategies as st

from repro.core.query_model import (
    AggregateSpec,
    AnalyticalQuery,
    GraphPattern,
    GroupingSubquery,
    PropKey,
    StarPattern,
    prop_key_of,
)
from repro.ntga.factorized import FactorizedRelation, schema_for
from repro.ntga.triplegroup import TripleGroup
from repro.perf import reference_mode
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple, TriplePattern
from repro.sparql.expressions import BinaryExpr, ConstExpr, VarExpr

TY = RDF_TYPE
PT = IRI("urn:PT1")


def tg(subject, *pairs):
    return TripleGroup(subject, tuple(Triple(subject, p, o) for p, o in pairs))


# ---------------------------------------------------------------------------
# The memo contract of the frozen, slotted record types
# ---------------------------------------------------------------------------


def memo_slots(record):
    """The hidden cache slots of *record* and what each holds."""
    return {name: getattr(record, name) for name in type(record).__slots__ if name[0] == "_"}


def assert_memos_stay_hidden(make, fill, value=lambda record: record):
    """*make* builds a fresh record, *fill* calls every memoized method
    on one.  No instance ever grows a ``__dict__``; a record with every
    memo filled still compares, hashes, prints and deep-copies like a
    cold one (by *value*, for a class that compares by identity); and
    under ``reference_mode()`` no memo slot is written."""
    cold, warm = make(), make()
    assert not hasattr(cold, "__dict__")
    assert all(memo is None for memo in memo_slots(warm).values())
    fill(warm)
    assert not hasattr(warm, "__dict__")
    assert all(memo is not None for memo in memo_slots(warm).values()), memo_slots(warm)
    assert value(warm) == value(cold) and hash(value(warm)) == hash(value(cold))
    assert repr(warm) == repr(cold)
    clone = copy.deepcopy(warm)
    assert value(clone) == value(cold) and repr(clone) == repr(cold)
    assert not hasattr(clone, "__dict__")
    with reference_mode():
        fresh = make()
        fill(fresh)
        assert all(memo is None for memo in memo_slots(fresh).values()), memo_slots(fresh)


# ---------------------------------------------------------------------------
# The BGP oracle
# ---------------------------------------------------------------------------
#
# BGP matching written the slow, obvious way: every pattern is tried
# against every triple of the group, solution by solution.  It knows
# nothing of plans, steps, columns, slots or in-place extension.
# Comparisons against it include the order of the solutions; a solution
# itself is compared as a mapping.


def naive_star(star, group, fixed=()):
    fixed = dict(fixed)

    def agrees(variable, term, solution):
        return solution.get(variable, fixed.get(variable, term)) == term

    if not isinstance(star.subject, Variable):
        solutions = [{}] if star.subject == group.subject else []
    elif agrees(star.subject, group.subject, {}):
        solutions = [{star.subject: group.subject}]
    else:
        solutions = []
    for pattern in star.patterns:
        objects = [t.object for t in group.triples if t.property == pattern.property]
        extended = []
        for solution in solutions:
            if isinstance(pattern.object, Variable):
                matches = [
                    {**solution, pattern.object: o}
                    for o in objects
                    if agrees(pattern.object, o, solution)
                ]
            else:
                matches = [solution] if pattern.object in objects else []
            if not matches and prop_key_of(pattern) in star.optional_props:
                matches = [solution]
            extended += matches
        solutions = extended
    return [
        {**s, **{v: t for v, t in fixed.items() if v not in s}} for s in solutions
    ]


def naive_joined(stars, components, fixed):
    """*components* holds one flat triplegroup per star, in star order."""
    merged = [{}]
    for star, group in zip(stars, components):
        merged = [
            {**left, **{v: t for v, t in right.items() if v not in left}}
            for left in merged
            for right in naive_star(star, group, fixed)
            if all(left.get(v, t) == t for v, t in right.items())
        ]
    return merged


def decoded(rows, slots):
    """Slot rows as mappings: the bound slots of each row, list order kept."""
    return [
        {variable: row[slot] for variable, slot in slots.items() if row[slot] is not None}
        for row in rows
    ]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

PROPS = [IRI(f"urn:p{i}") for i in range(3)]
OPTIONAL_PROPS = [IRI(f"urn:q{i}") for i in range(2)]
OBJECTS = [IRI(f"urn:o{i}") for i in range(3)] + [Literal("7"), PT, IRI("urn:PT2")]
SUBJECTS = [IRI(f"urn:s{i}") for i in range(3)]
SHARED_VARS = [Variable(name) for name in "xyz"]
SUBJECT_VARS = [Variable(f"s{index}") for index in range(3)]


@st.composite
def stars(draw, index=0):
    """A star whose object variables come from a pool shared by every
    star drawn (so variables repeat within a star and across stars) or
    from the stars' subject variables -- its own, and those of the stars
    drawn before and after it (a subject-object link, met from either
    end); OPTIONAL patterns sit on dedicated properties with private
    variables, as the query model guarantees."""
    subject = draw(
        st.one_of(st.just(Variable(f"s{index}")), st.sampled_from(SUBJECTS[:2]))
    )
    pool = SHARED_VARS + SUBJECT_VARS
    required = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(PROPS), st.sampled_from(pool + OBJECTS)),
                st.tuples(st.just(TY), st.sampled_from([PT, IRI("urn:PT2")] + pool)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    optional = [
        (p, draw(st.sampled_from([Variable(f"opt{index}{p.value[-1]}"), OBJECTS[0]])))
        for p in draw(st.lists(st.sampled_from(OPTIONAL_PROPS), max_size=2, unique=True))
    ]
    patterns = list(required)
    for pattern in optional:
        patterns.insert(draw(st.integers(0, len(patterns))), pattern)
    return StarPattern(
        subject,
        tuple(TriplePattern(subject, p, o) for p, o in patterns),
        frozenset(PropKey(p) for p, _ in optional),
    )


# Built once: hypothesis validates a strategy object on first use, and
# the group generator is drawn from thousands of times per test.
_SUBJECT = st.sampled_from(SUBJECTS)
_TRIPLES_PER_PATTERN = st.sampled_from([1, 1, 1, 2, 0])
_OBJECT = st.sampled_from(OBJECTS)
_NOISE = st.lists(
    st.tuples(
        st.sampled_from(PROPS + OPTIONAL_PROPS + [TY]),
        st.sampled_from(OBJECTS + SUBJECTS),
    ),
    max_size=4,
)


@st.composite
def groups(draw, star=None, objects=_OBJECT):
    """A triplegroup; given a *star*, one that tends to match it (random
    groups almost never do): a triple or two per pattern, plus noise.
    *objects* draws the value of a variable's triple (a join test passes
    a pool that overlaps the subjects)."""
    subject = draw(_SUBJECT)
    likely = []
    if star is not None:
        if not isinstance(star.subject, Variable) and draw(st.integers(0, 9)):
            subject = star.subject
        for pattern in star.patterns:
            for _ in range(draw(_TRIPLES_PER_PATTERN)):
                value = pattern.object
                if isinstance(value, Variable):
                    value = draw(objects)
                likely.append((pattern.property, value))
    # An RDF graph is a set of triples: no duplicates within a group.
    return tg(subject, *dict.fromkeys(draw(st.permutations(likely + draw(_NOISE)))))


def fixed_for(draw, stars, groups):
    """Bindings for some of the stars' non-OPTIONAL variables (and one
    no star mentions): most to a value the data offers that variable,
    some to one that rejects."""
    offered = {Variable("elsewhere"): []}
    for star, group in zip(stars, groups):
        if isinstance(star.subject, Variable):
            offered.setdefault(star.subject, []).append(group.subject)
        for pattern in star.patterns:
            if isinstance(pattern.object, Variable) and not pattern.object.name.startswith("opt"):
                offered.setdefault(pattern.object, []).extend(
                    t.object for t in group.triples if t.property == pattern.property
                )
    chosen = draw(
        st.lists(
            st.sampled_from(sorted(offered, key=lambda v: v.name)), max_size=3, unique=True
        )
    )
    return tuple(
        (variable, draw(st.sampled_from(offered[variable] * 4 + OBJECTS + SUBJECTS)))
        for variable in chosen
    )


def factorized(draw, star, group):
    """*group* as the star filter would ship it: columns over a schema
    covering the star's keys -- with a type-qualified key sometimes
    served by a plain ``rdf:type`` column instead of its own."""
    keys = set(star.props()) | {PropKey(p) for p in draw(st.sets(st.sampled_from(PROPS)))}
    if draw(st.booleans()):
        keys = {PropKey(TY) if key.type_object is not None else key for key in keys}
    keys = frozenset(keys)
    return FactorizedRelation.from_triplegroup(group.project(keys), schema_for(keys))


# ---------------------------------------------------------------------------
# Whole analytical queries: random pairs of overlapping grouping subqueries
# ---------------------------------------------------------------------------

EX = "http://rc.org/"
TYPE_C = IRI(EX + "C")
LABEL, FEAT, LINK, VAL, TAG = (
    IRI(EX + "label"),
    IRI(EX + "feat"),
    IRI(EX + "link"),
    IRI(EX + "val"),
    IRI(EX + "tag"),
)


def _build_subquery(
    suffix: str,
    with_label: bool,
    with_feat: bool,
    with_tag: bool,
    group_feat: bool,
    group_tag: bool,
    shared_names: bool,
    filtered: bool = False,
) -> GroupingSubquery:
    def var(name: str, groupable: bool = False) -> Variable:
        if groupable and shared_names:
            return Variable(name)  # same name in both subqueries → outer join key
        return Variable(name + suffix)

    s, o = var("s"), var("o")
    star1 = [TriplePattern(s, RDF_TYPE, TYPE_C)]
    if with_label:
        star1.append(TriplePattern(s, LABEL, var("l")))
    feat_var = var("f", groupable=True)
    if with_feat:
        star1.append(TriplePattern(s, FEAT, feat_var))
    star2 = [TriplePattern(o, LINK, s), TriplePattern(o, VAL, var("v"))]
    tag_var = var("t", groupable=True)
    if with_tag:
        star2.append(TriplePattern(o, TAG, tag_var))
    filters = ()
    if filtered:  # two FILTER clauses, the first a conjunction
        v = VarExpr(var("v"))
        filters = (
            BinaryExpr(
                "&&",
                BinaryExpr(">", v, ConstExpr(Literal.from_python(5))),
                BinaryExpr("<", v, ConstExpr(Literal.from_python(45))),
            ),
            BinaryExpr("!=", v, ConstExpr(Literal.from_python(7))),
        )
    pattern = GraphPattern(
        (StarPattern(s, tuple(star1)), StarPattern(o, tuple(star2))), filters
    )
    group_by = []
    if group_feat and with_feat:
        group_by.append(feat_var)
    if group_tag and with_tag:
        group_by.append(tag_var)
    aggregates = (
        AggregateSpec(var("cnt"), "COUNT", var("v")),
        AggregateSpec(var("sum"), "SUM", var("v")),
    )
    return GroupingSubquery(pattern, tuple(group_by), aggregates)


@st.composite
def analytical_queries(draw, filtered=False):
    """Two overlapping grouping subqueries over :func:`composite_graphs`'
    vocabulary; *filtered* lets each subquery draw FILTERs on its
    measured value."""
    shared_names = draw(st.booleans())
    subqueries = []
    for suffix in ("1", "2"):
        subqueries.append(
            _build_subquery(
                suffix,
                with_label=draw(st.booleans()),
                with_feat=draw(st.booleans()),
                with_tag=draw(st.booleans()),
                group_feat=draw(st.booleans()),
                group_tag=draw(st.booleans()),
                shared_names=shared_names,
                filtered=filtered and draw(st.booleans()),
            )
        )
    projection = []
    for subquery in subqueries:
        for variable in subquery.projected_variables():
            if variable not in projection:
                projection.append(variable)
    return AnalyticalQuery(tuple(subqueries), tuple(projection))


@st.composite
def composite_graphs(draw):
    graph = Graph()
    subject_count = draw(st.integers(0, 5))
    for index in range(subject_count):
        subject = IRI(EX + f"s{index}")
        if draw(st.booleans()):
            graph.add(Triple(subject, RDF_TYPE, TYPE_C))
        if draw(st.booleans()):
            graph.add(Triple(subject, LABEL, Literal(f"l{index}")))
        for feature in draw(st.lists(st.integers(0, 2), max_size=2)):
            graph.add(Triple(subject, FEAT, IRI(EX + f"f{feature}")))
        for object_index in range(draw(st.integers(0, 2))):
            obj = IRI(EX + f"o{index}_{object_index}")
            graph.add(Triple(obj, LINK, subject))
            graph.add(Triple(obj, VAL, Literal.from_python(draw(st.integers(1, 50)))))
            for tag in draw(st.lists(st.integers(0, 1), max_size=2)):
                graph.add(Triple(obj, TAG, Literal(f"t{tag}")))
    return graph
