"""Property-based conformance for the composite rewrite itself.

Hypothesis builds *random pairs of overlapping graph patterns* (random
secondary properties on both stars, random grouping keys, optionally
shared grouping variable names so the outer join is exercised both as a
real join and as a cross product) over random data — then checks every
engine against the oracle.  This hunts for composite-construction bugs
(wrong α conditions, broken canonicalization, expansion multiplicity)
that the fixed workload can't reach.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings

from repro.core.engines import PAPER_ENGINES, make_engine
from tests.ntga.strategies import analytical_queries, composite_graphs


def canonical(rows):
    return Counter(
        frozenset((variable.name, str(term)) for variable, term in row.items())
        for row in rows
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=analytical_queries(), graph=composite_graphs())
def test_random_composite_queries_match_oracle(query, graph):
    expected = canonical(make_engine("reference").execute(query, graph).rows)
    for engine in PAPER_ENGINES:
        report = make_engine(engine).execute(query, graph)
        assert canonical(report.rows) == expected, engine
