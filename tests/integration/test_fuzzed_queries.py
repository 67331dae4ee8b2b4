"""The SPARQL front door, fuzzed: mutated catalog texts.

Every catalog query is mutated -- a star loses or gains a ``property
object`` pair (drawn from its dataset's catalog stars), a pair's object
becomes a constant, or a whitespace token is inserted or deleted -- and
run on its dataset's ``tiny`` graph by the reference evaluator and the
four paper engines.  The outcome is rows or a
:class:`~repro.errors.ReproError`, never any other exception, and when
every engine answers, the paper engines answer the reference evaluator's
rows.  Derandomized, so a run is a fixed set of texts; 60 examples.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.catalog import CATALOG
from repro.core.engines import PAPER_ENGINES, run_query, to_analytical
from repro.datasets import bsbm, chem2bio2rdf, pubmed
from repro.errors import ReproError
from tests.conftest import canonical_sorted_rows


def is_star(line: str) -> bool:
    """A line of triple patterns sharing a subject: ``?s p o ; p o .``"""
    line = line.strip()
    return line.startswith("?") and line.endswith(" .") and "{" not in line


def star_parts(line: str) -> tuple[str, list[str]]:
    """``(subject, ["p o", ...])`` of a star line."""
    subject, first = line.strip()[:-2].split(" ", 1)
    return subject, first.split(" ; ")


# Pools are sorted: set order is hash-seeded.
PAIRS = {
    dataset: sorted(
        {
            pair
            for query in CATALOG.values()
            if query.dataset == dataset
            for line in query.sparql.splitlines()
            if is_star(line)
            for pair in star_parts(line)[1]
        }
    )
    for dataset in ("bsbm", "chem", "pubmed")
}
CONSTANTS = sorted(
    {pair.split(" ", 1)[1] for pairs in PAIRS.values() for pair in pairs}
    - {pair.split(" ", 1)[1] for pairs in PAIRS.values() for pair in pairs if "?" in pair}
) + ["<http://nope/x>", '"News"']
TOKENS = sorted({token for query in CATALOG.values() for token in query.sparql.split()})


@st.composite
def mutated_queries(draw) -> tuple[str, str]:
    qid = draw(st.sampled_from(sorted(CATALOG)))
    pool = PAIRS[CATALOG[qid].dataset]
    lines = CATALOG[qid].sparql.splitlines()
    stars = [index for index, line in enumerate(lines) if is_star(line)]
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.sampled_from(stars))
        subject, pairs = star_parts(lines[index])
        at = draw(st.integers(0, len(pairs) - 1))
        operation = draw(st.sampled_from(["drop", "add", "constant", "token"]))
        if operation == "drop" and len(pairs) > 1:
            del pairs[at]
        elif operation == "add":
            pairs.insert(at, draw(st.sampled_from(pool)))
        elif operation == "constant":
            pairs[at] = f"{pairs[at].split(' ', 1)[0]} {draw(st.sampled_from(CONSTANTS))}"
        elif operation == "token":
            tokens = lines[index].split()
            position = draw(st.integers(0, len(tokens) - 1))
            if draw(st.booleans()):
                del tokens[position]
            else:
                tokens.insert(position, draw(st.sampled_from(TOKENS)))
            lines[index] = "  " + " ".join(tokens)
            continue
        lines[index] = f"  {subject} {' ; '.join(pairs)} ."
    return qid, "\n".join(lines)


@pytest.fixture(scope="module")
def tiny_graphs():
    return {
        "bsbm": bsbm.generate(bsbm.preset("tiny")),
        "chem": chem2bio2rdf.generate(chem2bio2rdf.preset("tiny")),
        "pubmed": pubmed.generate(pubmed.preset("tiny")),
    }


def outcome(text, graph, engine):
    """The rows, or the typed error the engine rejected the text with."""
    try:
        return canonical_sorted_rows(run_query(text, graph, engine=engine).rows)
    except ReproError as error:
        return error


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_queries())
@example(("G6", CATALOG["G6"].sparql.replace("MAPK signaling pathway", "MAPK) signaling")))
@example(
    (
        "MG18",
        CATALOG["MG18"].sparql.replace(
            '?p pm:pub_type "Journal Article" ;',
            '?p pm:pub_type "Journal Article" ; pm:journal <http://nope/x> ;',
        ),
    )
)
@example(
    (
        "G8",
        CATALOG["G8"].sparql.replace("chem:Score ?s1 ;", "chem:Score ?s0 ; chem:Score ?s1 ;"),
    )
)
def test_a_mutated_query_is_answered_alike_or_rejected(tiny_graphs, mutation):
    qid, text = mutation
    graph = tiny_graphs[CATALOG[qid].dataset]
    answers = {engine: outcome(text, graph, engine) for engine in ("reference", *PAPER_ENGINES)}
    if any(isinstance(answer, ReproError) for answer in answers.values()):
        return
    for engine in PAPER_ENGINES:
        assert answers[engine] == answers["reference"], engine


def names_a_property_twice(text: str) -> bool:
    return any(
        len(star.props()) < len(star.patterns)
        for subquery in to_analytical(text).subqueries
        for star in subquery.pattern.stars
    )


def test_hive_mqo_answers_a_star_naming_one_property_twice(tiny_graphs):
    """Found by the fuzzer above.  The composite star keeps the first
    pattern of each property key, so a subquery whose star names a
    property twice had a variable the composite rows never bound: its
    extraction required it and dropped every row (``cntT`` 0, not 116).
    Hive's composite stars now carry every distinct pattern."""
    base = CATALOG["MG11"].sparql
    text = base.replace(
        "?g1 pm:grant_agency ?ga1 .", "?g1 pm:grant_agency ?ga1 ; pm:grant_agency ?ga2 ."
    )
    assert text != base and names_a_property_twice(text)
    graph = tiny_graphs["pubmed"]
    assert outcome(text, graph, "hive-mqo") == outcome(text, graph, "reference")
