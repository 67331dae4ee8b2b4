"""ORDER BY edge cases, and LIMIT / OFFSET, as
:func:`~repro.core.reference.apply_result_modifiers` applies them: the
one result-modifier step every engine's rows go through."""

from repro.core.query_model import parse_analytical
from repro.core.reference import apply_result_modifiers
from repro.rdf.terms import IRI, Literal, Variable

G, V = Variable("g"), Variable("v")


def modified(rows, modifiers):
    query = parse_analytical(
        "SELECT ?g ?v (COUNT(?s) AS ?n) { ?s <urn:g> ?g ; <urn:v> ?v } GROUP BY ?g ?v "
        + modifiers
    )
    return apply_result_modifiers(query, rows)


def column(rows, variable=V):
    return [row.get(variable) for row in rows]


def test_mixed_types_order_by_type_rank():
    values = [Literal.from_python(10), Literal("text"), IRI("urn:other"), Literal.from_python(2)]
    ordered = modified([{V: value} for value in values], "ORDER BY ?v")
    # Numbers before strings before IRIs.
    assert column(ordered) == [values[3], values[0], values[1], values[2]]


def test_descending_strings():
    rows = [{V: Literal(text)} for text in ("beta", "alpha", "gamma")]
    ordered = modified(rows, "ORDER BY DESC(?v)")
    assert [term.lexical for term in column(ordered)] == ["gamma", "beta", "alpha"]


def test_multi_key_ordering():
    rows = [
        {G: Literal("x"), V: Literal.from_python(2)},
        {G: Literal("x"), V: Literal.from_python(1)},
        {G: Literal("w"), V: Literal.from_python(9)},
    ]
    ordered = modified(rows, "ORDER BY ?g DESC(?v)")
    pairs = [(row[G].lexical, row[V].python_value()) for row in ordered]
    assert pairs == [("w", 9), ("x", 2), ("x", 1)]


def test_unbound_sorts_first():
    rows = [{G: Literal("x"), V: Literal("extra")}, {G: Literal("y")}]
    assert column(modified(rows, "ORDER BY ?v")) == [None, Literal("extra")]


def test_limit_and_offset_slice_the_ordered_rows():
    rows = [{V: Literal.from_python(age)} for age in (30, 25, 35)]
    for modifiers, expected in [
        ("ORDER BY ?v LIMIT 1 OFFSET 1", [30]),
        ("ORDER BY DESC(?v) LIMIT 2", [35, 30]),
        ("ORDER BY ?v OFFSET 2", [35]),
    ]:
        assert [term.python_value() for term in column(modified(rows, modifiers))] == expected
