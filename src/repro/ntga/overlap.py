"""Overlap detection between star and graph patterns (Defs 3.1, 3.2).

Two stars overlap when their property sets intersect and their
``rdf:type`` constraints agree.  Two graph patterns overlap when there
is a one-to-one correspondence between their stars such that matched
stars overlap and every join edge is *role-equivalent* (same joining
property, same subject/object role on both endpoints) — the AQ3 example
in Figure 3 fails exactly this test (object-subject vs object-object
join).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query_model import GraphPattern, StarJoin, StarPattern
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern


def stars_overlap(star1: StarPattern, star2: StarPattern) -> bool:
    """Definition 3.1.

    The type condition is applied symmetrically: because the composite
    star must serve both original stars, a type constraint present in
    one star and absent (or different) in the other prevents sharing.
    """
    props1, props2 = star1.props(), star2.props()
    if not props1 & props2:
        return False
    return star1.type_keys() == star2.type_keys()


def role_equivalent(
    variable1: Variable,
    pattern1: TriplePattern,
    variable2: Variable,
    pattern2: TriplePattern,
) -> bool:
    """Role-equivalence of join variables (Section 3).

    Requires the joining triple patterns to agree on the property
    component and the variables to play the same role.
    """
    if pattern1.prop() is None or pattern1.prop() != pattern2.prop():
        return False
    return pattern1.role_of(variable1) == pattern2.role_of(variable2)


def _edges_by_pair(pattern: GraphPattern) -> dict[tuple[int, int], list[StarJoin]]:
    edges: dict[tuple[int, int], list[StarJoin]] = {}
    for join in pattern.star_joins():
        edges.setdefault((join.left_star, join.right_star), []).append(join)
    return edges


def _candidate_patterns(star: StarPattern, variable: Variable) -> list[TriplePattern]:
    return [tp for tp in star.patterns if variable in tp.variables()]


def _ends_equivalent(
    star_a: StarPattern, var_a: Variable, star_b: StarPattern, var_b: Variable
) -> bool:
    """Existential role-equivalence across candidate joining patterns.

    When the join variable is a star's subject it occurs in every triple
    pattern of that star; any property-matching pair witnesses
    equivalence (the paper's AQ2 example picks the ``ty`` pair).
    """
    return any(
        role_equivalent(var_a, tp_a, var_b, tp_b)
        for tp_a in _candidate_patterns(star_a, var_a)
        for tp_b in _candidate_patterns(star_b, var_b)
    )


def _edge_matches(
    pattern1: GraphPattern,
    pattern2: GraphPattern,
    edge1: StarJoin,
    edge2: StarJoin,
    flipped: bool,
) -> bool:
    """Check role-equivalence of one GP1 edge against one GP2 edge.

    ``flipped`` means the star correspondence maps edge1's left star to
    edge2's right star (the edge orientation differs).
    """
    star1_left = pattern1.stars[edge1.left_star]
    star1_right = pattern1.stars[edge1.right_star]
    star2_left = pattern2.stars[edge2.left_star]
    star2_right = pattern2.stars[edge2.right_star]
    if flipped:
        star2_left, star2_right = star2_right, star2_left
    return _ends_equivalent(
        star1_left, edge1.variable, star2_left, edge2.variable
    ) and _ends_equivalent(star1_right, edge1.variable, star2_right, edge2.variable)


@dataclass(frozen=True)
class StarCorrespondence:
    """A verified star mapping between two overlapping graph patterns.

    ``pairs[i]`` is the index of GP2's star matched with GP1's star i.
    """

    pairs: tuple[int, ...]

    def gp2_index(self, gp1_index: int) -> int:
        return self.pairs[gp1_index]


def _join_structure_compatible(
    pattern1: GraphPattern, pattern2: GraphPattern, pairs: tuple[int, ...]
) -> bool:
    edges1 = _edges_by_pair(pattern1)
    edges2 = _edges_by_pair(pattern2)

    mapped_edges1 = set()
    for (a, b), joins in edges1.items():
        alpha, beta = pairs[a], pairs[b]
        key, flipped = ((alpha, beta), False) if alpha < beta else ((beta, alpha), True)
        counterpart = edges2.get(key)
        if counterpart is None:
            return False
        for edge in joins:
            if not any(
                _edge_matches(pattern1, pattern2, edge, other, flipped)
                for other in counterpart
            ):
                return False
        mapped_edges1.add(key)
    # Every GP2 edge must also have a GP1 counterpart (same join graph).
    return mapped_edges1 == set(edges2)


def _backtrack(
    pattern1: GraphPattern,
    pattern2: GraphPattern,
    candidates: list[list[int]],
    assignment: list[int],
    used: set[int],
) -> StarCorrespondence | None:
    """Extend *assignment* (GP2 star per GP1 star, so far) to a full,
    join-compatible bijection.  A module-level function on purpose: a
    recursive closure refers to itself through its own cell, a cycle that
    strands both patterns until a collection finds them."""
    index = len(assignment)
    if index == len(candidates):
        pairs = tuple(assignment)
        if _join_structure_compatible(pattern1, pattern2, pairs):
            return StarCorrespondence(pairs)
        return None
    for option in candidates[index]:
        if option in used:
            continue
        used.add(option)
        assignment.append(option)
        result = _backtrack(pattern1, pattern2, candidates, assignment, used)
        if result is not None:
            return result
        assignment.pop()
        used.discard(option)
    return None


def find_correspondence(
    pattern1: GraphPattern, pattern2: GraphPattern
) -> StarCorrespondence | None:
    """Definition 3.2: find an overlap-preserving star bijection.

    Returns None when the patterns do not overlap.  Patterns with
    different star counts never overlap under this definition (each
    star must have a distinct counterpart for the composite rewrite).
    """
    if len(pattern1.stars) != len(pattern2.stars):
        return None
    n = len(pattern1.stars)
    candidates = [
        [j for j in range(n) if stars_overlap(pattern1.stars[i], pattern2.stars[j])]
        for i in range(n)
    ]
    if any(not options for options in candidates):
        return None
    return _backtrack(pattern1, pattern2, candidates, [], set())


def patterns_overlap(pattern1: GraphPattern, pattern2: GraphPattern) -> bool:
    """Convenience wrapper over :func:`find_correspondence`."""
    return find_correspondence(pattern1, pattern2) is not None
