"""GraphStats-driven cardinality estimation for NTGA plans.

The estimator answers the questions the plan enumerator prices with:
how many subject triplegroups match a star, how many survive its
constraints and pushed-down filters, how many bytes they occupy, how
star-joins multiply, and how many groups an aggregation produces.

Two estimates are *exact* by construction, which is what the property
tests pin:

* :meth:`CardinalityEstimator.star_subjects` — the number of subjects
  whose equivalence class contains every required property of the star
  — is a straight sum over
  :attr:`repro.rdf.stats.GraphStats.equivalence_class_histogram`, the
  same subset test :meth:`repro.ntga.physical.TripleGroupStore.paths_for`
  uses to select input files;
* :meth:`CardinalityEstimator.star_classes` — the per-file
  ``(stored, raw)`` byte volumes — reads the store's
  :attr:`~repro.ntga.physical.TripleGroupStore.bytes_by_class` manifest
  recorded at load time.

Everything downstream (constraint selectivity, join containment, group
counts) is a classic System-R-style approximation over per-property
statistics, and the enumerator treats it as such: the ``"auto"`` mode
only acts on estimates that clear a margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query_model import PropKey, StarPattern
from repro.ntga.composite import (
    CanonicalSubquery,
    CompositePlan,
    CompositeStar,
    object_filters,
)
from repro.ntga.operators import JoinSide
from repro.ntga.physical import TripleGroupStore, shared_prefilters
from repro.rdf.stats import GraphStats
from repro.rdf.terms import IRI, Variable

#: Selectivity of one pushed-down object filter (the traditional 1/3
#: guess for range predicates — no value histograms are kept).
FILTER_SELECTIVITY = 1.0 / 3.0

#: Distinct-value guess for a group-by variable the statistics cannot
#: locate (not a star subject, not any pattern's object).
_UNKNOWN_DISTINCT = 10.0


@dataclass(frozen=True)
class StarEstimate:
    """Cardinality/volume estimate for one composite star.

    ``ordered_keys`` is the selectivity-driven triple evaluation order
    inside the star — most selective constraint first — surfaced in the
    EXPLAIN report.  ``groups`` counts the subject triplegroups that
    survive every constraint and pushed filter; ``expansion`` is the
    solution multiplicity per surviving group (the product of
    multi-valued fanouts).
    """

    star_index: int
    #: Exact: subjects whose equivalence class ⊇ the required properties.
    subjects: int
    #: Estimated surviving triplegroups after constraints and filters.
    groups: float
    #: Estimated solutions per surviving group (fanout product).
    expansion: float
    #: Exact: total on-disk bytes of the matching EC files.
    stored_bytes: int
    #: Exact: total uncompressed bytes of the matching EC files.
    raw_bytes: int
    #: Evaluation order inside the star: ``(key, selectivity)`` pairs,
    #: most selective first.
    ordered_keys: tuple[tuple[str, float], ...]

    @property
    def filtered_bytes(self) -> float:
        """Bytes leaving TG_OptGrpFilter (surviving-fraction scan)."""
        if self.subjects <= 0:
            return 0.0
        return self.raw_bytes * min(1.0, self.groups / self.subjects)

    @property
    def bytes_per_group(self) -> float:
        if self.subjects <= 0:
            return 0.0
        return self.raw_bytes / self.subjects

    def as_dict(self) -> dict:
        return {
            "star": self.star_index,
            "subjects": self.subjects,
            "groups": round(self.groups, 3),
            "expansion": round(self.expansion, 3),
            "stored_bytes": self.stored_bytes,
            "raw_bytes": self.raw_bytes,
            "ordered_keys": [
                {"key": key, "selectivity": round(selectivity, 6)}
                for key, selectivity in self.ordered_keys
            ],
        }


class CardinalityEstimator:
    """Prices NTGA building blocks from :class:`GraphStats`.

    *store* supplies exact per-equivalence-class byte volumes when the
    triplegroups have been loaded; without it the estimator falls back
    to per-property payload bytes from the statistics.
    """

    def __init__(self, stats: GraphStats, store: TripleGroupStore | None = None):
        self.stats = stats
        self.store = store
        #: ``{path: (stored_bytes, raw_bytes)}`` of every stored file a
        #: plan can read: the manifest by path, for whoever prices a
        #: job's ``inputs`` (the empty placeholder holds nothing).
        self.stored_files: dict[str, tuple[int, int]] = {}
        if store is not None:
            self.stored_files = {
                store.paths_by_class[ec]: volumes
                for ec, volumes in store.bytes_by_class.items()
            }
            self.stored_files[store.empty_path] = (0, 0)
        #: ``id(composite) -> (composite, its star estimates)``: see
        #: :meth:`star_estimates`.
        self._by_plan: dict[int, tuple[CompositePlan, list[StarEstimate]]] = {}

    # -- per-property lookups ------------------------------------------

    def distinct_subjects(self, prop: IRI) -> int:
        found = self.stats.property_stats(prop)
        return found.distinct_subjects if found is not None else 0

    def distinct_objects(self, prop: IRI) -> int:
        found = self.stats.property_stats(prop)
        return found.distinct_objects if found is not None else 0

    def avg_fanout(self, prop: IRI) -> float:
        found = self.stats.property_stats(prop)
        return found.avg_fanout if found is not None else 1.0

    def payload_bytes(self, prop: IRI) -> int:
        found = self.stats.property_stats(prop)
        return found.payload_bytes if found is not None else 0

    # -- star-level estimates ------------------------------------------

    def star_subjects(self, star: StarPattern) -> int:
        """Subjects whose equivalence class covers the star's required
        properties — **exact**, by the same subset test the store uses
        to pick input files."""
        required = frozenset(key.property for key in star.required_props())
        return sum(
            count
            for ec, count in self.stats.equivalence_class_histogram.items()
            if required <= ec
        )

    def star_classes(self, p_prim: frozenset[PropKey]) -> dict[frozenset, tuple[int, int]]:
        """``{equivalence class: (stored_bytes, raw_bytes)}`` of the EC
        files a star with primaries *p_prim* reads."""
        required = frozenset(key.property for key in p_prim)
        if self.store is not None and self.store.bytes_by_class:
            return {
                ec: volumes
                for ec, volumes in self.store.bytes_by_class.items()
                if required <= ec
            }
        # No manifest: approximate one pseudo-file from property payloads.
        total = sum(self.payload_bytes(key.property) for key in p_prim)
        return {required: (total, total)} if total else {}

    def key_selectivity(
        self,
        key: PropKey,
        constraints: dict[PropKey, object],
        pushed: dict[PropKey, list],
    ) -> float:
        """Fraction of candidate groups surviving *key*'s constraints."""
        if key.type_object is not None:
            return self.stats.class_selectivity(key.type_object)
        selectivity = 1.0
        if key in constraints:
            selectivity /= max(1, self.distinct_objects(key.property))
        expressions = pushed.get(key)
        if expressions:
            selectivity *= FILTER_SELECTIVITY ** len(expressions)
        return min(1.0, selectivity)

    def ordered_keys(
        self, composite_star: CompositeStar, prefilters: tuple = ()
    ) -> list[tuple[PropKey, float]]:
        """Selectivity-driven evaluation order inside the star: most
        selective constraint first, fanout and name as tie-breakers."""
        star = composite_star.pattern
        constraints = composite_star.constraints
        pushed = object_filters(star, tuple(prefilters))
        keys = [
            (key, self.key_selectivity(key, constraints, pushed))
            for key in sorted(star.props(), key=str)
        ]
        keys.sort(key=lambda item: (item[1], self.avg_fanout(item[0].property), str(item[0])))
        return keys

    def star_estimate(
        self,
        composite_star: CompositeStar,
        star_index: int,
        prefilters: tuple = (),
    ) -> StarEstimate:
        star = composite_star.pattern
        subjects = self.star_subjects(star)
        ordered = self.ordered_keys(composite_star, prefilters)
        groups = float(subjects)
        for _key, selectivity in ordered:
            groups *= selectivity
        expansion = 1.0
        for key in star.required_props():
            if key.type_object is None:
                expansion *= max(1.0, self.avg_fanout(key.property))
        classes = self.star_classes(composite_star.p_prim)
        stored = sum(volume[0] for volume in classes.values())
        raw = sum(volume[1] for volume in classes.values())
        return StarEstimate(
            star_index=star_index,
            subjects=subjects,
            groups=groups,
            expansion=expansion,
            stored_bytes=stored,
            raw_bytes=raw,
            ordered_keys=tuple((str(key), sel) for key, sel in ordered),
        )

    def star_estimates(self, composite: CompositePlan) -> list[StarEstimate]:
        """One :meth:`star_estimate` per star of *composite* (under the
        filters its pipeline pushes into star formation), computed once
        per plan object for this estimator's life: every job of a
        pipeline asks for them (``MapReduceJob.leaving``), and they share
        the plan their builders were handed."""
        found = self._by_plan.get(id(composite))
        if found is None:
            prefilters = shared_prefilters(composite.subqueries)
            found = self._by_plan[id(composite)] = (
                composite,
                [
                    self.star_estimate(composite_star, index, prefilters)
                    for index, composite_star in enumerate(composite.stars)
                ],
            )
        return found[1]

    # -- join and grouping estimates -----------------------------------

    def side_distinct(
        self, side: JoinSide, star_estimates: list[StarEstimate], side_rows: float
    ) -> float:
        """Distinct join-key values one side of a star-join contributes."""
        if side.role == "subject":
            star = star_estimates[side.star_index]
            distinct = max(1.0, star.groups)
        elif side.prop is not None:
            distinct = float(max(1, self.distinct_objects(side.prop.property)))
        else:
            distinct = _UNKNOWN_DISTINCT
        return max(1.0, min(distinct, max(side_rows, 1.0)))

    def join_rows(self, left_rows: float, right_rows: float, left_distinct: float, right_distinct: float) -> float:
        """Containment-assumption equi-join output estimate."""
        return left_rows * right_rows / max(left_distinct, right_distinct, 1.0)

    def group_count(
        self,
        subquery: CanonicalSubquery,
        detail_rows: float,
        star_estimates: list[StarEstimate],
    ) -> float:
        """Groups a subquery's aggregation produces over *detail_rows*
        solutions (GROUP BY ALL → exactly one)."""
        if not subquery.group_by:
            return 1.0
        product = 1.0
        for variable in subquery.group_by:
            product *= self._variable_distinct(variable, subquery, star_estimates)
        return max(1.0, min(max(detail_rows, 1.0), product))

    def _variable_distinct(
        self,
        variable: Variable,
        subquery: CanonicalSubquery,
        star_estimates: list[StarEstimate],
    ) -> float:
        for star, composite_index in zip(subquery.stars, subquery.star_indices):
            if star.subject == variable:
                if composite_index < len(star_estimates):
                    return max(1.0, star_estimates[composite_index].groups)
                return _UNKNOWN_DISTINCT
            for pattern in star.patterns:
                if pattern.object == variable and not pattern.is_rdf_type():
                    return float(max(1, self.distinct_objects(pattern.property)))
        return _UNKNOWN_DISTINCT
