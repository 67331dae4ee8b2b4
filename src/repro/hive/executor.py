"""Relational-style (Hive) query execution over vertically partitioned triples.

Two modes reproduce the paper's baselines:

* **naive** — each grouping subquery compiled independently: one
  multiway same-key join cycle per star with ≥2 triple patterns, one
  cycle per star-join, one grouping cycle with partial aggregation, and
  a final map-only combination.  Early projection prunes columns not
  needed downstream.
* **mqo** — the Le et al. multi-query-optimization rewrite: the
  composite graph pattern (secondary properties as LEFT OUTER joins) is
  evaluated once and materialized as an intermediate table **with all
  columns** (Hive's lack of complex views prevents early projection —
  the paper's Section 2.2 observation), then per subquery a DISTINCT
  extraction cycle and an aggregation cycle run over it.

Joins compile to map-only cycles when every non-streamed input fits
under the map-join threshold, mirroring Hive 0.12's conditional tasks —
decided at run time from actual file sizes, which is why this module is
a stepwise *executor* rather than a static planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.query_model import (
    AnalyticalQuery,
    GroupingSubquery,
    PropKey,
    StarPattern,
    prop_key_of,
)
from repro import obs
from repro.ambient import PLANNER
from repro.core.results import EngineConfig, Row
from repro.errors import OverlapError, PlanningError
from repro.mapreduce import cost
from repro.mapreduce.cost import _POINTER, estimate_size
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import MapReduceRunner, WorkflowStats
from repro.ntga.composite import CanonicalSubquery, build_composite_n
from repro.ntga.engine import deliver_rows
from repro.ntga.physical import AggRow, finish_group
from repro.ntga.planner import build_result_join
from repro.hive.tables import VPStore
from repro.rdf.terms import IRI, Term, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.aggregates import AccumulatorTuple
from repro.sparql.expressions import (
    Expression,
    evaluate_filter,
    expression_variables,
    term_value,
)


def _compatible_merge(left: Row, right: Row) -> Row | None:
    # Rows carry their size estimate from birth (see Row): the merge
    # extends the left size by the entries actually added.  A variable
    # bound on both sides keeps the left term — the terms compare equal,
    # so every simulated byte count, comparison, and rendered result is
    # unchanged by not replacing it.
    merged = Row(left)
    left_size = getattr(left, "_size", None)
    incremental = type(left_size) is int and cost.SIZE_CACHE_ENABLED
    added = 0
    for variable, term in right.items():
        existing = merged.get(variable)
        if existing is not None:
            if existing != term:
                return None
            continue
        merged[variable] = term
        if incremental:
            # Variables and terms are slotted value objects; peek their
            # _size cache directly and only call into the estimator on a
            # cold instance.
            size = variable._size
            added += size if size is not None else estimate_size(variable)
            size = term._size
            added += size if size is not None else estimate_size(term)
    if incremental:
        merged._size = left_size + added
    return merged


def _vp_row(tp: TriplePattern, record: tuple, filters: Sequence[Expression]) -> Row | None:
    """Convert one VP-table record to a solution row for *tp*.

    Type-table records are 1-tuples ``(subject,)``; others are
    ``(subject, object)``.  Returns None when a concrete component or a
    pushed filter rejects the record.
    """
    row = Row()
    subject = record[0]
    size = _POINTER
    if isinstance(tp.subject, Variable):
        row[tp.subject] = subject
        part = tp.subject._size
        size += part if part is not None else estimate_size(tp.subject)
        part = subject._size
        size += part if part is not None else estimate_size(subject)
    elif tp.subject != subject:
        return None
    if len(record) > 1:
        obj = record[1]
        if isinstance(tp.object, Variable):
            existing = row.get(tp.object)
            if existing is not None:
                if existing != obj:
                    return None
            else:
                row[tp.object] = obj
                part = tp.object._size
                size += part if part is not None else estimate_size(tp.object)
                part = obj._size
                size += part if part is not None else estimate_size(obj)
        elif tp.object != obj:
            return None
    for expression in filters:
        if not evaluate_filter(expression, row):
            return None
    if cost.SIZE_CACHE_ENABLED:
        row._size = size
    return row


def _vp_row_builder(tp: TriplePattern, filters: Sequence[Expression]):
    """A per-pattern specialization of :func:`_vp_row`.

    A VP scan converts every record of a table through the same pattern,
    so the pattern's shape (variable vs concrete components) and the
    sizes of its variables are fixed across the whole loop.  The common
    shape — distinct subject and object variables — reduces to two dict
    stores and a size add per record.  Rare shapes (concrete components,
    subject and object the same variable) and reference mode fall back
    to the generic converter, which re-derives everything per record.
    """
    subject_var, object_var = tp.subject, tp.object
    if (
        not cost.SIZE_CACHE_ENABLED
        or not isinstance(subject_var, Variable)
        or not isinstance(object_var, Variable)
        or subject_var == object_var
    ):
        return lambda record: _vp_row(tp, record, filters)
    base = _POINTER + estimate_size(subject_var)
    object_var_size = estimate_size(object_var)
    filters = tuple(filters)

    def build(record: tuple) -> Row | None:
        row = Row()
        subject = record[0]
        row[subject_var] = subject
        part = subject._size
        size = base + (part if part is not None else estimate_size(subject))
        if len(record) > 1:
            obj = record[1]
            row[object_var] = obj
            part = obj._size
            size += object_var_size + (
                part if part is not None else estimate_size(obj)
            )
        for expression in filters:
            if not evaluate_filter(expression, row):
                return None
        row._size = size
        return row

    return build


def _matched(star: StarPattern, tp: TriplePattern) -> Variable:
    """The column saying that *star*'s LEFT OUTER concrete-object
    pattern *tp* matched a subject: such a pattern binds no variable, so
    nothing else in a joined row records it (no SPARQL name has a space)."""
    return Variable(f"matched {star.subject} {prop_key_of(tp)}")


def _marking(build, marker: Variable, term: Term):
    """*build*, with every row it makes binding *marker*."""
    flag = Row({marker: term})

    def marked(record: tuple) -> Row | None:
        row = build(record)
        return None if row is None else _compatible_merge(row, flag)

    return marked


@dataclass(frozen=True)
class _BoundFilter:
    """A pseudo-filter requiring a variable to be bound (MQO α check)."""

    variable: Variable


def _pushable(filters: Sequence[Expression], tp: TriplePattern) -> list[Expression]:
    if not isinstance(tp.object, Variable):
        return []
    return [f for f in filters if expression_variables(f) == frozenset((tp.object,))]


def _project(row: Row, keep: frozenset[Variable] | None) -> Row:
    if keep is None:
        return row
    projected = Row()
    if cost.SIZE_CACHE_ENABLED:
        size = _POINTER
        for v, t in row.items():
            if v in keep:
                projected[v] = t
                part = v._size
                size += part if part is not None else estimate_size(v)
                part = t._size
                size += part if part is not None else estimate_size(t)
        projected._size = size
        return projected
    for v, t in row.items():
        if v in keep:
            projected[v] = t
    return projected


@dataclass
class _JobCounter:
    value: int = 0

    def next(self, label: str) -> str:
        self.value += 1
        return f"{label}-{self.value}"


class HiveExecutor:
    """Stepwise compilation + execution of one analytical query."""

    def __init__(
        self,
        hdfs: HDFS,
        store: VPStore,
        runner: MapReduceRunner,
        config: EngineConfig,
        mode: str,
        prefix: str = "hive",
    ):
        if mode not in ("naive", "mqo"):
            raise PlanningError(f"unknown Hive mode {mode!r}")
        self.hdfs = hdfs
        self.store = store
        self.runner = runner
        self.config = config
        self.mode = mode
        self.prefix = prefix
        self.stats = WorkflowStats()
        self._counter = _JobCounter()
        # Resolved once at construction: under "rule" the runtime
        # map-join decisions keep the fixed byte threshold (the goldens'
        # behavior); under "cost"/"auto" they are priced by the cost
        # model instead (see CostModel.prefer_map_join).
        self.planner = PLANNER.resolve(config.planner)

    # -- bookkeeping -----------------------------------------------------------

    def _run(self, job: MapReduceJob) -> str:
        self.stats.jobs.append(self.runner.run_job(job, self.stats.counters))
        return job.output

    def _size(self, path: str) -> int:
        return self.hdfs.read(path).size_bytes

    def _mapjoin_fits(self, side_paths: Sequence[str]) -> bool:
        return all(self._size(p) <= self.config.mapjoin_threshold for p in side_paths)

    def _raw(self, path: str) -> int:
        return self.hdfs.read(path).raw_bytes

    def _mapjoin_pays(self, streamed: str, side_paths: Sequence[str]) -> bool:
        """The map-join decision for one join.

        Rule planner: Hive 0.12's fixed small-table threshold.
        Cost/auto planner: price the broadcast (side tables replicated
        to every map task) against the shuffled join and take the
        cheaper — the threshold's blind spot in both directions (tiny
        streams where a broadcast always pays, huge map counts where
        replication swamps it) is exactly what the planner fixes.
        """
        if self.planner == "rule":
            return self._mapjoin_fits(side_paths)
        return self.config.cost_model.prefer_map_join(
            self.config.cluster,
            streamed_bytes=self._raw(streamed),
            side_bytes=sum(self._raw(p) for p in side_paths),
        )

    # -- star formation ------------------------------------------------------------

    def _star_formation(
        self,
        star: StarPattern,
        filters: Sequence[Expression],
        keep: frozenset[Variable] | None,
        optional_keys: frozenset[PropKey] = frozenset(),
        label: str = "star",
    ) -> str:
        """Multiway same-subject join of a star's VP tables (1 MR cycle,
        or map-only when the non-streamed tables fit in memory).

        ``optional_keys`` marks triple patterns joined LEFT OUTER (the
        MQO composite's secondary properties).
        """
        entries = []  # (tp, path, pushed filters, optional?)
        for tp in star.patterns:
            key = prop_key_of(tp)
            optional = key in optional_keys
            # Nothing is pushed into a LEFT OUTER side: dropping the rows
            # a filter rejects there leaves the variable unbound instead
            # (``!BOUND(?x)`` would hold for every subject); the filter
            # is evaluated over the joined rows.
            pushed = [] if optional else _pushable(filters, tp)
            entries.append((tp, self.store.path_for(key), pushed, optional))
        by_path: dict[str, list[int]] = {}
        for index, (_, path, _, _) in enumerate(entries):
            by_path.setdefault(path, []).append(index)
        builders = [
            _vp_row_builder(tp, pushed)
            if not optional or isinstance(tp.object, Variable)
            else _marking(_vp_row_builder(tp, pushed), _matched(star, tp), tp.object)
            for tp, _, pushed, optional in entries
        ]
        output = f"{self.prefix}/{self._counter.next(label)}"

        required = [i for i, e in enumerate(entries) if not e[3]]
        optional = [i for i, e in enumerate(entries) if e[3]]

        def assemble(rows_by_tp: dict[int, list[Row]]) -> Iterable[Row]:
            if any(not rows_by_tp.get(i) for i in required):
                return
            combos: list[Row] = [Row()]
            for index in required + optional:
                rows = rows_by_tp.get(index) or []
                if not rows and index in optional:
                    continue  # left outer: keep combos unextended
                next_combos = []
                for combo in combos:
                    for row in rows:
                        merged = _compatible_merge(combo, row)
                        if merged is not None:
                            next_combos.append(merged)
                combos = next_combos
                if not combos:
                    return
            for combo in combos:
                yield _project(combo, keep)

        sizes = {path: self._size(path) for path in by_path}
        # LEFT OUTER semantics: the streamed (outer) table must back a
        # required triple pattern, else subjects missing from an optional
        # table would never be seen.
        required_paths = {entries[i][1] for i in required}
        # Scan candidates in by_path (insertion) order so size ties break
        # the same way in every process — set iteration is hash-seeded
        # and the choice leaks into job structure and counters.
        streamed = max(
            (path for path in by_path if path in required_paths),
            key=lambda p: sizes[p],
        )
        side_paths = [p for p in by_path if p != streamed]
        single_table = not side_paths

        if single_table:
            # One property (possibly several tps on it): a map-only scan.
            def scan_mapper(record: Any) -> Iterable[Row]:
                rows_by_tp: dict[int, list[Row]] = {}
                for index in by_path[streamed]:
                    row = builders[index](record)
                    rows_by_tp[index] = [row] if row is not None else []
                yield from assemble(rows_by_tp)

            job = MapReduceJob(
                name=f"{self.prefix}:{label}:scan",
                inputs=(streamed,),
                output=output,
                mapper=scan_mapper,
                labels=("star-scan",),
            )
            return self._run(job)

        if self._mapjoin_pays(streamed, side_paths):
            def mapper_factory(side_data: dict[str, list[Any]]):
                index_by_tp: dict[int, dict[Term, list[Row]]] = {}
                for path, records in side_data.items():
                    for tp_index in by_path[path]:
                        build = builders[tp_index]
                        table: dict[Term, list[Row]] = {}
                        for record in records:
                            row = build(record)
                            if row is not None:
                                table.setdefault(record[0], []).append(row)
                        index_by_tp[tp_index] = table

                def mapper(record: Any) -> Iterable[Row]:
                    subject = record[0]
                    rows_by_tp: dict[int, list[Row]] = {}
                    for tp_index in by_path[streamed]:
                        row = builders[tp_index](record)
                        rows_by_tp[tp_index] = [row] if row is not None else []
                    for tp_index, table in index_by_tp.items():
                        rows_by_tp[tp_index] = table.get(subject, [])
                    yield from assemble(rows_by_tp)

                return mapper

            job = MapReduceJob(
                name=f"{self.prefix}:{label}:map-join",
                inputs=(streamed,),
                output=output,
                mapper_factory=mapper_factory,
                side_inputs=tuple(side_paths),
                labels=("star-map-join",),
            )
            return self._run(job)

        def mapper(tagged: Any) -> Iterable[tuple[Term, tuple[int, Row]]]:
            path, record = tagged
            for tp_index in by_path[path]:
                row = builders[tp_index](record)
                if row is not None:
                    yield record[0], (tp_index, row)

        def reducer(subject: Term, values: list) -> Iterable[Row]:
            rows_by_tp: dict[int, list[Row]] = {}
            for tp_index, row in values:
                rows_by_tp.setdefault(tp_index, []).append(row)
            yield from assemble(rows_by_tp)

        job = MapReduceJob(
            name=f"{self.prefix}:{label}:reduce-join",
            inputs=tuple(by_path),
            output=output,
            mapper=mapper,
            reducer=reducer,
            tag_inputs=True,
            labels=("star-reduce-join",),
        )
        return self._run(job)

    # -- binary join of row sets ---------------------------------------------------

    def _join_rows(
        self,
        left_path: str,
        right_path: str,
        right_tp: TriplePattern | None,
        variable: Variable,
        filters: Sequence[Expression],
        keep: frozenset[Variable] | None,
        label: str = "join",
    ) -> str:
        """One star-join cycle (reduce-side, or map-only via map-join)."""
        output = f"{self.prefix}/{self._counter.next(label)}"
        pushed = _pushable(filters, right_tp) if right_tp is not None else []
        right_build = (
            _vp_row_builder(right_tp, pushed) if right_tp is not None else None
        )

        def to_right_row(record: Any) -> Row | None:
            if right_build is None:
                return record if variable in record else None
            return right_build(record)

        # Map-join streams the larger side and broadcasts the smaller.
        stream_left = self._size(left_path) >= self._size(right_path)
        streamed, side = (
            (left_path, right_path) if stream_left else (right_path, left_path)
        )
        if self.planner == "rule":
            mapjoin = (
                self._size(right_path) <= self.config.mapjoin_threshold
                or self._size(left_path) <= self.config.mapjoin_threshold
            )
        else:
            mapjoin = self._mapjoin_pays(streamed, (side,))

        if mapjoin:

            def mapper_factory(side_data: dict[str, list[Any]]):
                table: dict[Term, list[Row]] = {}
                for record in side_data[side]:
                    # The side is the right source when the left rows are
                    # streamed, and vice versa.
                    converted = to_right_row(record) if stream_left else (
                        record if variable in record else None
                    )
                    if converted is not None and variable in converted:
                        table.setdefault(converted[variable], []).append(converted)

                def mapper(record: Any) -> Iterable[Row]:
                    row = record if stream_left else to_right_row(record)
                    if row is None:
                        return
                    key = row.get(variable)
                    if key is None:
                        return
                    for match in table.get(key, ()):
                        merged = _compatible_merge(row, match)
                        if merged is not None:
                            yield _project(merged, keep)

                return mapper

            job = MapReduceJob(
                name=f"{self.prefix}:{label}:map-join",
                inputs=(streamed,),
                output=output,
                mapper_factory=mapper_factory,
                side_inputs=(side,),
                labels=("star-join", "map-join"),
            )
            return self._run(job)

        def mapper(tagged: Any) -> Iterable[tuple[Term, tuple[str, Row]]]:
            path, record = tagged
            if path == left_path:
                key = record.get(variable)
                if key is not None:
                    yield key, ("L", record)
            else:
                row = to_right_row(record)
                if row is not None and variable in row:
                    yield row[variable], ("R", row)

        def reducer(key: Term, values: list) -> Iterable[Row]:
            lefts = [row for tag, row in values if tag == "L"]
            rights = [row for tag, row in values if tag == "R"]
            for left in lefts:
                for right in rights:
                    merged = _compatible_merge(left, right)
                    if merged is not None:
                        yield _project(merged, keep)

        job = MapReduceJob(
            name=f"{self.prefix}:{label}:reduce-join",
            inputs=(left_path, right_path),
            output=output,
            mapper=mapper,
            reducer=reducer,
            tag_inputs=True,
            labels=("star-join",),
        )
        return self._run(job)

    # -- grouping/aggregation -----------------------------------------------------

    def _grouping(
        self,
        rows_path: str,
        group_by: tuple[Variable, ...],
        output_group_by: tuple[Variable, ...],
        aggregates,
        filters: Sequence[Expression],
        label: str = "group",
        having: Expression | None = None,
    ) -> str:
        """One grouping-aggregation cycle with mapper partial aggregation.

        *having* filters finished groups at reduce output (HiveQL HAVING);
        it also applies to the GROUP-BY-ALL default row."""
        output = f"{self.prefix}/{self._counter.next(label)}"
        agg_specs = [(a.func, a.distinct) for a in aggregates]

        def passes(record: dict, condition: Any) -> bool:
            if isinstance(condition, _BoundFilter):
                return record.get(condition.variable) is not None
            return evaluate_filter(condition, record)

        def mapper(record: Any) -> Iterable[tuple[tuple, dict]]:
            if not isinstance(record, dict):
                return
            if filters and not all(passes(record, f) for f in filters):
                return
            yield tuple(record.get(v) for v in group_by), record

        def step(partial: AccumulatorTuple, record: dict) -> None:
            for accumulator, agg in zip(partial.accumulators, aggregates):
                if agg.variable is None:
                    accumulator.update(None)
                    continue
                term = record.get(agg.variable)
                if term is None:
                    continue
                value = term_value(term)
                accumulator.update(value.value if isinstance(value, IRI) else value)

        def reducer(key: tuple, values: list) -> Iterable[AggRow]:
            row = finish_group(
                0, output_group_by, key, AccumulatorTuple.merged(values).accumulators,
                aggregates, having,
            )
            if row is not None:
                yield row

        job = MapReduceJob(
            name=f"{self.prefix}:{label}:group-by",
            inputs=(rows_path,),
            output=output,
            mapper=mapper,
            fold=(lambda record: AccumulatorTuple.fresh(agg_specs), step),
            reducer=reducer,
            labels=("group-by",),
        )
        path = self._run(job)
        if not group_by and not self.hdfs.read(path).records:
            # SPARQL's GROUP-BY-ALL default row over empty input.
            default = finish_group(
                0, (), (), AccumulatorTuple.fresh(agg_specs).accumulators, aggregates, having
            )
            if default is not None:
                self.hdfs.write(path, [default])
        return path

    # -- DISTINCT extraction (MQO phase 2a) -----------------------------------------

    def _extraction(
        self,
        composite_rows: str,
        subquery: CanonicalSubquery,
        label: str,
        matched: tuple[Variable, ...],
    ) -> str:
        """Extract one original pattern's distinct solutions from the
        materialized composite table (a full MR cycle: DISTINCT needs a
        shuffle); *matched* are the columns of the LEFT OUTER
        concrete-object patterns it requires."""
        output = f"{self.prefix}/{self._counter.next(label)}"
        variables: set[Variable] = set()
        optional_vars: set[Variable] = set()
        for star in subquery.stars:
            variables |= star.variables()
            for pattern in star.patterns:
                if star.is_optional(pattern) and isinstance(pattern.object, Variable):
                    optional_vars.add(pattern.object)
        ordered = tuple(sorted(variables, key=lambda v: v.name))
        required = tuple(v for v in ordered if v not in optional_vars) + matched
        filters = subquery.filters

        def mapper(record: Any) -> Iterable[tuple[tuple, None]]:
            if not isinstance(record, dict):
                return
            if any(record.get(v) is None for v in required):
                return  # an OPTIONAL branch this pattern requires is unbound
            if filters and not all(evaluate_filter(f, record) for f in filters):
                return
            # OPTIONAL variables participate in the DISTINCT key as None.
            yield tuple((v, record.get(v)) for v in ordered), None

        def reducer(key: tuple, values: list) -> Iterable[Row]:
            yield Row((variable, term) for variable, term in key if term is not None)

        job = MapReduceJob(
            name=f"{self.prefix}:{label}:extract-distinct",
            inputs=(composite_rows,),
            output=output,
            mapper=mapper,
            reducer=reducer,
            labels=("mqo-extract",),
        )
        return self._run(job)

    # -- subquery pipelines ----------------------------------------------------------

    def _join_order(self, subquery_pattern) -> list:
        """BFS star order over the join graph (matches the NTGA planner)."""
        edges = subquery_pattern.star_joins()
        joined = {0}
        order = []
        remaining = list(edges)
        while len(joined) < len(subquery_pattern.stars):
            connecting = [
                e for e in remaining if (e.left_star in joined) != (e.right_star in joined)
            ]
            if not connecting:
                raise PlanningError("graph pattern is not connected")
            edge = connecting[0]
            new_star = edge.right_star if edge.left_star in joined else edge.left_star
            order.append((new_star, edge))
            joined.add(new_star)
            remaining = [e for e in remaining if not (
                e.left_star in joined and e.right_star in joined
            )]
        return order

    def _evaluate_pattern(
        self,
        stars: Sequence[StarPattern],
        optional_keys: Sequence[frozenset[PropKey]],
        pattern,
        filters: Sequence[Expression],
        needed: frozenset[Variable] | None,
        tag: str,
    ) -> str:
        """Compile and run one graph pattern -- *pattern*'s join graph
        over *stars*, star *i* joining ``optional_keys[i]`` LEFT OUTER:
        every multi-pattern star formed in index order, star 0 formed
        if it was not, then the BFS join chain.

        *needed* drives early projection (join variables of pending
        joins are retained automatically); ``None`` keeps every column.
        """
        order = self._join_order(pattern)
        pending = frozenset(edge.variable for _, edge in order)

        def form(index: int) -> str:
            return self._star_formation(
                stars[index],
                filters,
                None if needed is None else needed | pending,
                optional_keys=optional_keys[index],
                label=f"{tag}-star{index}",
            )

        formed = {
            index: form(index) for index, star in enumerate(stars) if len(star.patterns) >= 2
        }
        current = formed[0] if 0 in formed else form(0)
        remaining = set(pending)
        for step, (new_star, edge) in enumerate(order):
            remaining.discard(edge.variable)
            if new_star in formed:
                right_path, right_tp = formed[new_star], None
            else:  # a star of one triple pattern joins as its VP table
                right_tp = stars[new_star].patterns[0]
                right_path = self.store.path_for(prop_key_of(right_tp))
            current = self._join_rows(
                current,
                right_path,
                right_tp,
                edge.variable,
                filters,
                None if needed is None else needed | remaining | {edge.variable},
                label=f"{tag}-join{step}",
            )
        return current

    def _run_naive(self, query: AnalyticalQuery) -> str:
        agg_outputs: list[str] = []
        for index, subquery in enumerate(query.subqueries):
            needed: set[Variable] = set(subquery.group_by)
            needed |= {a.variable for a in subquery.aggregates if a.variable is not None}
            for expression in subquery.pattern.filters:
                needed |= expression_variables(expression)
            pattern = subquery.pattern
            rows = self._evaluate_pattern(
                pattern.stars,
                [star.optional_props for star in pattern.stars],
                pattern,
                pattern.filters,
                frozenset(needed),
                f"sq{index}",
            )
            agg_outputs.append(
                self._grouping(
                    rows,
                    subquery.group_by,
                    subquery.group_by,
                    subquery.aggregates,
                    subquery.pattern.filters,
                    label=f"sq{index}-group",
                    having=subquery.having,
                )
            )
        return self._combine(query, tuple(agg_outputs))

    def _run_mqo(self, query: AnalyticalQuery) -> str:
        if len(query.subqueries) < 2:
            return self._run_naive(query)
        try:
            composite = build_composite_n(query.subqueries)
        except OverlapError:
            obs.event("rewrite-fallback", {"planner": "hive-mqo", "to": "hive-naive"})
            return self._run_naive(query)

        shared = set(composite.subqueries[0].filters)
        for subquery in composite.subqueries[1:]:
            shared &= set(subquery.filters)
        # Keep the first subquery's filter order (tuple(set) order is
        # hash-seeded and would leak into pushed-filter placement).
        shared_filters = tuple(
            dict.fromkeys(f for f in composite.subqueries[0].filters if f in shared)
        )
        # Phase 1: evaluate the composite pattern, LEFT OUTER on secondary
        # properties, and materialize it with every column (no early
        # projection — it must serve both original patterns).
        composite_rows = self._evaluate_pattern(
            [composite_star.pattern for composite_star in composite.stars],
            [composite_star.p_sec for composite_star in composite.stars],
            composite.composite_graph_pattern(),
            shared_filters,
            None,
            "mqo",
        )

        # Phase 2: per original pattern, DISTINCT extraction + aggregation.
        # A pattern whose variables cover the whole composite needs no
        # extraction cycle: no other pattern's exclusive (optional)
        # property can multiply its rows, so α-filtering fuses into the
        # aggregation's map phase.  This is what lets MQO evaluate
        # identical-pattern queries (e.g. MG6) without dedup cycles.
        composite_vars = composite.composite_graph_pattern().variables()
        stars = composite.stars
        agg_outputs: list[str] = []
        for subquery in composite.subqueries:
            subquery_vars: set[Variable] = set()
            optional_vars: set[Variable] = set()
            for star in subquery.stars:
                subquery_vars |= star.variables()
                for pattern in star.patterns:
                    if star.is_optional(pattern) and isinstance(pattern.object, Variable):
                        optional_vars.add(pattern.object)
            # The secondary concrete-object patterns this subquery
            # requires: their match is a column of the composite rows.
            matched = tuple(
                _matched(stars[index].pattern, tp)
                for star, index in zip(subquery.stars, subquery.star_indices)
                for tp in stars[index].pattern.patterns
                if not isinstance(tp.object, Variable)
                and prop_key_of(tp) in stars[index].p_sec & star.required_props()
            )
            if subquery_vars >= composite_vars:
                bound_required = tuple(
                    sorted(subquery_vars - optional_vars, key=lambda v: v.name)
                ) + matched
                filters = subquery.filters + tuple(
                    _BoundFilter(v) for v in bound_required
                )
                agg_outputs.append(
                    self._grouping(
                        composite_rows,
                        subquery.group_by,
                        subquery.output_group_by,
                        subquery.aggregates,
                        filters,
                        label=f"mqo-group{subquery.subquery_id}",
                        having=subquery.having,
                    )
                )
                continue
            extracted = self._extraction(
                composite_rows, subquery, f"mqo-extract{subquery.subquery_id}", matched
            )
            agg_outputs.append(
                self._grouping(
                    extracted,
                    subquery.group_by,
                    subquery.output_group_by,
                    subquery.aggregates,
                    (),  # filters already applied during extraction
                    label=f"mqo-group{subquery.subquery_id}",
                    having=subquery.having,
                )
            )
        return self._combine(query, tuple(agg_outputs))

    # -- final combination -------------------------------------------------------------

    def _combine(self, query: AnalyticalQuery, agg_outputs: tuple[str, ...]) -> str:
        if len(agg_outputs) == 1 and not query.outer_extends:
            return agg_outputs[0]
        output = f"{self.prefix}/result"
        job = build_result_join(
            f"{self.prefix}:final-combination",
            query,
            [(path, None) for path in agg_outputs],
            output,
        )
        self._run(job)
        return output

    # -- entry point --------------------------------------------------------------------

    def execute(self, query: AnalyticalQuery) -> tuple[list[Row], str]:
        """Run the query; returns (rows, final output path)."""
        if self.mode == "naive":
            final = self._run_naive(query)
        else:
            final = self._run_mqo(query)
        return deliver_rows(self.hdfs, query, final), final
