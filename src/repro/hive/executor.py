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
a stepwise *executor* rather than a static planner.  Each star-formation
and star-join job compiles its plan when it is built: VP records travel
raw, and a solution Row is built only for a combination that survives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Iterable, Sequence

from repro.core.query_model import (
    AnalyticalQuery,
    GraphPattern,
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
from repro.mapreduce.cost import _POINTER, COLUMN_BYTES, estimate_size
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


class _Shipped:
    """A record crossing the shuffle -- a raw VP record or a Row -- with
    the tag of the source it came from.  It is sized as the ``(tag, Row)``
    pair it stands for, so every shuffle byte is the pair's."""

    __slots__ = ("tag", "record", "_size")

    def __init__(self, tag: Any, record: Any, size: int):
        self.tag = tag
        self.record = record
        self._size = size

    def estimated_size(self) -> int:
        return self._size


def _sized(items: Iterable[Any]) -> int:
    """The summed size of terms, peeking their caches."""
    total = 0
    for item in items:
        size = item._size
        total += size if size is not None else estimate_size(item)
    return total


def _sized_row(pairs: list[tuple[Variable, Term]]) -> Row:
    """One result Row, its size summed from its terms and column charges."""
    row = Row(pairs)
    if cost.SIZE_CACHE_ENABLED:
        total = _POINTER + COLUMN_BYTES * len(pairs)
        for _, term in pairs:
            size = term._size
            total += size if size is not None else estimate_size(term)
        row._size = total
    return row


def _joined(first: dict, second: dict, keep: frozenset[Variable] | None) -> Row | None:
    """*first* and *second* merged and projected on *keep* (None: every
    column) in one Row, *first*'s bindings first; None when they bind a
    shared variable to different terms."""
    pairs = [(v, t) for v, t in first.items() if keep is None or v in keep]
    for variable, term in second.items():
        existing = first.get(variable)
        if existing is None:
            if keep is None or variable in keep:
                pairs.append((variable, term))
        elif existing is not term and existing != term:
            return None
    return _sized_row(pairs)


def _binds(tp: TriplePattern) -> tuple[tuple[Variable, int], ...]:
    """The variables a VP record of *tp* binds, with the record column
    (0 subject, 1 object) each is read from, in binding order."""
    binds = []
    if isinstance(tp.subject, Variable):
        binds.append((tp.subject, 0))
    if isinstance(tp.object, Variable) and tp.object != tp.subject:
        binds.append((tp.object, 1))
    return tuple(binds)


def _accepts(tp: TriplePattern, pushed: Sequence[Expression]):
    """The test a VP record must pass to match *tp* -- its concrete
    components, a variable repeated as subject and object, and the
    filters pushed onto its object, on the one binding they read -- or
    None when every record matches.

    Type-table records are 1-tuples ``(subject,)``; others are
    ``(subject, object)``."""
    subject, obj = tp.subject, tp.object
    tests = []
    if not isinstance(subject, Variable):
        tests.append(lambda record: record[0] == subject)
    if not isinstance(obj, Variable):
        tests.append(lambda record: len(record) < 2 or record[1] == obj)
    elif obj == subject:
        tests.append(lambda record: record[1] == record[0])
    for expression in pushed:
        tests.append(
            lambda record, e=expression: evaluate_filter(e, {obj: record[1]})
        )
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]
    return lambda record: all(test(record) for test in tests)


def _matched(star: StarPattern, tp: TriplePattern) -> Variable:
    """The column saying that *star*'s LEFT OUTER concrete-object
    pattern *tp* matched a subject: such a pattern binds no variable, so
    nothing else in a joined row records it (no SPARQL name has a space).
    A second distinct pattern of the same property gets its own column."""
    key = prop_key_of(tp)
    same = [pattern for pattern in star.patterns if prop_key_of(pattern) == key]
    nth = same.index(tp)
    return Variable(f"matched {star.subject} {key}" + (f" {nth}" if nth else ""))


@dataclass(frozen=True)
class _BoundFilter:
    """A pseudo-filter requiring a variable to be bound (MQO α check)."""

    variable: Variable


def _pushable(filters: Sequence[Expression], tp: TriplePattern) -> list[Expression]:
    if not isinstance(tp.object, Variable):
        return []
    return [f for f in filters if expression_variables(f) == frozenset((tp.object,))]


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
        MQO composite's secondary properties).  Records travel raw; the
        plan compiled here reads each subject's combinations of them
        straight into the projected Rows.
        """
        entries = []  # (path, record test, what a record binds, optional?)
        for tp in star.patterns:
            key = prop_key_of(tp)
            optional = key in optional_keys
            # Nothing is pushed into a LEFT OUTER side: dropping the rows
            # a filter rejects there leaves the variable unbound instead
            # (``!BOUND(?x)`` would hold for every subject); the filter
            # is evaluated over the joined rows.
            pushed = [] if optional else _pushable(filters, tp)
            binds = _binds(tp)
            if optional and not isinstance(tp.object, Variable):
                binds += ((_matched(star, tp), tp.object),)  # a constant column
            entries.append((self.store.path_for(key), _accepts(tp, pushed), binds, optional))
        by_path: dict[str, list[int]] = {}
        for index, (path, _, _, _) in enumerate(entries):
            by_path.setdefault(path, []).append(index)
        required = [i for i, e in enumerate(entries) if not e[3]]
        optional = [i for i, e in enumerate(entries) if e[3]]
        output = f"{self.prefix}/{self._counter.next(label)}"

        # A record shipped for pattern i is sized as the (i, Row) pair
        # it replaces: tuple and Row pointers, the int tag, the column
        # charges, the constants, and the terms it carries.
        shipping = [
            (
                2 * _POINTER + 8 + COLUMN_BYTES * len(binds)
                + _sized(c for _, c in binds if type(c) is not int),
                tuple(c for _, c in binds if type(c) is int),
            )
            for _, _, binds, _ in entries
        ]

        def ship(index: int, record: tuple) -> _Shipped:
            size, columns = shipping[index]
            for column in columns:
                part = record[column]._size
                size += part if part is not None else estimate_size(record[column])
            return _Shipped(index, record, size)

        subject = star.subject if isinstance(star.subject, Variable) else None
        plans: dict[tuple[int, ...], tuple] = {}

        def compile_plan(present: tuple[int, ...]) -> tuple:
            """Per position of ``required + present optional``: where
            each variable is read from (``(position, column)``; constants
            sit in one extra position), which repeats must be equal --
            not the star subject, which the grouping already makes equal
            -- and which first bindings survive *keep*, in binding order."""
            positions = required + list(present)
            constants: list[Term] = []
            seen: dict[Variable, tuple[int, int]] = {}
            checks, columns = [], []
            for k, index in enumerate(positions):
                for variable, column in entries[index][2]:
                    if type(column) is int:
                        at = (k, column)
                    else:
                        at = (len(positions), len(constants))
                        constants.append(column)
                    if variable in seen:
                        if variable != subject:
                            checks.append(seen[variable] + at)
                    else:
                        seen[variable] = at
                        if keep is None or variable in keep:
                            columns.append((variable,) + at)
            extra = ([tuple(constants)],) if constants else ()
            return positions, extra, tuple(checks), tuple(columns)

        def assemble(groups: list) -> Iterable[Row]:
            """The projected Rows of one subject; *groups* holds each
            pattern's matching records."""
            for index in required:
                if not groups[index]:
                    return
            present = tuple(index for index in optional if groups[index])
            plan = plans.get(present)
            if plan is None:
                plan = plans[present] = compile_plan(present)
            positions, constants, checks, columns = plan
            for chosen in product(*[groups[index] for index in positions], *constants):
                if checks and any(chosen[a][b] != chosen[c][d] for a, b, c, d in checks):
                    continue
                yield _sized_row([(v, chosen[k][c]) for v, k, c in columns])

        def matching(index: int, records: Iterable[tuple]) -> list[tuple]:
            test = entries[index][1]
            return list(records) if test is None else [r for r in records if test(r)]

        sizes = {path: self._size(path) for path in by_path}
        # LEFT OUTER semantics: the streamed (outer) table must back a
        # required triple pattern, else subjects missing from an optional
        # table would never be seen.
        required_paths = {entries[i][0] for i in required}
        # Scan candidates in by_path (insertion) order so size ties break
        # the same way in every process — set iteration is hash-seeded
        # and the choice leaks into job structure and counters.
        streamed = max(
            (path for path in by_path if path in required_paths),
            key=lambda p: sizes[p],
        )
        side_paths = [p for p in by_path if p != streamed]
        groups_of = [None] * len(entries)
        # A mapper sees one streamed record at a time: a table backing
        # two patterns of the star (a property named twice) must be
        # grouped by subject, so it is joined reduce-side.
        several = len(by_path[streamed]) > 1

        if not side_paths and not several:
            # A star of one triple pattern: a map-only scan.
            def scan_mapper(record: Any) -> Iterable[Row]:
                groups = list(groups_of)
                for index in by_path[streamed]:
                    groups[index] = matching(index, (record,))
                yield from assemble(groups)

            job = MapReduceJob(
                name=f"{self.prefix}:{label}:scan",
                inputs=(streamed,),
                output=output,
                mapper=scan_mapper,
                labels=("star-scan",),
            )
            return self._run(job)

        if not several and side_paths and self._mapjoin_pays(streamed, side_paths):
            def mapper_factory(side_data: dict[str, list[Any]]):
                tables: dict[int, dict[Term, list[tuple]]] = {}
                for path, records in side_data.items():
                    for index in by_path[path]:
                        table = tables[index] = {}
                        for record in matching(index, records):
                            table.setdefault(record[0], []).append(record)

                def mapper(record: Any) -> Iterable[Row]:
                    groups = list(groups_of)
                    for index in by_path[streamed]:
                        groups[index] = matching(index, (record,))
                    for index, table in tables.items():
                        groups[index] = table.get(record[0], [])
                    yield from assemble(groups)

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

        def mapper(tagged: Any) -> Iterable[tuple[Term, _Shipped]]:
            path, record = tagged
            for index in by_path[path]:
                test = entries[index][1]
                if test is None or test(record):
                    yield record[0], ship(index, record)

        def reducer(key: Term, values: list) -> Iterable[Row]:
            groups: list = [[] for _ in entries]
            for shipped in values:
                groups[shipped.tag].append(shipped.record)
            yield from assemble(groups)

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
        """One star-join cycle (reduce-side, or map-only via map-join).

        The right source is a formed star's Rows, or (*right_tp*) a VP
        table whose records are read through the pattern compiled here;
        every surviving pair becomes one projected Row."""
        output = f"{self.prefix}/{self._counter.next(label)}"
        if right_tp is None:
            test, binds = None, ()
        else:
            test, binds = _accepts(right_tp, _pushable(filters, right_tp)), _binds(right_tp)
        key_column = dict(binds).get(variable)
        # A VP record shipped right is sized as the ("R", Row) pair it
        # replaces: tuple and Row pointers, the tag, the column charges.
        right_base = 2 * _POINTER + 2 + COLUMN_BYTES * len(binds)

        def right_key(record: Any) -> Term | None:
            """The join term of one right record; None when it has none."""
            if right_tp is None:
                return record.get(variable)
            if key_column is None or (test is not None and not test(record)):
                return None
            return record[key_column]

        def right_row(record: Any) -> dict:
            if right_tp is None:
                return record
            return {v: record[c] for v, c in binds}

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
                # The side is the right source when the left rows are
                # streamed, and vice versa.
                table: dict[Term, list[dict]] = {}
                for record in side_data[side]:
                    key = right_key(record) if stream_left else record.get(variable)
                    if key is not None:
                        table.setdefault(key, []).append(
                            right_row(record) if stream_left else record
                        )

                def mapper(record: Any) -> Iterable[Row]:
                    key = record.get(variable) if stream_left else right_key(record)
                    if key is None:
                        return
                    row = record if stream_left else right_row(record)
                    for match in table.get(key, ()):
                        joined = _joined(row, match, keep)
                        if joined is not None:
                            yield joined

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

        def mapper(tagged: Any) -> Iterable[tuple[Term, _Shipped]]:
            path, record = tagged
            if path == left_path:
                key = record.get(variable)
                if key is not None:
                    yield key, _Shipped("L", record, _POINTER + 2 + estimate_size(record))
                return
            key = right_key(record)
            if key is None:
                return
            if right_tp is None:
                size = _POINTER + 2 + estimate_size(record)
            else:
                size = right_base + _sized([record[c] for _, c in binds])
            yield key, _Shipped("R", record, size)

        def reducer(key: Term, values: list) -> Iterable[Row]:
            lefts = [shipped.record for shipped in values if shipped.tag == "L"]
            rights = [right_row(shipped.record) for shipped in values if shipped.tag == "R"]
            for left in lefts:
                for right in rights:
                    joined = _joined(left, right, keep)
                    if joined is not None:
                        yield joined

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
        # A composite star keeps one pattern per property; each star here
        # also carries every other distinct pattern its subqueries name,
        # so a property named twice binds one column per pattern.
        stars = []
        for index, composite_star in enumerate(composite.stars):
            patterns = dict.fromkeys(composite_star.pattern.patterns)
            for subquery in composite.subqueries:
                for star, at in zip(subquery.stars, subquery.star_indices):
                    if at == index:
                        patterns.update(dict.fromkeys(star.patterns))
            stars.append(replace(composite_star.pattern, patterns=tuple(patterns)))
        pattern = GraphPattern(tuple(stars))
        composite_rows = self._evaluate_pattern(
            stars,
            [composite_star.p_sec for composite_star in composite.stars],
            pattern,
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
        composite_vars = pattern.variables()
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
                _matched(stars[index], tp)
                for star, index in zip(subquery.stars, subquery.star_indices)
                for tp in star.patterns
                if not isinstance(tp.object, Variable)
                and prop_key_of(tp) in composite.stars[index].p_sec & star.required_props()
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
