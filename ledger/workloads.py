"""Sizes, seeded input generators and the four workloads of the perf ledger.

Every size (products, passes, cycles, requests) is a constant in
:class:`Sizes`; none is a command-line option.  The program under test
is reached only through the stable surface imported in
:func:`load_program` plus ``python -m repro <cmd>`` subprocesses, so a
refactor that keeps that surface keeps the ledger running.

Every workload splits one *pass* into named parts and assigns three of
them a role that means the same thing on every workload:

* ``ntga``    -- the paper's engine on its default single-cluster path;
* ``control`` -- the comparison path an NTGA-only change must leave flat;
* ``variant`` -- the second dispatch path through the same layers
  (sharded driver, resilient serve path).

What the seed changes is chosen so that the *amount of work* is the same
on every seed, because the spread between runs on different seeds is
held to the same bound as a regression.  Sizes, query ids and the
request order never change.  The generated data does: the seed picks one
of ``DATA_SEEDS[workload]``, generator seeds chosen (by ``pools.py``)
because their passes read, shuffle and return within about a percent of
the same volume -- on arbitrary generator seeds that volume, and the
wall time with it, moves by 5-15%.  Arrival times and command order are
drawn from the seed itself.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

from calibrate import Calibrator

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(LEDGER_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(LEDGER_DIR, "out")

WORKLOADS = ("bsbm-scale", "cold-cli", "catalog-sweep", "serve-mix")

#: Seed the committed baseline was taken on; seed 29 is held out: no size
#: or constant in this directory was tuned while looking at it.
BASELINE_SEED = 11
HELD_OUT_SEED = 29

#: Generator seeds per workload, equal in work (see the module docstring;
#: re-derive with ``python3 ledger/pools.py <workload>`` if a generator's
#: output ever changes).  serve-mix pairs each with the phase-B fault
#: seed under which exactly ``FULL.serve_retries`` units are retried and
#: every request is still answered.
DATA_SEEDS: dict[str, tuple] = {
    "bsbm-scale": (3, 6, 8, 30, 38, 42, 49, 60),
    "cold-cli": (4, 8, 20, 23, 27, 40, 44, 60),
    "catalog-sweep": (13, 38, 42, 48, 57, 70, 71, 81),
    "serve-mix": ((4, 9), (5, 6), (7, 8), (9, 22), (13, 16), (17, 33), (20, 28), (32, 36)),
}


def data_seed(workload: str, seed: int) -> Any:
    pool = DATA_SEEDS[workload]
    return pool[seed % len(pool)]


# ---------------------------------------------------------------------------
# Sizes: the one place
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    label: str
    #: bsbm-scale graph (offers_per_product=4); 800 products ~ 17K triples.
    bsbm_products: int
    bsbm_vendors: int
    #: cold-cli ``--data`` file: the 500k preset's shape, seeded.
    cli_products: int
    cli_vendors: int
    #: requests per serve-mix stream, and how many units phase B must
    #: retry (lowest, highest) for a fault seed to be accepted.
    serve_requests: int
    serve_retries: tuple[int, int]
    #: catalog-sweep runs every n-th catalog query (1 = all 26).
    sweep_stride: int
    #: floor on timed passes, whatever ``--seconds`` says.
    min_passes: int
    #: set-up repetitions (``setup_s`` is their median).
    setup_reps: int
    #: traced passes and probe repetitions of a ``--trace 1`` run.
    traced_passes: int
    probe_reps: int
    #: growth ladder (``products``), bsbm-scale traced run only.
    growth_rungs: tuple[int, ...]
    #: raw seconds a run may take besides ``--seconds`` (set-up, oracle,
    #: interpreter start); the budget guard aborts at twice the total.
    overhead_budget_s: float
    #: raw seconds a traced run is sized for.
    traced_budget_s: float


FULL = Sizes(
    label="full",
    bsbm_products=800,
    bsbm_vendors=40,
    cli_products=400,
    cli_vendors=20,
    serve_requests=400,
    serve_retries=(4, 4),
    sweep_stride=1,
    min_passes=7,
    setup_reps=3,
    traced_passes=1,
    probe_reps=2,
    growth_rungs=(50, 200, 800),
    overhead_budget_s=15.0,
    traced_budget_s=60.0,
)

SMOKE = Sizes(
    label="smoke",
    bsbm_products=60,
    bsbm_vendors=8,
    cli_products=60,
    cli_vendors=8,
    serve_requests=120,
    serve_retries=(1, 99),
    sweep_stride=6,
    min_passes=1,
    setup_reps=1,
    traced_passes=1,
    probe_reps=1,
    growth_rungs=(30, 60, 120),
    overhead_budget_s=15.0,
    traced_budget_s=30.0,
)

SIZES = {"full": FULL, "smoke": SMOKE}

#: Frozen simulated arrival rate of serve-mix (requests per simulated
#: second): below the simulated capacity of two workers, so the backlog
#: does not grow.
SERVE_RATE = 0.2
SERVE_WINDOW = 40.0
SERVE_CACHE = 8
#: Request order of a serve-mix stream: a Zipf(1.0) multiset shuffled
#: with this constant, *not* with the run's seed, so cache hits,
#: evictions and merges are the same work on every seed.
SERVE_ORDER_SEED = 20160315
#: Phase B fault plan.  Tasks retry once inside the simulator, so a job
#: aborts only when the same task fails twice; the serve layer's retry
#: then re-runs the unit.
FAULT_RATE = 0.05
FAULT_ATTEMPTS = 2


# ---------------------------------------------------------------------------
# The program under test
# ---------------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import the stable surface.  This list is the contract a refactor
    must keep (see README, "Stable surface")."""
    from repro import EngineConfig, run_query
    from repro.bench.catalog import CATALOG
    from repro.datasets import bsbm, chem2bio2rdf, pubmed
    from repro.mapreduce import ClusterConfig, FaultPlan
    from repro.serve import QueryService, ResilienceConfig, ServeRequest, ServiceConfig

    return SimpleNamespace(
        EngineConfig=EngineConfig,
        run_query=run_query,
        CATALOG=CATALOG,
        bsbm=bsbm,
        chem2bio2rdf=chem2bio2rdf,
        pubmed=pubmed,
        ClusterConfig=ClusterConfig,
        FaultPlan=FaultPlan,
        QueryService=QueryService,
        ResilienceConfig=ResilienceConfig,
        ServeRequest=ServeRequest,
        ServiceConfig=ServiceConfig,
    )


def engine_config(program: SimpleNamespace, **overrides: Any) -> Any:
    """The ledger's own environment: 10 nodes, 64 KB blocks, no map-joins."""
    return program.EngineConfig(
        cluster=program.ClusterConfig(nodes=10, block_size=64 * 1024),
        mapjoin_threshold=512,
        **overrides,
    )


def child_env() -> dict[str, str]:
    """Environment of every process the ledger starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = env.get("LEDGER_HASHSEED", "0")
    env["PYTHONPATH"] = SRC_DIR
    return env


# ---------------------------------------------------------------------------
# Timing and checking
# ---------------------------------------------------------------------------


class Clock:
    """Times one region: ``gc.collect()``, the call, then the closing
    calibration bracket (which opens the next region's)."""

    def __init__(self) -> None:
        self.calibrator = Calibrator()
        self.calibrator.mark()

    def measure(self, call: Callable[[], Any]) -> tuple[Any, float, float]:
        """Returns (result, raw seconds, calibrated seconds)."""
        gc.collect()
        start = time.perf_counter()
        result = call()
        raw = time.perf_counter() - start
        return result, raw, raw * self.calibrator.factor()


def row_multiset(rows: list) -> Counter:
    return Counter(frozenset(row.items()) for row in rows)


def rows_digest(rows: list) -> str:
    """Order-sensitive fingerprint of answer rows."""
    hasher = hashlib.sha256()
    for row in rows:
        rendered = ";".join(
            f"{variable.name}={term.n3()}"
            for variable, term in sorted(row.items(), key=lambda item: item[0].name)
        )
        hasher.update(rendered.encode("utf-8") + b"\x1e")
    return hasher.hexdigest()


@dataclass
class PassResult:
    """One pass: wall per part, exact counters, and the ops that failed."""

    raw: dict[str, float] = field(default_factory=dict)
    cal: dict[str, float] = field(default_factory=dict)
    exact: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: raw seconds of single operations, for per-op statistics.
    op_raw: list[float] = field(default_factory=list)

    def add_exact(self, name: str, amount: float) -> None:
        self.exact[name] = self.exact.get(name, 0) + amount


def report_counters(result: PassResult, report: Any, part: str) -> None:
    """Fold one ExecutionReport's simulated counters into the pass."""
    stats = report.stats
    result.add_exact("sim.cost_s", report.cost_seconds)
    result.add_exact(f"sim.cost_s.{part}", report.cost_seconds)
    result.add_exact("sim.answer_rows", len(report.rows))
    if stats is None:  # the reference evaluator runs no jobs
        return
    result.add_exact("sim.cycles", stats.cycles)
    result.add_exact("sim.input_records", sum(job.input_records for job in stats.jobs))
    result.add_exact("sim.map_only_cycles", stats.map_only_cycles)
    result.add_exact("sim.shuffle_bytes", stats.total_shuffle_bytes)
    result.add_exact("sim.materialized_bytes", stats.total_materialized_bytes)
    result.add_exact("sim.exchange_bytes", stats.total_exchange_bytes)
    result.add_exact(
        "sim.hdfs_bytes_read", stats.counters.as_dict().get("hdfs_bytes_read", 0)
    )


# ---------------------------------------------------------------------------
# Engine-op workloads: bsbm-scale and catalog-sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineOp:
    qid: str
    text: str
    dataset: str
    engine: str
    config: Any
    #: "multiset" = rows equal the reference evaluator's as a multiset;
    #: "ordered" = rows equal the unsharded run's, in order.
    check: str = "multiset"


class EngineWorkload:
    """A pass runs every part's queries through ``repro.run_query``."""

    name = ""
    roles: dict[str, tuple[str, ...]] = {}

    def __init__(self, program: SimpleNamespace, sizes: Sizes, seed: int):
        self.program = program
        self.sizes = sizes
        self.seed = seed
        self.graphs: dict[str, Any] = {}
        self.parts: dict[str, list[EngineOp]] = {}
        self.expected: dict[tuple[str, str], Counter] = {}
        self.ordered: dict[tuple[str, str], list] = {}
        #: (config, report) of the last pass, for the traced run's phases.
        self.reports: list[tuple[Any, Any]] = []

    # -- per-workload --------------------------------------------------------

    def graph_makers(self) -> dict[str, Callable[[], Any]]:
        """dataset -> a call that generates its graph afresh."""
        raise NotImplementedError

    def make_parts(self) -> dict[str, list[EngineOp]]:
        raise NotImplementedError

    # -- protocol --------------------------------------------------------------

    def prepare(self) -> None:
        """Nothing to choose: the seed fixes the inputs."""

    def generate(self) -> None:
        self.graphs = {dataset: make() for dataset, make in self.graph_makers().items()}
        self.parts = self.make_parts()

    def warm_up(self) -> None:
        """One cold op per (part, graph): derives every layout, statistic
        and partition the timed passes reuse."""
        seen: set[tuple[str, str]] = set()
        for part, ops in self.parts.items():
            for op in ops:
                if (part, op.dataset) not in seen:
                    seen.add((part, op.dataset))
                    self._run(op)

    def build_oracle(self) -> None:
        cfg = engine_config(self.program)
        for ops in self.parts.values():
            for op in ops:
                key = (op.dataset, op.qid)
                if key not in self.expected:
                    graph = self.graphs[op.dataset]
                    reference = self.program.run_query(op.text, graph, engine="reference")
                    self.expected[key] = row_multiset(reference.rows)
                if op.check == "ordered" and key not in self.ordered:
                    unsharded = self.program.run_query(
                        op.text, self.graphs[op.dataset], engine=op.engine, config=cfg
                    )
                    self.ordered[key] = unsharded.rows

    def _run(self, op: EngineOp) -> Any:
        return self.program.run_query(
            op.text, self.graphs[op.dataset], engine=op.engine, config=op.config
        )

    def _run_part(self, ops: list[EngineOp]) -> list[tuple[EngineOp, Any, float]]:
        done = []
        for op in ops:
            start = time.perf_counter()
            try:
                report: Any = self._run(op)
            except Exception as error:  # an op that raises is a failed op
                report = error
            done.append((op, report, time.perf_counter() - start))
        return done

    def check(self, op: EngineOp, report: Any) -> str | None:
        """None when the answer is right, else what is wrong."""
        if isinstance(report, Exception):
            return f"{op.engine} {op.qid}: raised {type(report).__name__}: {report}"
        key = (op.dataset, op.qid)
        if row_multiset(report.rows) != self.expected[key]:
            return f"{op.engine} {op.qid}: rows differ from the reference evaluator"
        if op.check == "ordered" and report.rows != self.ordered[key]:
            return f"{op.engine} {op.qid}: sharded rows differ from unsharded in order"
        return None

    def run_pass(self, clock: Clock) -> PassResult:
        result = PassResult()
        self.reports = []
        for part, ops in self.parts.items():
            done, raw, cal = clock.measure(lambda ops=ops: self._run_part(ops))
            result.raw[part], result.cal[part] = raw, cal
            for op, report, seconds in done:
                result.attempted += 1
                result.op_raw.append(seconds)
                problem = self.check(op, report)
                if problem is not None:
                    result.failures.append(problem)
                    continue
                report_counters(result, report, part)
                self.reports.append((op.config, report))
        return result


class BsbmScale(EngineWorkload):
    name = "bsbm-scale"
    roles = {"ntga": ("ntga",), "control": ("hive",), "variant": ("sharded",)}
    QUERIES = ("MG1", "MG2", "MG3", "MG4")

    def graph_makers(self) -> dict[str, Callable[[], Any]]:
        bsbm = self.program.bsbm
        config = bsbm.BSBMConfig(
            products=self.sizes.bsbm_products,
            vendors=self.sizes.bsbm_vendors,
            offers_per_product=4,
            seed=data_seed(self.name, self.seed),
        )
        return {"bsbm": lambda: bsbm.generate(config)}

    def make_parts(self) -> dict[str, list[EngineOp]]:
        cfg = engine_config(self.program)
        sharded = engine_config(self.program, shards=4, partitioner="hash")
        catalog = self.program.CATALOG

        def ops(engine: str, config: Any, check: str = "multiset") -> list[EngineOp]:
            return [
                EngineOp(qid, catalog[qid].sparql, "bsbm", engine, config, check)
                for qid in self.QUERIES
            ]

        return {
            "ntga": ops("rapid-analytics", cfg),
            "hive": ops("hive-naive", cfg),
            "sharded": ops("rapid-analytics", sharded, "ordered"),
        }


class CatalogSweep(EngineWorkload):
    name = "catalog-sweep"
    roles = {
        "ntga": ("ra-cost", "rapid-plus"),
        "control": ("hive-naive", "hive-mqo", "reference"),
        "variant": ("ra-sharded",),
    }

    def graph_makers(self) -> dict[str, Callable[[], Any]]:
        program, seed = self.program, data_seed(self.name, self.seed)

        def tiny(generator: Any) -> Callable[[], Any]:
            config = dataclasses.replace(generator.preset("tiny"), seed=seed)
            return lambda: generator.generate(config)

        return {
            "bsbm": tiny(program.bsbm),
            "chem": tiny(program.chem2bio2rdf),
            "pubmed": tiny(program.pubmed),
        }

    def make_parts(self) -> dict[str, list[EngineOp]]:
        cfg = engine_config(self.program)
        queries = list(self.program.CATALOG.values())[:: self.sizes.sweep_stride]

        def ops(engine: str, config: Any, check: str = "multiset") -> list[EngineOp]:
            return [
                EngineOp(q.qid, q.sparql, q.dataset, engine, config, check)
                for q in queries
            ]

        return {
            "ra-cost": ops("rapid-analytics", engine_config(self.program, planner="cost")),
            "rapid-plus": ops("rapid-plus", cfg),
            "hive-naive": ops("hive-naive", cfg),
            "hive-mqo": ops("hive-mqo", cfg),
            "reference": ops("reference", cfg),
            "ra-sharded": ops(
                "rapid-analytics",
                engine_config(self.program, shards=2, partitioner="hash"),
                "ordered",
            ),
        }


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------

_RUN_LINE = re.compile(r"cycles=(\d+) \(map-only \d+\) simulated-cost=([0-9.]+)s")


class ColdCli:
    """Six fresh ``python -m repro`` processes per cycle."""

    name = "cold-cli"
    roles = {"ntga": ("run-ntga",), "control": ("run-hive",), "variant": ("run-sharded",)}
    #: Query ids are fixed, not drawn: a lo- and a hi-selectivity query
    #: differ several-fold in work, and the seed must not change the work.
    RUN_QUERY = "MG1"
    FILE_QUERY = "G3"

    def __init__(self, program: SimpleNamespace, sizes: Sizes, seed: int):
        self.program = program
        self.sizes = sizes
        self.seed = seed
        self.data_path = os.path.join(
            OUT_DIR, f"cold-cli-{sizes.label}-{data_seed(self.name, seed)}.nt"
        )
        self.file_graph: Any = None
        self.commands: dict[str, list[str]] = {}
        self.expected: dict[str, tuple[int, str]] = {}
        #: (config, in-process report) per ``run`` command.
        self.oracle: dict[str, tuple[Any, Any]] = {}
        self._order = random.Random(seed)

    def prepare(self) -> None:
        """Nothing to choose."""

    def make_file_graph(self) -> Any:
        bsbm = self.program.bsbm
        return bsbm.generate(
            bsbm.BSBMConfig(
                products=self.sizes.cli_products,
                vendors=self.sizes.cli_vendors,
                offers_per_product=4,
                seed=data_seed(self.name, self.seed),
            )
        )

    def generate(self) -> None:
        """The only seeded input a cold CLI call takes is its data file."""
        self.file_graph = self.make_file_graph()
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(self.data_path, "w", encoding="utf-8") as handle:
            for triple in self.file_graph:
                handle.write(triple.n3() + "\n")
        self.preset = "tiny" if self.sizes.label == "smoke" else "500k"
        run = ["run", self.RUN_QUERY, "--preset", self.preset]
        self.commands = {
            "catalog": ["catalog"],
            "explain": ["explain", "MG3", "--preset", "tiny"],
            "run-ntga": run,
            "run-hive": run + ["--engine", "hive-naive"],
            "run-sharded": run + ["--shards", "4,hash"],
            "run-ntriples": ["run", self.FILE_QUERY, "--data", self.data_path],
        }

    def warm_up(self) -> None:
        for arguments in self.commands.values():
            self._spawn(arguments)

    def build_oracle(self) -> None:
        """The in-process cycles and simulated cost each ``run`` must print."""
        program = self.program
        text = program.CATALOG[self.RUN_QUERY].sparql
        graph = program.bsbm.generate(program.bsbm.preset(self.preset))
        cases = {
            "run-ntga": (text, graph, "rapid-analytics", None),
            "run-hive": (text, graph, "hive-naive", None),
            "run-sharded": (
                text,
                graph,
                "rapid-analytics",
                program.EngineConfig(shards=4, partitioner="hash"),
            ),
            "run-ntriples": (
                program.CATALOG[self.FILE_QUERY].sparql,
                self.file_graph,
                "rapid-analytics",
                None,
            ),
        }
        for part, (query, data, engine, config) in cases.items():
            report = program.run_query(query, data, engine=engine, config=config)
            self.oracle[part] = (config or program.EngineConfig(), report)
            self.expected[part] = (report.cycles, f"{report.cost_seconds:.1f}")

    @property
    def reports(self) -> list[tuple[Any, Any]]:
        return list(self.oracle.values())

    def _spawn(self, arguments: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *arguments],
            env=child_env(),
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, part: str, done: subprocess.CompletedProcess) -> str | None:
        if done.returncode != 0:
            return f"{part}: exit {done.returncode}: {done.stderr.strip()[-200:]}"
        lines = [line for line in done.stdout.splitlines() if line.strip()]
        if part == "catalog":
            listed = {line.split()[0] for line in lines}
            missing = set(self.program.CATALOG) - listed
            return f"catalog: missing {sorted(missing)}" if missing else None
        if part == "explain":
            return None if lines else "explain: no output"
        match = _RUN_LINE.search(lines[-1]) if lines else None
        if match is None:
            return f"{part}: no cycles/cost line"
        printed = (int(match.group(1)), match.group(2))
        if printed != self.expected[part]:
            return f"{part}: printed {printed}, in-process {self.expected[part]}"
        return None

    def run_pass(self, clock: Clock) -> PassResult:
        result = PassResult()
        order = list(self.commands)
        self._order.shuffle(order)
        passed = set()
        for part in order:
            done, raw, cal = clock.measure(
                lambda part=part: self._spawn(self.commands[part])
            )
            result.raw[part], result.cal[part] = raw, cal
            result.op_raw.append(raw)
            result.attempted += 1
            problem = self.check(part, done)
            if problem is not None:
                result.failures.append(problem)
            else:
                passed.add(part)
        # Folded in command order, not run order: float sums must repeat.
        for part, (_, report) in self.oracle.items():
            if part in passed:
                report_counters(result, report, part)
        return result


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

#: Zipf rank -> query: the assay-star family (which MQO-merges) and the
#: publication queries (which do not) alternate down the ranks.
SERVE_RANKS = (
    "MG6", "G9", "MG7", "G8@50", "G8@30", "G8@70", "G8@40", "G8@60",
    "G5", "MG8", "MG10", "G6", "MG9", "G7",
)  # fmt: skip


def zipf_counts(total: int, ranks: int) -> list[int]:
    """Largest-remainder split of *total* requests over Zipf(1.0) ranks."""
    weights = [1.0 / (rank + 1) for rank in range(ranks)]
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(ranks), key=lambda r: exact[r] - counts[r], reverse=True)
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


def serve_texts(catalog: dict) -> list[tuple[str, str]]:
    """(label, SPARQL) per rank; G8's score threshold is substituted."""
    texts = []
    for label in SERVE_RANKS:
        qid, _, threshold = label.partition("@")
        text = catalog[qid].sparql
        if threshold:
            if "?s1 > 50" not in text:
                raise ValueError("G8 no longer filters on ?s1 > 50")
            text = text.replace("?s1 > 50", f"?s1 > {threshold}")
        texts.append((label, text))
    return texts


def serve_stream(seed: int, requests: int, rate: float = SERVE_RATE) -> list[tuple[int, float]]:
    """(rank, simulated arrival) per request.  The order is frozen.  The
    seed jitters each arrival inside its own ``1 / rate`` slot, so which
    requests share a batching window -- and with it every dedup and
    merge -- is the same on every seed, while latencies are not."""
    order = [
        rank
        for rank, count in enumerate(zipf_counts(requests, len(SERVE_RANKS)))
        for _ in range(count)
    ]
    random.Random(SERVE_ORDER_SEED).shuffle(order)
    jitter = random.Random(seed)
    return [
        (rank, (slot + 0.5 + jitter.uniform(-0.4, 0.4)) / rate)
        for slot, rank in enumerate(order)
    ]


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class ServeMix:
    """``QueryService.serve()`` over the seeded Chem2Bio2RDF graph."""

    name = "serve-mix"
    roles = {"ntga": ("phase-a",), "control": ("solo",), "variant": ("phase-b",)}

    def __init__(self, program: SimpleNamespace, sizes: Sizes, seed: int):
        self.program = program
        self.sizes = sizes
        self.seed = seed
        self.graph: Any = None
        self.texts = serve_texts(program.CATALOG)
        self.requests: list[Any] = []
        self.data_seed, self.fault_seed = data_seed(self.name, seed)
        self.digests: dict[str, str] = {}
        self.cfg = engine_config(program)
        self.reports: list[tuple[Any, Any]] = []

    def make_graph(self) -> Any:
        chem = self.program.chem2bio2rdf
        return chem.generate(dataclasses.replace(chem.preset("tiny"), seed=self.data_seed))

    def make_requests(self, rate: float = SERVE_RATE) -> list[Any]:
        return [
            self.program.ServeRequest(
                text=self.texts[rank][1], arrival=arrival, label=self.texts[rank][0]
            )
            for rank, arrival in serve_stream(self.seed, self.sizes.serve_requests, rate)
        ]

    def service(self, phase: str, graph: Any = None) -> Any:
        program = self.program
        engine_cfg, resilience = self.cfg, None
        if phase == "phase-b":
            engine_cfg = engine_config(
                program,
                fault_plan=program.FaultPlan(
                    seed=self.fault_seed,
                    task_failure_rate=FAULT_RATE,
                    max_attempts=FAULT_ATTEMPTS,
                ),
            )
            resilience = program.ResilienceConfig()
        return program.QueryService(
            self.graph if graph is None else graph,
            program.ServiceConfig(
                engine_config=engine_cfg,
                workers=2,
                batch_window=SERVE_WINDOW,
                result_cache_size=SERVE_CACHE,
                resilience=resilience,
            ),
        )

    def prepare(self) -> None:
        """Settle the phase-B fault seed: the first, from the pooled one
        on, under which the resilient path retries ``sizes.serve_retries``
        units and still answers every request, so no operation of the
        workload fails.  The pooled seed passes at once unless ``src/``
        changed which tasks a fault plan hits."""
        self.graph = self.make_graph()
        requests = self.make_requests()
        fewest, most = self.sizes.serve_retries
        for candidate in range(self.fault_seed, self.fault_seed + 200):
            self.fault_seed = candidate
            service = self.service("phase-b")
            responses = service.serve(requests)
            answered = all(r.status in ("ok", "degraded") for r in responses)
            if answered and fewest <= service.counter_snapshot()["retries"] <= most:
                return
        raise RuntimeError("no fault seed lets phase B retry and answer everything")

    def generate(self) -> None:
        self.graph = self.make_graph()
        self.requests = self.make_requests()

    def warm_up(self) -> None:
        for phase in ("phase-a", "phase-b"):
            self.service(phase).serve(self.requests)

    def build_oracle(self) -> None:
        """Served rows must digest like a cold solo run on a fresh graph."""
        cold = self.make_graph()
        for label, text in self.texts:
            report = self.program.run_query(text, cold, engine="rapid-analytics", config=self.cfg)
            self.digests[label] = rows_digest(report.rows)

    def check_response(self, phase: str, response: Any) -> str | None:
        if response.status not in ("ok", "degraded"):
            return f"{phase} {response.label}: {response.status} {response.error or ''}"
        if rows_digest(response.rows) != self.digests[response.label]:
            return f"{phase} {response.label}: rows differ from a cold solo run"
        return None

    def _solo(self) -> list[tuple[str, Any, float]]:
        done = []
        for label, text in self.texts:
            start = time.perf_counter()
            try:
                report: Any = self.program.run_query(
                    text, self.graph, engine="rapid-analytics", config=self.cfg
                )
            except Exception as error:
                report = error
            done.append((label, report, time.perf_counter() - start))
        return done

    def run_pass(self, clock: Clock) -> PassResult:
        result = PassResult()
        self.reports = []
        for phase in ("phase-a", "phase-b"):
            service = self.service(phase)
            responses, raw, cal = clock.measure(lambda s=service: s.serve(self.requests))
            result.raw[phase], result.cal[phase] = raw, cal
            result.attempted += len(responses)
            for response in responses:
                problem = self.check_response(phase, response)
                if problem is not None:
                    result.failures.append(problem)
            self.fold_service(result, phase, service, responses)
        done, raw, cal = clock.measure(self._solo)
        result.raw["solo"], result.cal["solo"] = raw, cal
        for label, report, seconds in done:
            result.attempted += 1
            result.op_raw.append(seconds)
            if isinstance(report, Exception):
                result.failures.append(f"solo {label}: raised {report}")
            elif rows_digest(report.rows) != self.digests[label]:
                result.failures.append(f"solo {label}: rows differ from a cold solo run")
            else:
                report_counters(result, report, "solo")
                self.reports.append((self.cfg, report))
        return result

    @staticmethod
    def fold_service(result: PassResult, phase: str, service: Any, responses: list) -> None:
        """Exact serve counters of one stream.  A failed or refused
        request has no latency and so counts as missing every limit."""
        snapshot = service.counter_snapshot()
        tag = "a" if phase == "phase-a" else "b"
        result.exact[f"serve.sim_cost_s.{tag}"] = service.executed_cost_seconds
        result.add_exact("sim.cost_s", service.executed_cost_seconds)
        result.exact[f"serve.units_executed.{tag}"] = (
            snapshot["units_solo"] + snapshot["units_batch"]
        )
        latencies = [
            r.latency if r.latency is not None else float("inf") for r in responses
        ]
        if phase == "phase-b":
            result.exact["serve.retries"] = snapshot["retries"]
            result.exact["serve.retry_success_ratio"] = (
                snapshot["retry_successes"] / snapshot["retries"]
                if snapshot["retries"]
                else 0.0
            )
            result.exact["serve.sim_p95_s.b"] = percentile(latencies, 0.95)
            return
        requests = len(responses)
        result.exact["serve.sim_p50_s"] = percentile(latencies, 0.50)
        result.exact["serve.sim_p95_s"] = percentile(latencies, 0.95)
        result.exact["serve.result_cache_hit_ratio"] = snapshot["result_cache_hits"] / requests
        plan_lookups = snapshot["plan_cache_hits"] + snapshot["plan_cache_misses"]
        result.exact["serve.plan_cache_hit_ratio"] = (
            snapshot["plan_cache_hits"] / plan_lookups if plan_lookups else 0.0
        )
        result.exact["serve.result_cache_hits"] = snapshot["result_cache_hits"]
        result.exact["serve.result_cache_evictions"] = snapshot["result_cache_evictions"]
        result.exact["serve.batch_merges"] = snapshot["batch_merges"]
        result.exact["serve.merged_request_ratio"] = (
            snapshot["batch_merged_requests"] / requests
        )
        result.exact["serve.dedup_requests"] = snapshot["dedup_requests"]
        quarter = max(1, min(100, requests // 4))
        finite = [value for value in latencies if value != float("inf")]
        result.exact["serve.sim_latency_first_s"] = sum(finite[:quarter]) / quarter
        result.exact["serve.sim_latency_last_s"] = sum(finite[-quarter:]) / quarter


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (BsbmScale, ColdCli, CatalogSweep, ServeMix)
}

#: One sentence per workload (mirrored in BENCHMARK.json).
WHY = {
    "bsbm-scale": (
        "largest in-memory graph: per-record MapReduce execution is ~99% of the work, "
        "so front-end, start-up and per-job fixed costs must not move it"
    ),
    "cold-cli": (
        "six fresh python -m repro processes per cycle: import, generation, cold layout and "
        "N-Triples load dominate, execution is small"
    ),
    "catalog-sweep": (
        "all 26 catalog queries on tiny graphs over six engine configurations: ~1000 MR jobs "
        "per pass, so per-query and per-job fixed costs dominate"
    ),
    "serve-mix": (
        "400-request Zipf stream through QueryService: windowing, caches, dedup, MQO merge, "
        "and the resilient dispatch path under injected faults"
    ),
}
