"""Deterministic metrics: Counter/Gauge/Histogram instruments.

Where :mod:`repro.obs.model` records *one execution* as a span tree,
this module aggregates *fleets of executions* — the serve layer's
request stream, every MapReduce job's cost-phase decomposition, the
planner's candidate choices — into a :class:`MetricsRegistry` of named
instruments that can answer "what is p99 simulated latency on this
workload" or "is the cardinality estimator drifting".

Determinism is the design constraint, exactly as for traces and the
serve reports: given fixed seeds, a registry snapshot must be
**byte-identical** across runs, platforms, thread counts, and
``PYTHONHASHSEED`` values.  The rules that guarantee it:

* histogram bucket boundaries are *fixed* per instrument (the default
  scheme is exponential, base 2, pinned at import time), never adapted
  to the data;
* histogram sums accumulate in integer **microseconds-style fixed
  point** (``round(value * 1e6)``), so float addition order cannot
  leak into the total;
* every export sorts metric families by name and series by label
  values — insertion order never shows;
* wall-clock instruments (the secondary clock of the dual-clock pairs,
  mirroring the PR 3 span design) are marked ``volatile`` and excluded
  from the default snapshot; only the simulated clock is exported.

Two exporters ship with the registry: :func:`snapshot_dict` (the
``repro-metrics/v1`` JSON snapshot — what ``repro serve --metrics``
writes and the CI golden pins) and :func:`render_prometheus` (text
exposition for scraping, validated by :func:`validate_prometheus`).

The installed registry is the ``registry`` slot of :mod:`repro.ambient`
(DESIGN.md §7.5): :func:`collecting` installs one, instrumented layers
read ``ambient.registry`` and pay a single attribute read when
metrics are off.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro import ambient
from repro.errors import ReproError

__all__ = [
    "DEFAULT_BUCKETS",
    "QUANTILES",
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "collecting",
    "exponential_buckets",
    "render_metrics_summary",
    "render_prometheus",
    "snapshot_dict",
    "validate_prometheus",
]

#: Schema tag of the JSON snapshot (bump on shape changes).
METRICS_SCHEMA = "repro-metrics/v1"

#: The quantiles every histogram reports in snapshots.
QUANTILES = (50, 90, 95, 99)

#: Fixed-point scale for deterministic sum accumulation.
_MICRO = 1_000_000


class MetricsError(ReproError):
    """Invalid instrument registration, labels, or snapshot input."""


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` upper bounds growing geometrically from *start*.

    The boundaries are computed as ``start * factor**i`` (one
    multiplication chain, no transcendental functions), so the tuple is
    bit-identical across platforms and libm versions.
    """
    if start <= 0.0 or factor <= 1.0 or count < 1:
        raise MetricsError(
            f"invalid bucket scheme: start={start!r} factor={factor!r} count={count!r}"
        )
    bounds = []
    upper = start
    for _ in range(count):
        bounds.append(upper)
        upper *= factor
    return tuple(bounds)


#: The default bucket scheme: 1ms to ~18h of simulated seconds, base 2.
#: Fixed at import time so committed snapshots never shift when data
#: changes; q-error histograms reuse it (q-errors are >= 1, landing in
#: the upper half).
DEFAULT_BUCKETS = exponential_buckets(0.001, 2.0, 27)


def _check_name(name: str) -> str:
    if not re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name):
        raise MetricsError(f"invalid metric name {name!r}")
    return name


class _Instrument:
    """Common shape of one labeled series."""

    __slots__ = ()

    def series_dict(self) -> dict[str, Any]:
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing integer.

    Integer-only on purpose: integer addition is associative and
    commutative, so the total is independent of increment order.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if not isinstance(amount, int) or isinstance(amount, bool):
            raise MetricsError(f"counter increments must be int, got {amount!r}")
        if amount < 0:
            raise MetricsError(f"counter increments must be >= 0, got {amount!r}")
        self.value += amount

    def series_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge(_Instrument):
    """A last-write-wins numeric level (cache sizes, hit ratios).

    Deterministic as long as the *set order* is deterministic — which it
    is everywhere the simulator writes gauges (single coordinator
    thread).  Values are rounded to 6 decimals at set time so derived
    ratios export stably.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MetricsError(f"gauge values must be numeric, got {value!r}")
        self.value = value if isinstance(value, int) else round(value, 6)

    def series_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram(_Instrument):
    """Cumulative-bucket histogram over fixed boundaries.

    Observations land in the first bucket whose upper bound is >= the
    value; values beyond the last bound count only toward the implicit
    ``+Inf`` bucket (``count``).  The sum accumulates in integer
    fixed-point (:data:`_MICRO`), so merging and multi-source recording
    cannot produce rounding that depends on arrival order.
    """

    __slots__ = ("buckets", "counts", "count", "_sum_micro")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise MetricsError(f"bucket bounds must be strictly increasing: {buckets!r}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.buckets)
        self.count = 0
        self._sum_micro = 0

    def observe(self, value: float) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MetricsError(f"histogram observations must be numeric, got {value!r}")
        self.count += 1
        self._sum_micro += round(value * _MICRO)
        for index, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[index] += 1
                break

    @property
    def sum(self) -> float:
        return self._sum_micro / _MICRO

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (associative, commutative —
        the property tests hold it to that)."""
        if other.buckets != self.buckets:
            raise MetricsError(
                "cannot merge histograms with different bucket boundaries"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self._sum_micro += other._sum_micro

    def quantile(self, percent: float) -> float:
        """Upper bound of the bucket holding the nearest-rank percentile.

        Conservative (a value <= the reported bound), deterministic, and
        0.0 on an empty histogram.  Observations above the last bound
        report ``inf`` — widen the scheme rather than trust that tail.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, -(-self.count * percent // 100))  # ceil
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return self.buckets[index]
        return float("inf")

    def series_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "counts": list(self.counts),
            "quantiles": {
                f"p{percent}": _json_number(self.quantile(percent))
                for percent in QUANTILES
            },
        }


def _json_number(value: float) -> float | str:
    """JSON has no inf; snapshots spell it ``"inf"``."""
    return "inf" if value == float("inf") else value


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric: a kind, label names, and its labeled series."""

    __slots__ = ("name", "kind", "help", "label_names", "volatile", "buckets", "series")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        volatile: bool,
        buckets: tuple[float, ...],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.volatile = volatile
        self.buckets = buckets
        self.series: dict[tuple[str, ...], _Instrument] = {}

    def labels(self, **labels: str) -> Any:
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise MetricsError(
                f"metric {self.name!r} takes labels {sorted(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        instrument = self.series.get(key)
        if instrument is None:
            if self.kind == "histogram":
                instrument = Histogram(self.buckets)
            else:
                instrument = _KINDS[self.kind]()
            self.series[key] = instrument
        return instrument

    def family_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
        }
        if self.kind == "histogram":
            entry["buckets"] = list(self.buckets)
        entry["series"] = [
            {"labels": dict(zip(self.label_names, key)), **instrument.series_dict()}
            for key, instrument in sorted(self.series.items())
        ]
        return entry


class MetricsRegistry:
    """Named instruments with deterministic export.

    Registration is get-or-create and idempotent: a second
    ``counter("x", ...)`` call returns the same family, and a kind or
    label-set mismatch is a :class:`MetricsError` (silent redefinition
    would corrupt goldens).  Not thread-safe by design — the layers that
    record into a registry run serially whenever one is installed, the
    same contract the tracer already imposes on the serve executor.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -- registration ----------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Iterable[str],
        volatile: bool,
        buckets: tuple[float, ...],
    ) -> _Family:
        _check_name(name)
        label_names = tuple(labels)
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != label_names:
                raise MetricsError(
                    f"metric {name!r} already registered as {family.kind} with "
                    f"labels {list(family.label_names)}"
                )
            return family
        family = _Family(name, kind, help_text, label_names, volatile, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> _Family:
        return self._family(name, "counter", help_text, labels, False, ())

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> _Family:
        return self._family(name, "gauge", help_text, labels, False, ())

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        volatile: bool = False,
    ) -> _Family:
        return self._family(name, "histogram", help_text, labels, volatile, buckets)

    def dual_histogram(
        self,
        base: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> tuple[_Family, _Family]:
        """The dual-clock pair: ``<base>_sim_seconds`` (primary,
        deterministic) and ``<base>_wall_seconds`` (secondary, volatile —
        excluded from default snapshots, like wall fields in traces)."""
        sim = self.histogram(
            f"{base}_sim_seconds", f"{help_text} (simulated clock)", labels, buckets
        )
        wall = self.histogram(
            f"{base}_wall_seconds",
            f"{help_text} (wall clock; volatile)",
            labels,
            buckets,
            volatile=True,
        )
        return sim, wall

    # -- convenience accessors --------------------------------------------------

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def value(self, name: str, **labels: str) -> Any:
        """The raw instrument for (name, labels) — test/report helper."""
        family = self._families.get(name)
        if family is None:
            raise MetricsError(f"unknown metric {name!r}")
        return family.labels(**labels)

    def families(self, include_volatile: bool = False) -> list[_Family]:
        return [
            family
            for name, family in sorted(self._families.items())
            if include_volatile or not family.volatile
        ]


@contextmanager
def collecting(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Install *registry* (a fresh one by default) for the duration.

    Instrumented layers (the MapReduce runner, the adaptive planner)
    record into it; uninstrumented runs pay one attribute read per hook.
    """
    registry = registry if registry is not None else MetricsRegistry()
    with ambient.installed(registry=registry):
        yield registry


# -- exporters ------------------------------------------------------------------


def snapshot_dict(
    registry: MetricsRegistry,
    *,
    include_volatile: bool = False,
    slo: dict[str, Any] | None = None,
    calibration: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``repro-metrics/v1`` snapshot.

    Volatile (wall-clock) instruments are excluded unless asked for, so
    the default snapshot is byte-deterministic given fixed seeds.  The
    optional *slo* and *calibration* sections carry the serve layer's
    SLO verdict and the planner drift report alongside the raw
    instruments.
    """
    return {
        "schema": METRICS_SCHEMA,
        "metrics": [
            family.family_dict()
            for family in registry.families(include_volatile=include_volatile)
        ],
        "slo": slo,
        "calibration": calibration,
    }


def _format_number(value: int | float) -> str:
    """Prometheus sample value: ints verbatim, floats via shortest
    round-trip repr (deterministic), inf as ``+Inf``."""
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: dict[str, str], extra: tuple[str, str] | None = None) -> str:
    pairs = list(labels.items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{name}="{_escape_label(str(value))}"' for name, value in pairs)
    return "{" + rendered + "}"


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Text exposition (version 0.0.4) of a ``repro-metrics/v1`` snapshot.

    Histograms expand to the conventional ``_bucket{le=...}`` /
    ``_sum`` / ``_count`` triplet with cumulative bucket counts.
    """
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise MetricsError(
            f"not a {METRICS_SCHEMA} snapshot: schema={snapshot.get('schema')!r}"
        )
    lines: list[str] = []
    for family in snapshot["metrics"]:
        name, kind = family["name"], family["kind"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family["series"]:
            labels = series["labels"]
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_label_text(labels)} {_format_number(series['value'])}"
                )
                continue
            cumulative = 0
            for upper, count in zip(family["buckets"], series["counts"]):
                cumulative += count
                lines.append(
                    f"{name}_bucket{_label_text(labels, ('le', _format_number(float(upper))))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{name}_bucket{_label_text(labels, ('le', '+Inf'))} {series['count']}"
            )
            lines.append(f"{name}_sum{_label_text(labels)} {_format_number(series['sum'])}")
            lines.append(f"{name}_count{_label_text(labels)} {series['count']}")
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[+-]?(?:Inf|NaN|[0-9.eE+-]+))$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_prometheus(text: str) -> list[str]:
    """Shape-check a text exposition; returns problems (empty = valid).

    Verifies line grammar, that every sample's base name was announced
    by a ``# TYPE`` line, that histogram bucket counts are cumulative
    (non-decreasing in ``le``), and that each histogram series carries
    its ``_sum`` and ``_count``.
    """
    problems: list[str] = []
    typed: dict[str, str] = {}
    bucket_last: dict[str, int] = {}
    seen_suffix: dict[str, set[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                problems.append(f"line {number}: malformed comment {line!r}")
            elif parts[1] == "TYPE":
                if parts[3] not in _KINDS if len(parts) > 3 else True:
                    problems.append(f"line {number}: unknown TYPE in {line!r}")
                else:
                    typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {number}: malformed sample {line!r}")
            continue
        name = match.group("name")
        labels_text = match.group("labels")
        if labels_text:
            for part in labels_text.split(","):
                if not _LABEL_RE.match(part):
                    problems.append(f"line {number}: malformed label {part!r}")
        base = name
        suffix = ""
        for candidate in ("_bucket", "_sum", "_count"):
            if name.endswith(candidate) and name[: -len(candidate)] in typed:
                base, suffix = name[: -len(candidate)], candidate
                break
        if base not in typed:
            problems.append(f"line {number}: sample {name!r} has no # TYPE")
            continue
        if typed[base] == "histogram":
            if not suffix:
                problems.append(
                    f"line {number}: bare sample {name!r} for histogram {base!r}"
                )
                continue
            seen_suffix.setdefault(base, set()).add(suffix)
            if suffix == "_bucket":
                series_key = f"{base}|{_strip_le(labels_text or '')}"
                count = int(float(match.group("value")))
                if count < bucket_last.get(series_key, 0):
                    problems.append(
                        f"line {number}: bucket counts not cumulative for {base!r}"
                    )
                bucket_last[series_key] = count
        elif suffix:
            problems.append(
                f"line {number}: {suffix} sample for non-histogram {base!r}"
            )
    for base, kind in typed.items():
        if kind == "histogram" and base in seen_suffix:
            missing = {"_bucket", "_sum", "_count"} - seen_suffix[base]
            if missing:
                problems.append(
                    f"histogram {base!r} missing {sorted(missing)} samples"
                )
    return problems


def _strip_le(labels_text: str) -> str:
    return ",".join(
        part for part in labels_text.split(",") if not part.startswith("le=")
    )


def _series_label(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}"


def render_metrics_summary(snapshot: dict[str, Any]) -> str:
    """Terminal view of a ``repro-metrics/v1`` snapshot: every series'
    headline numbers, then the SLO and calibration verdicts."""
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise MetricsError(
            f"not a {METRICS_SCHEMA} snapshot: schema={snapshot.get('schema')!r}"
        )
    lines: list[str] = []
    for family in snapshot["metrics"]:
        name, kind = family["name"], family["kind"]
        for series in family["series"]:
            label = _series_label(series["labels"])
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{label} = {series['value']}")
            else:
                quantiles = series["quantiles"]
                lines.append(
                    f"{name}{label}: count={series['count']} "
                    f"sum={series['sum']:g} p50<={quantiles['p50']} "
                    f"p95<={quantiles['p95']} p99<={quantiles['p99']}"
                )
    slo = snapshot.get("slo")
    if slo is not None:
        targets = slo["targets"]
        rendered = ", ".join(
            f"{key}<={targets[key]:g}s"
            for key in ("p50", "p95", "p99")
            if targets.get(key) is not None
        )
        lines.append(
            f"slo [{rendered}, budget={targets['budget']:g}]: "
            f"{'PASS' if slo['pass'] else 'FAIL'} "
            f"(burn {slo['budget_burn'] * 100:.1f}% of {slo['count']} completed)"
        )
    calibration = snapshot.get("calibration")
    if calibration is not None:
        lines.append(
            f"calibration: {calibration['verdict']} "
            f"({calibration['observations']} cycles, "
            f"{calibration['drifting']} drifting)"
        )
        for entry in calibration["queries"]:
            lines.append(
                f"  {entry['query']}/{entry['engine']}: "
                f"cardinality q-error max {entry['cardinality_q_error']['max']:g}, "
                f"cost q-error max {entry['cost_q_error']['max']:g} "
                f"— {entry['verdict']}"
            )
    return "\n".join(lines)
