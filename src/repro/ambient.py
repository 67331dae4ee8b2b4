"""Settings and ambient state: the one way a setting reaches the code.

A leaf module (stdlib plus :mod:`repro.errors`, itself stdlib-only)
holding all three parts of that — DESIGN.md §7.5 has the rationale:

* **ambient slots** — the telemetry sinks and the knob overrides, as
  plain module attributes with one save/set/restore
  (:func:`installed`) and one :func:`detached` for every sink at once.
  A hot path guards its telemetry with a single attribute read:
  ``if ambient.tracer is not None:``.
* **the knob table** — one :class:`Knob` per enumerated setting, whose
  ``validate`` and ``resolve`` are the only validator and the only
  "explicit > ambient > default" rule.
* **the spec grammar** — :func:`parse_spec`, behind every
  ``key=value,key=value`` command-line spec.

Concurrency contract: ambient state is process-global and unlocked.
Nothing under ``src/`` starts a thread (the serve layer simulates its
workers on one dispatch queue), so a slot installed around a call is
seen by exactly the work that call does.  Code that does start threads
must hand them explicit values (``EngineConfig.representation`` /
``.planner``), not rely on a slot.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from repro.errors import ReproError, ShardError

# ---------------------------------------------------------------------------
# Ambient slots
# ---------------------------------------------------------------------------

#: Telemetry sinks (None = that telemetry is disabled).
tracer: Any = None  # repro.obs.model.TraceRecorder
registry: Any = None  # repro.obs.metrics.MetricsRegistry

#: Knob overrides (None = no ambient override; the knob's default holds).
representation: str | None = None
cost_model: Any = None  # the CostModel that prices representation="auto"
planner: str | None = None

SINKS = ("tracer", "registry")
SLOTS = SINKS + ("representation", "cost_model", "planner")


@contextmanager
def installed(**values: Any) -> Iterator[None]:
    """Set the named slots for the duration, restoring what they held —
    also when the body raises.  Nests: the innermost installation wins."""
    unknown = values.keys() - set(SLOTS)
    if unknown:
        raise TypeError(f"unknown ambient slot(s): {', '.join(sorted(unknown))}")
    state = globals()
    previous = {name: state[name] for name in values}
    state.update(values)
    try:
        yield
    finally:
        state.update(previous)


def detached():
    """Suspend every telemetry sink for the duration.  All or nothing on
    purpose: a side-effect-free probe (EXPLAIN) must leave ``probe();
    run()`` equal to a cold ``run()`` on *every* sink, and a per-sink
    detach is one more call to forget."""
    return installed(**dict.fromkeys(SINKS))


# ---------------------------------------------------------------------------
# The knob table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One enumerated setting.  ``name`` is also its ambient slot, when
    it has one; where the knobs differ (spelling tolerance, error type,
    wording) the difference is a field, not a code path."""

    name: str
    choices: tuple[str, ...]
    default: str
    fold: bool = False  # accept any case and surrounding whitespace
    error: type[ReproError] = ReproError
    diagnostic: str = "invalid {name} {value!r}: expected one of {choices}"
    separator: str = "/"

    def validate(self, value: str) -> str:
        """The canonical spelling of *value*, or a one-line ``error``."""
        mode = value
        if self.fold and isinstance(value, str):
            mode = value.strip().lower()
        if mode not in self.choices:
            raise self.error(
                self.diagnostic.format(
                    name=self.name,
                    value=value,
                    choices=self.separator.join(self.choices),
                )
            )
        return mode

    def resolve(self, explicit: str | None = None) -> str:
        """Explicit config > ambient slot > default."""
        if explicit is not None:
            return self.validate(explicit)
        return globals().get(self.name) or self.default


REPRESENTATION = Knob(
    "representation", ("factorized", "flat", "auto"), "factorized", fold=True
)
#: ``"rule"`` is the original heuristic, which the goldens pin.
PLANNER = Knob("planner", ("rule", "cost", "auto"), "rule")
#: In the order the shard A/B reports them; no ambient slot.
PARTITIONER = Knob(
    "partitioner",
    ("hash", "locality", "min-edge-cut"),
    "hash",
    error=ShardError,
    diagnostic="unknown partitioner {value!r}; expected one of {choices}",
    separator=", ",
)
KNOBS = (REPRESENTATION, PLANNER, PARTITIONER)


def knob_overrides(source: Any) -> dict[str, str]:
    """The representation / planner overrides *source* (a parsed command
    line, a workload spec) carries, validated and keyed by knob name —
    which is both an ambient slot and an ``EngineConfig`` field."""
    return {
        knob.name: knob.validate(value)
        for knob in (REPRESENTATION, PLANNER)
        if (value := getattr(source, knob.name, None)) is not None
    }


# ---------------------------------------------------------------------------
# The spec grammar
# ---------------------------------------------------------------------------


class Field(NamedTuple):
    """One key of a spec: how its text converts (``int``, ``float``,
    ``str``, ``bool`` for ``on|off``, or any ``str -> value`` callable
    raising :class:`ValueError` / :class:`ReproError`), the keyword it
    is handed to ``build`` under when that differs from the key, and
    whether the spec is incomplete without it."""

    convert: Callable[[str], Any]
    keyword: str = ""
    required: bool = False


_FLAGS = {"on": True, "off": False, "true": True, "false": False}


def parse_spec(
    text: str,
    what: str,
    error: type[ReproError],
    fields: Mapping[str, Field],
    build: Callable[..., Any],
) -> Any:
    """Parse ``spec = [ pair { "," pair } ] ; pair = key "=" value`` and
    return ``build(**converted)``.

    Blank pairs are skipped, whitespace around keys and values is
    ignored and a repeated key keeps its last value.  Every failure — a
    pair without ``=``, an unknown or missing key, a value that does not
    convert, a range check inside *build* — is raised as
    ``error("invalid <what> spec '<text>': <reason>")``, one line."""
    try:
        given: dict[str, Any] = {}
        for pair in text.split(","):
            if not pair.strip():
                continue
            key, equals, raw = (piece.strip() for piece in pair.partition("="))
            if not equals:
                raise ValueError(f"expected key=value, got {pair.strip()!r}")
            if key not in fields:
                raise ValueError(f"unknown key {key!r} (known: {', '.join(fields)})")
            convert, keyword, _ = fields[key]
            if convert is bool:
                if raw.lower() not in _FLAGS:
                    raise ValueError(f"{key} must be on/off, got {raw!r}")
                given[keyword or key] = _FLAGS[raw.lower()]
            else:
                given[keyword or key] = convert(raw)
        missing = [
            key
            for key, field in fields.items()
            if field.required and (field.keyword or key) not in given
        ]
        if missing:
            raise ValueError(f"{', '.join(missing)} required")
        return build(**given)
    except (ValueError, ReproError) as problem:
        raise error(f"invalid {what} spec {text!r}: {problem}") from None
