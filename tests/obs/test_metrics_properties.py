"""Property tests for the metrics subsystem's determinism contract:
histogram merge is associative and commutative, snapshots are
byte-identical regardless of recording order or ``PYTHONHASHSEED``, and
the Prometheus exposition of a reference registry matches a committed
golden byte-for-byte."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    render_prometheus,
    snapshot_dict,
)

GOLDEN = Path(__file__).parent.parent / "golden" / "metrics-prometheus.txt"

_SETTINGS = settings(max_examples=50, deadline=None)

# Observation values spanning below/inside/above the bucket range,
# including negatives and exact boundary hits.
observations = st.lists(
    st.one_of(
        st.floats(
            min_value=-1.0, max_value=100.0, allow_nan=False, allow_infinity=False
        ),
        st.sampled_from([0.0, 1.0, 2.0, 4.0, 8.0, 1e9]),
    ),
    max_size=40,
)

BUCKETS = (1.0, 2.0, 4.0, 8.0)


def _histogram(values) -> Histogram:
    histogram = Histogram(BUCKETS)
    for value in values:
        histogram.observe(value)
    return histogram


def _state(histogram: Histogram):
    return (histogram.count, histogram._sum_micro, tuple(histogram.counts))


@given(left=observations, right=observations)
@_SETTINGS
def test_merge_is_commutative(left, right):
    one = _histogram(left)
    one.merge(_histogram(right))
    other = _histogram(right)
    other.merge(_histogram(left))
    assert _state(one) == _state(other)


@given(a=observations, b=observations, c=observations)
@_SETTINGS
def test_merge_is_associative(a, b, c):
    left = _histogram(a)
    bc = _histogram(b)
    bc.merge(_histogram(c))
    left.merge(bc)

    right = _histogram(a)
    right.merge(_histogram(b))
    right.merge(_histogram(c))
    assert _state(left) == _state(right)


@given(values=observations)
@_SETTINGS
def test_merge_equals_interleaved_observation(values):
    """Splitting a stream across histograms and merging loses nothing."""
    merged = _histogram(values[::2])
    merged.merge(_histogram(values[1::2]))
    assert _state(merged) == _state(_histogram(values))


@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(["alpha", "beta", "gamma"]),  # metric
            st.sampled_from(["x", "y", "z"]),  # label value
            st.integers(min_value=0, max_value=5),
        ),
        max_size=30,
    ),
    seed=st.randoms(),
)
@_SETTINGS
def test_snapshot_bytes_ignore_recording_order(entries, seed):
    """Same observations, shuffled arrival -> byte-identical snapshot."""
    shuffled = list(entries)
    seed.shuffle(shuffled)

    def build(rows):
        registry = MetricsRegistry()
        for metric, label, amount in rows:
            registry.counter(metric, "test counter", ("tag",)).labels(
                tag=label
            ).inc(amount)
        return json.dumps(snapshot_dict(registry), sort_keys=True)

    assert build(entries) == build(shuffled)


def _reference_exposition_source() -> str:
    """A small fixed registry exercising all three kinds; run under
    different hash seeds to prove export order is hash-independent."""
    return """
import sys
sys.path.insert(0, "src")
from repro.obs.metrics import MetricsRegistry, render_prometheus, snapshot_dict

registry = MetricsRegistry()
requests = registry.counter(
    "serve_requests_total", "requests by terminal status", ("status",)
)
requests.labels(status="ok").inc(7)
requests.labels(status="deadline").inc(1)
requests.labels(status="rejected").inc(2)
registry.gauge("serve_cache_hit_ratio", "cache hit ratio", ("cache",)).labels(
    cache="result"
).set(0.75)
registry.gauge("serve_cache_hit_ratio", labels=("cache",)).labels(cache="plan").set(
    0.5
)
latency = registry.histogram(
    "serve_request_sim_latency_seconds",
    "request latency on the simulated clock",
    ("engine",),
    buckets=(0.5, 1.0, 2.0, 4.0),
)
for value in (0.25, 0.75, 1.5, 3.0, 99.0):
    latency.labels(engine="rapid-analytics").observe(value)
latency.labels(engine="hive-mqo").observe(1.0)
sys.stdout.write(render_prometheus(snapshot_dict(registry)))
"""


def test_prometheus_exposition_matches_committed_golden():
    expected = GOLDEN.read_text()
    for hashseed in ("0", "1", "42"):
        result = subprocess.run(
            [sys.executable, "-c", _reference_exposition_source()],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).parent.parent.parent,
            env={**os.environ, "PYTHONHASHSEED": hashseed},
        )
        assert result.stdout == expected, f"drifted under PYTHONHASHSEED={hashseed}"
