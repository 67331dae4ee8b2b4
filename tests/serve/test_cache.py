"""LRU cache semantics: recency order, counters, peek neutrality."""

import pytest

from repro.errors import ServeError
from repro.serve.cache import LRUCache


def test_capacity_must_be_positive():
    with pytest.raises(ServeError):
        LRUCache(0)


def test_put_get_roundtrip():
    cache = LRUCache(4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("b") is None
    assert cache.get("b", "fallback") == "fallback"
    assert "a" in cache and len(cache) == 1


def test_eviction_drops_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # touch: b is now oldest
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.evictions == 1


def test_reput_refreshes_recency_without_growth():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # overwrite = most recent, no eviction
    assert cache.evictions == 0
    cache.put("c", 3)
    assert "b" not in cache and cache.peek("a") == 10


def test_counters_track_hits_and_misses():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("a")
    cache.get("missing")
    assert (cache.hits, cache.misses) == (2, 1)
    assert cache.stats() == {
        "size": 1,
        "capacity": 2,
        "hits": 2,
        "misses": 1,
        "evictions": 0,
        "hit_ratio": 0.666667,
    }


def test_stats_report_evictions_and_hit_ratio():
    cache = LRUCache(1)
    assert cache.hit_ratio == 0.0  # no lookups yet, not a div-by-zero
    cache.put("a", 1)
    cache.put("b", 2)  # evicts "a"
    cache.get("b")
    cache.get("a")
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["hit_ratio"] == 0.5


def test_peek_touches_neither_counters_nor_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert cache.peek("missing") is None
    assert (cache.hits, cache.misses) == (0, 0)
    cache.put("c", 3)  # "a" was peeked, not touched: still oldest
    assert "a" not in cache
