"""Unit tests for the simulated HDFS."""

import pytest

from repro.errors import HDFSError, HDFSOutOfSpaceError
from repro.mapreduce.hdfs import HDFS


def test_write_and_read():
    hdfs = HDFS()
    file = hdfs.write("a/b", [1, 2, 3])
    assert file.records == [1, 2, 3]
    assert hdfs.read("a/b").size_bytes == file.size_bytes


def test_read_missing_raises():
    with pytest.raises(HDFSError):
        HDFS().read("nope")


def test_exists_and_delete():
    hdfs = HDFS()
    hdfs.write("x", [1])
    assert hdfs.exists("x")
    hdfs.delete("x")
    assert not hdfs.exists("x")
    hdfs.delete("x")  # idempotent


def test_overwrite_replaces():
    hdfs = HDFS()
    hdfs.write("x", [1, 2, 3])
    hdfs.write("x", [9])
    assert hdfs.read("x").records == [9]
    assert hdfs.used_bytes() == hdfs.read("x").size_bytes


def test_compression_reduces_stored_size_keeps_raw():
    hdfs = HDFS()
    raw_file = hdfs.write("raw", ["x" * 100] * 10)
    compressed = hdfs.write("orc", ["x" * 100] * 10, compressed=True)
    assert compressed.size_bytes < raw_file.size_bytes
    assert compressed.raw_bytes == raw_file.raw_bytes
    assert compressed.compressed


def test_capacity_enforced():
    hdfs = HDFS(capacity=50)
    hdfs.write("a", ["x" * 20])
    with pytest.raises(HDFSOutOfSpaceError) as exc_info:
        hdfs.write("b", ["y" * 200])
    assert exc_info.value.capacity == 50


def test_capacity_counts_replaced_file_as_freed():
    hdfs = HDFS(capacity=120)
    hdfs.write("a", ["x" * 100])
    # Replacing the same path frees its old bytes first.
    hdfs.write("a", ["y" * 100])
    assert hdfs.exists("a")


def test_listdir_prefix():
    hdfs = HDFS()
    hdfs.write("vp/a", [])
    hdfs.write("vp/b", [])
    hdfs.write("other", [])
    assert hdfs.listdir("vp/") == ["vp/a", "vp/b"]


def test_listdir_respects_directory_boundaries():
    """Regression: the raw startswith match leaked sibling directories
    sharing a name prefix ('vp2/x' under 'vp')."""
    hdfs = HDFS()
    hdfs.write("vp", [])  # a file named exactly like the directory
    hdfs.write("vp/a", [])
    hdfs.write("vp2/x", [])
    hdfs.write("vpextra", [])
    assert hdfs.listdir("vp") == ["vp", "vp/a"]
    assert hdfs.listdir("vp/") == ["vp", "vp/a"]
    assert hdfs.listdir("vp2") == ["vp2/x"]
    assert hdfs.listdir() == ["vp", "vp/a", "vp2/x", "vpextra"]


def test_incremental_used_bytes_matches_recount():
    """The running total must track write/overwrite/delete exactly."""
    hdfs = HDFS()
    hdfs.write("a", ["x" * 10] * 3)
    hdfs.write("b", ["y" * 50], compressed=True)
    hdfs.write("a", ["z" * 7])  # overwrite shrinks
    hdfs.delete("b")
    hdfs.delete("missing")  # no-op must not corrupt the total
    recounted = sum(f.size_bytes for f in [hdfs.read(p) for p in hdfs.listdir()])
    assert hdfs.used_bytes() == recounted


def test_capacity_overflow_after_many_writes():
    """MG13-style regression: the capacity check must use the *current*
    total, so a workflow that keeps materializing intermediates trips the
    limit at the right write, and a rejected write changes nothing."""
    hdfs = HDFS(capacity=1000)
    written = 0
    path = 0
    with pytest.raises(HDFSOutOfSpaceError):
        while True:
            hdfs.write(f"tmp/{path}", ["x" * 99])  # 100 bytes each
            written += 100
            path += 1
    assert written == 1000  # exactly ten fit, the eleventh overflows
    assert hdfs.used_bytes() == 1000
    assert not hdfs.exists(f"tmp/{path}")
    # Deleting one file frees exactly one file's worth of space again.
    hdfs.delete("tmp/0")
    assert hdfs.used_bytes() == 900
    hdfs.write("tmp/again", ["x" * 99])
    assert hdfs.used_bytes() == 1000
