"""Tests for the ``.reprocsr`` binary graph cache.

Layered-integrity expectations mirror the snapshot codec tests:
truncation, corruption, and foreign files each fail with a distinct
:class:`GraphCacheError`; a damaged or stale cache silently falls back
to a parse and is rewritten.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import community_web_graph, write_adjacency
from repro.ingest.cache import (
    GraphCacheError,
    cache_path_for,
    is_cache_fresh,
    load_or_parse,
    read_graph_cache,
    write_graph_cache,
)
from repro.observability.instrumentation import Instrumentation
from repro.observability.schema import validate_record


@pytest.fixture
def graph():
    return community_web_graph(300, seed=7, name="cache300")


@pytest.fixture
def source(tmp_path, graph):
    path = tmp_path / "g.adj"
    write_adjacency(graph, path)
    return path


def _assert_same(a, b):
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)


class TestRoundTrip:
    def test_byte_identical(self, tmp_path, graph):
        path = tmp_path / "g.reprocsr"
        write_graph_cache(path, graph)
        _assert_same(graph, read_graph_cache(path))

    def test_no_mmap_path(self, tmp_path, graph):
        path = tmp_path / "g.reprocsr"
        write_graph_cache(path, graph)
        _assert_same(graph, read_graph_cache(path, use_mmap=False))

    def test_empty_graph(self, tmp_path):
        from repro.graph import from_edges
        empty = from_edges([], num_vertices=0, name="empty")
        path = tmp_path / "e.reprocsr"
        write_graph_cache(path, empty)
        loaded = read_graph_cache(path)
        assert loaded.num_vertices == 0 and loaded.num_edges == 0

    def test_name_preserved(self, tmp_path, graph):
        path = tmp_path / "g.reprocsr"
        write_graph_cache(path, graph)
        assert read_graph_cache(path).name == "cache300"


def _old_formula_cache(path, graph, source=None):
    """A cache file as the writer built it before it streamed: the whole
    body as one ``bytes``, header and body concatenated."""
    import json
    import struct
    import zlib

    from repro.ingest.cache import _source_sig

    body = (np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes()
            + np.ascontiguousarray(graph.indices, dtype=np.int64).tobytes())
    header = json.dumps({
        "format": "repro-csr",
        "version": 1,
        "crc32": zlib.crc32(body),
        "body_len": len(body),
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "name": str(graph.name),
        "source": _source_sig(source) if source is not None else None,
    }, sort_keys=True).encode("utf-8")
    path.write_bytes(b"REPROCSR\x01" + struct.pack(">I", len(header))
                     + header + body)


class TestStreamedWriter:
    def test_old_formula_file_still_loads(self, tmp_path, graph):
        path = tmp_path / "old.reprocsr"
        _old_formula_cache(path, graph)
        _assert_same(graph, read_graph_cache(path))

    def test_bytes_equal_the_old_formula(self, tmp_path, source, graph):
        old, new = tmp_path / "old.reprocsr", tmp_path / "new.reprocsr"
        _old_formula_cache(old, graph, source=source)
        write_graph_cache(new, graph, source=source)
        assert new.read_bytes() == old.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.adj", "new.reprocsr", "old.reprocsr"]  # no temp left


class TestIntegrity:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.reprocsr"
        path.write_bytes(b"NOTACACHE" + b"\x00" * 64)
        with pytest.raises(GraphCacheError, match="bad magic"):
            read_graph_cache(path)

    def test_truncation(self, tmp_path, graph):
        path = tmp_path / "g.reprocsr"
        write_graph_cache(path, graph)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(GraphCacheError, match="truncated"):
            read_graph_cache(path)

    def test_corruption_fails_crc(self, tmp_path, graph):
        path = tmp_path / "g.reprocsr"
        write_graph_cache(path, graph)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(GraphCacheError, match="CRC32"):
            read_graph_cache(path)


class TestFreshness:
    def test_fresh_after_write(self, source, graph):
        cache = cache_path_for(source)
        write_graph_cache(cache, graph, source=source)
        assert is_cache_fresh(cache, source)

    def test_stale_after_source_change(self, source, graph):
        cache = cache_path_for(source)
        write_graph_cache(cache, graph, source=source)
        source.write_text(source.read_text() + "299\n")
        assert not is_cache_fresh(cache, source)

    def test_missing_cache_not_fresh(self, source):
        assert not is_cache_fresh(cache_path_for(source), source)

    def test_sourceless_cache_never_fresh(self, source, graph):
        cache = cache_path_for(source)
        write_graph_cache(cache, graph)  # no source signature
        assert not is_cache_fresh(cache, source)


class TestLoadOrParse:
    def test_miss_then_hit(self, source, graph):
        cache = cache_path_for(source)
        assert not cache.exists()
        first = load_or_parse(source)
        assert cache.exists()
        second = load_or_parse(source)
        _assert_same(graph, first)
        _assert_same(first, second)

    def test_stale_cache_rewritten(self, source):
        load_or_parse(source)
        cache = cache_path_for(source)
        before = cache.stat().st_mtime_ns
        # Append a vertex; the next load must re-parse and re-cache.
        with open(source, "a") as fh:
            fh.write("300\n")
        os.utime(source)
        graph = load_or_parse(source)
        assert graph.num_vertices == 301
        assert cache.stat().st_mtime_ns != before
        assert is_cache_fresh(cache, source)

    def test_damaged_cache_falls_back(self, source):
        load_or_parse(source)
        cache = cache_path_for(source)
        blob = bytearray(cache.read_bytes())
        blob[-1] ^= 0xFF
        cache.write_bytes(bytes(blob))
        # Force the freshness check to still pass (same size), so the
        # damaged body is actually read and must fall back cleanly.
        graph = load_or_parse(source)
        assert graph.num_vertices == 300

    def test_cache_false_always_parses(self, source):
        graph = load_or_parse(source, cache=False)
        assert not cache_path_for(source).exists()
        assert graph.num_vertices == 300

    def test_explicit_cache_path(self, source, tmp_path):
        cache = tmp_path / "elsewhere.reprocsr"
        load_or_parse(source, cache=cache)
        assert cache.exists()
        assert not cache_path_for(source).exists()

    def test_counters_and_trace_records(self, source):
        with Instrumentation() as hub:
            records = []
            hub.sinks = [type("Sink", (), {
                "emit": staticmethod(records.append)})()]
            load_or_parse(source, instrumentation=hub)
            assert hub.counters["graph_cache_miss"] == 1
            load_or_parse(source, instrumentation=hub)
            assert hub.counters["graph_cache_hit"] == 1
        phases = [r["phase"] for r in records
                  if r["type"] == "ingest_phase"]
        assert phases == ["parse", "cache_write", "cache_hit"]
        for record in records:
            validate_record(record)
