"""Tests for the ``.reprocsr`` binary graph cache.

Layered-integrity expectations mirror the snapshot codec tests:
truncation, corruption, and foreign files each fail with a distinct
:class:`GraphCacheError`; a damaged or stale cache silently falls back
to a parse and is rewritten.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np
import pytest

from repro.graph import community_web_graph, write_adjacency
from repro.graph.digraph import DiGraph
from repro.graph.io import (
    read_adjacency,
    read_edge_list,
    read_metis,
    write_edge_list,
    write_metis,
)
from repro.ingest.cache import (
    GraphCacheError,
    cache_path_for,
    is_cache_fresh,
    load_or_parse,
    read_graph_cache,
    write_graph_cache,
)
from repro.memory.tracker import measure_peak
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


def _old_formula_cache(path, graph, source=None, *, pad=False):
    """A cache file as the writer built it before it streamed: the whole
    body as one ``bytes``, header and body concatenated.  Before the
    header was padded, the body started wherever the header ended;
    ``pad`` adds the trailing spaces that start it on a 64-byte
    boundary."""
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
    if pad:
        header += b" " * (-(13 + len(header)) % 64)
    path.write_bytes(b"REPROCSR\x01" + struct.pack(">I", len(header))
                     + header + body)


def _body_offset(path) -> int:
    (header_len,) = struct.unpack_from(">I", path.read_bytes(), 9)
    return 13 + header_len


def _old_reader(path):
    """The reader's logic before the header was padded, inline:
    ``json.loads`` on the raw header bytes, the body right after them."""
    blob = path.read_bytes()
    assert blob[:9] == b"REPROCSR\x01"
    (header_len,) = struct.unpack_from(">I", blob, 9)
    header = json.loads(blob[13:13 + header_len].decode("utf-8"))
    assert header["format"] == "repro-csr" and header["version"] == 1
    body = blob[13 + header_len:]
    assert len(body) == header["body_len"]
    assert zlib.crc32(body) == header["crc32"]
    indptr = np.frombuffer(body, dtype="<i8",
                           count=header["num_vertices"] + 1)
    indices = np.frombuffer(body, dtype="<i8", offset=indptr.nbytes)
    return indptr, indices


class TestStreamedWriter:
    def test_old_formula_file_still_loads(self, tmp_path, graph):
        path = tmp_path / "old.reprocsr"
        _old_formula_cache(path, graph)
        _assert_same(graph, read_graph_cache(path))

    def test_bytes_equal_the_old_formula(self, tmp_path, source, graph):
        # ... with the header padded to the 64-byte boundary: the body
        # and its CRC are the old formula's, byte for byte.
        old, new = tmp_path / "old.reprocsr", tmp_path / "new.reprocsr"
        _old_formula_cache(old, graph, source=source, pad=True)
        write_graph_cache(new, graph, source=source)
        assert new.read_bytes() == old.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.adj", "new.reprocsr", "old.reprocsr"]  # no temp left

    def test_padded_file_loads_with_the_old_reader(self, tmp_path, graph):
        path = tmp_path / "g.reprocsr"
        write_graph_cache(path, graph)
        indptr, indices = _old_reader(path)
        np.testing.assert_array_equal(indptr, graph.indptr)
        np.testing.assert_array_equal(indices, graph.indices)


def _assert_native_aligned(graph):
    for array in (graph.indptr, graph.indices):
        assert array.dtype == np.int64 and array.dtype.isnative
        assert array.flags.c_contiguous and array.flags.aligned


class TestAlignment:
    """Every load hands the kernel native, aligned int64 CSR arrays: an
    unaligned index array costs numpy a copy each time it indexes."""

    def test_every_header_length_gives_an_aligned_body(self, tmp_path):
        # 64 consecutive name lengths cover every header length mod 64.
        small = community_web_graph(40, seed=3)
        for width in range(1, 65):
            path = tmp_path / f"{width}.reprocsr"
            write_graph_cache(path, DiGraph(small.indptr, small.indices,
                                            name="n" * width))
            assert _body_offset(path) % 64 == 0
            for use_mmap in (True, False):
                loaded = read_graph_cache(path, use_mmap=use_mmap)
                _assert_native_aligned(loaded)
                _assert_same(small, loaded)

    def test_load_or_parse_hit_and_miss(self, tmp_path):
        small = community_web_graph(40, seed=3)
        for width in range(1, 65):
            source = tmp_path / ("s" * width + ".adj")
            write_adjacency(small, source)
            miss = load_or_parse(source)
            hit = load_or_parse(source)
            assert _body_offset(cache_path_for(source)) % 64 == 0
            for graph in (miss, hit):
                _assert_native_aligned(graph)
                _assert_same(small, graph)

    def test_text_readers(self, tmp_path, graph):
        write_adjacency(graph, tmp_path / "g.adj")
        write_edge_list(graph, tmp_path / "g.txt")
        write_metis(graph.to_undirected_csr(), tmp_path / "g.metis")
        _assert_native_aligned(read_adjacency(tmp_path / "g.adj"))
        _assert_native_aligned(read_edge_list(tmp_path / "g.txt"))
        _assert_native_aligned(read_metis(tmp_path / "g.metis"))


class TestUnpaddedFiles:
    """Files written before the header was padded: still readable, but
    stale to :func:`load_or_parse`, which rewrites them aligned once."""

    def _old_file(self, source, graph):
        cache = cache_path_for(source)
        _old_formula_cache(cache, graph, source=source)
        assert _body_offset(cache) % 64 != 0
        return cache

    def test_still_loads(self, source, graph):
        cache = self._old_file(source, graph)
        _assert_same(graph, read_graph_cache(cache))
        _assert_same(graph, read_graph_cache(cache, use_mmap=False))

    def test_not_fresh(self, source, graph):
        assert not is_cache_fresh(self._old_file(source, graph), source)

    def test_rewritten_aligned_once(self, source, graph):
        cache = self._old_file(source, graph)
        with Instrumentation() as hub:
            _assert_same(graph, load_or_parse(source, instrumentation=hub))
            assert hub.counters["graph_cache_miss"] == 1
            assert _body_offset(cache) % 64 == 0
            assert is_cache_fresh(cache, source)
            _assert_native_aligned(load_or_parse(source,
                                                 instrumentation=hub))
            assert hub.counters["graph_cache_hit"] == 1


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

    @pytest.mark.parametrize("header", [b"[]", b'"x"', b"1"])
    def test_header_that_is_not_an_object(self, tmp_path, source, header):
        path = tmp_path / "g.reprocsr"
        path.write_bytes(b"REPROCSR\x01" + struct.pack(">I", len(header))
                         + header)
        with pytest.raises(GraphCacheError, match="not an object"):
            read_graph_cache(path)
        assert not is_cache_fresh(path, source)

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

    def test_header_length_past_the_end_is_refused_unread(self, source):
        # read(n) allocates n bytes up front, so the length is checked
        # against the file's size before the header is read.
        cache = cache_path_for(source)
        cache.write_bytes(b"REPROCSR\x01" + struct.pack(">I", 64 << 20)
                          + b"{}")
        fresh, peak = measure_peak(lambda: is_cache_fresh(cache, source))
        assert not fresh
        assert peak < 1 << 20, peak


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
