"""High-throughput graph ingestion: parse, cache, prefetch.

The streaming partitioners are now fast enough (see ``docs/performance.md``)
that end-to-end wall clock is dominated by getting adjacency records off
disk.  This package owns that path:

* :mod:`repro.ingest.chunked` — a chunked, NumPy-vectorized tokenizer for
  whitespace-delimited integer files (edge lists, adjacency lists) that
  replaces per-line Python parsing while preserving the strict/lenient
  error semantics and 1-based line numbers of :mod:`repro.graph.io`;
* :mod:`repro.ingest.cache` — a versioned, CRC-checked binary CSR cache
  (``.reprocsr``) with ``mmap``-backed zero-copy loads, so repeat runs
  skip text parsing entirely;
* :mod:`repro.ingest.prefetch` — a double-buffered background reader that
  overlaps disk I/O + parsing with partitioning, while keeping the
  record-unit ``tell()``/``seek()`` contract checkpoint/resume relies on.
"""

from .._lazy import lazy_exports

# Submodule each public name lives in; resolved lazily (PEP 562) so that
# parse-only imports do not pay for mmap/threading machinery.
_EXPORTS = {
    "CACHE_SUFFIX": "cache",
    "GraphCacheError": "cache",
    "cache_path_for": "cache",
    "is_cache_fresh": "cache",
    "load_or_parse": "cache",
    "read_graph_cache": "cache",
    "write_graph_cache": "cache",
    "DEFAULT_CHUNK_BYTES": "chunked",
    "iter_adjacency_rows": "chunked",
    "iter_edge_chunks": "chunked",
    "scan_adjacency_stats": "chunked",
    "PrefetchStream": "prefetch",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CACHE_SUFFIX",
    "DEFAULT_CHUNK_BYTES",
    "GraphCacheError",
    "PrefetchStream",
    "cache_path_for",
    "is_cache_fresh",
    "iter_adjacency_rows",
    "iter_edge_chunks",
    "load_or_parse",
    "read_graph_cache",
    "scan_adjacency_stats",
    "write_graph_cache",
]
