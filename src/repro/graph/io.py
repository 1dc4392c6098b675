"""Graph file formats: edge list, adjacency list, and METIS.

The paper streams graphs from disk as **adjacency-list** text files (one line
``v u1 u2 ...`` per vertex, ids consecutive).  We support:

* ``edge list`` — one ``src dst`` pair per line, ``#``/``%`` comments
  (SNAP / WebGraph dumps look like this);
* ``adjacency list`` — the paper's streamed format;
* ``METIS`` — 1-indexed undirected adjacency with a header line, accepted by
  real METIS and by our multilevel baseline.

All readers/writers transparently handle ``.gz`` paths.

Edge-list and adjacency readers default to the chunked NumPy tokenizer
in :mod:`repro.ingest.chunked` (``engine="chunked"``); the original
line-by-line parser remains available as ``engine="python"`` and is kept
as the reference the tokenizer is tested against.  Both engines are
byte-identical in output, error messages, and strict/lenient policy
behavior.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .builder import GraphBuilder
from .digraph import DiGraph

__all__ = [
    "read_edge_list", "write_edge_list",
    "read_adjacency", "write_adjacency",
    "read_metis", "write_metis",
    "iter_adjacency_lines",
]

_COMMENT_PREFIXES = ("#", "%", "//")

_ENGINES = ("chunked", "python")


def _check_engine(engine: str) -> None:
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown parse engine {engine!r}; expected one of {_ENGINES}")


def _open_text(path: str | Path, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return not stripped or stripped.startswith(_COMMENT_PREFIXES)


# ----------------------------------------------------------------------
# Edge list
# ----------------------------------------------------------------------
def read_edge_list(path: str | Path, *, num_vertices: int | None = None,
                   name: str | None = None, policy=None,
                   engine: str = "chunked") -> DiGraph:
    """Read a directed edge-list file (``src dst`` per line).

    Malformed lines raise :class:`ValueError` carrying the file path and
    1-based line number; a lenient
    :class:`~repro.recovery.lenient.IngestionPolicy` quarantines them
    instead (up to its error budget).
    """
    _check_engine(engine)
    builder = GraphBuilder(num_vertices)
    if engine == "chunked":
        from ..ingest.edge_rows import add_edge_list
        add_edge_list(path, builder, policy)
        return builder.build(name or Path(path).stem)
    if policy is not None:
        policy.begin_scan(path)
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            if _is_comment(line):
                continue
            try:
                parts = line.split()
                if len(parts) < 2:
                    raise ValueError(f"malformed edge line: {line!r}")
                builder.add_edge(int(parts[0]), int(parts[1]))
            except ValueError as exc:
                if policy is None:
                    raise ValueError(
                        f"{path}, line {lineno}: {exc}") from exc
                policy.handle(path, lineno, line, exc)
    return builder.build(name or Path(path).stem)


def write_edge_list(graph: DiGraph, path: str | Path) -> None:
    """Write a graph as a directed edge list."""
    with _open_text(path, "w") as fh:
        fh.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                 f"{graph.num_edges} edges\n")
        for src, dst in graph.edges():
            fh.write(f"{src} {dst}\n")


# ----------------------------------------------------------------------
# Adjacency list (the streamed format)
# ----------------------------------------------------------------------
def iter_adjacency_lines(path: str | Path, *, policy=None,
                         engine: str = "chunked"
                         ) -> Iterator[tuple[int, np.ndarray]]:
    """Stream ``(vertex, out-neighbors)`` rows from an adjacency-list file.

    This is the disk-streaming entry point used by
    :class:`repro.graph.stream.FileStream` — it never materializes the
    whole graph, matching the paper's one-pass design.

    Malformed rows raise :class:`ValueError` naming the file and the
    1-based line number.  With a lenient
    :class:`~repro.recovery.lenient.IngestionPolicy` the bad row is
    quarantined and skipped instead, until the policy's error budget is
    exhausted.
    """
    _check_engine(engine)
    if engine == "chunked":
        from ..ingest.chunked import iter_adjacency_rows
        yield from iter_adjacency_rows(path, policy=policy)
        return
    if policy is not None:
        policy.begin_scan(path)
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            if _is_comment(line):
                continue
            try:
                parts = line.split()
                vertex = int(parts[0])
                if vertex < 0:
                    raise ValueError(f"negative vertex id {vertex}")
                neighbors = np.asarray([int(p) for p in parts[1:]],
                                       dtype=np.int64)
                if len(neighbors) and neighbors.min() < 0:
                    raise ValueError(
                        f"negative neighbor id {int(neighbors.min())}")
            except ValueError as exc:
                if policy is None:
                    raise ValueError(
                        f"{path}, line {lineno}: {exc}") from exc
                policy.handle(path, lineno, line, exc)
                continue
            yield vertex, neighbors


def read_adjacency(path: str | Path, *, num_vertices: int | None = None,
                   name: str | None = None, policy=None,
                   engine: str = "chunked") -> DiGraph:
    """Read an adjacency-list file fully into a :class:`DiGraph`."""
    _check_engine(engine)
    builder = GraphBuilder(num_vertices)
    if engine == "chunked":
        _bulk_read_adjacency(path, builder, policy)
    else:
        for vertex, neighbors in iter_adjacency_lines(path, policy=policy,
                                                      engine=engine):
            builder.add_adjacency(vertex, neighbors)
    return builder.build(name or Path(path).stem)


def _bulk_read_adjacency(path: str | Path, builder: GraphBuilder,
                         policy) -> None:
    """Vectorized adjacency ingest: whole token segments per append.

    Each clean-row segment becomes one :meth:`GraphBuilder.add_rows`
    piece — the row vertices, each row's out-degree, and the tokens
    minus every row's leading vertex — so the builder sees rows, not
    ``(src, dst)`` pairs, and a file written in id order is stitched
    into the CSR as it stands.  A fallback line (one ``int()`` reads
    but the tokenizer does not, such as ``+5`` or ``1_000``) joins them
    as a one-row piece, so it does not send the whole build down the
    pair path; only a row id past ``int64`` takes :meth:`add_adjacency`.
    """
    from ..ingest.chunked import iter_row_events, parse_adjacency_line
    if policy is not None:
        policy.begin_scan(path)
    for event in iter_row_events(path):
        if event[0] == "rows":
            _, values, splits, _linenos, _chunk = event
            if not len(values):
                continue
            firsts = splits[:-1]
            keep = np.ones(len(values), dtype=bool)
            keep[firsts] = False
            builder.add_rows(values[firsts], np.diff(splits) - 1,
                             values[keep])
        else:
            parsed = parse_adjacency_line(path, event[1], event[2], policy)
            if parsed is None:
                continue
            vertex, neighbors = parsed
            if vertex < 2 ** 63:
                builder.add_rows(np.array([vertex]),
                                 np.array([len(neighbors)]), neighbors)
            else:  # beyond int64: the build refuses its id space
                builder.add_adjacency(vertex, neighbors)


def write_adjacency(graph: DiGraph, path: str | Path,
                    *, include_isolated: bool = True) -> None:
    """Write a graph in the paper's adjacency-list stream format."""
    with _open_text(path, "w") as fh:
        fh.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                 f"{graph.num_edges} edges\n")
        for record in graph.records():
            if record.out_degree == 0 and not include_isolated:
                continue
            row = " ".join(str(int(u)) for u in record.neighbors)
            fh.write(f"{record.vertex} {row}\n".rstrip() + "\n")


# ----------------------------------------------------------------------
# METIS format
# ----------------------------------------------------------------------
def read_metis(path: str | Path, *, name: str | None = None) -> DiGraph:
    """Read an (unweighted) METIS graph file as a symmetric DiGraph.

    METIS files are 1-indexed and list each undirected edge in both rows;
    we keep the symmetry so the result round-trips through
    :func:`write_metis`.
    """
    with _open_text(path, "r") as fh:
        header: list[str] | None = None
        rows: list[list[int]] = []
        for lineno, line in enumerate(fh, 1):
            if _is_comment(line):
                continue
            parts = line.split()
            if header is None:
                header = parts
                continue
            try:
                rows.append([int(p) - 1 for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from exc
        if header is None:
            raise ValueError("METIS file missing header line")
        declared_n, declared_m = int(header[0]), int(header[1])
        if len(rows) != declared_n:
            raise ValueError(
                f"METIS header declares {declared_n} vertices but file has "
                f"{len(rows)} adjacency rows")
        builder = GraphBuilder(declared_n)
        for vertex, neighbors in enumerate(rows):
            builder.add_adjacency(vertex, neighbors)
        graph = builder.build(name or Path(path).stem)
        if graph.num_edges != 2 * declared_m:
            raise ValueError(
                f"METIS header declares {declared_m} undirected edges but "
                f"file contains {graph.num_edges} directed entries")
        return graph


def write_metis(graph: DiGraph, path: str | Path) -> None:
    """Write the *undirected* view of ``graph`` in METIS format."""
    und = graph.to_undirected_csr()
    with _open_text(path, "w") as fh:
        fh.write(f"{und.num_vertices} {und.num_edges // 2}\n")
        for record in und.records():
            fh.write(" ".join(str(int(u) + 1)
                              for u in record.neighbors) + "\n")
