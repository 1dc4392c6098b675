"""Seeded inputs of a run: the graph files and the request sequences.

The program under test sees only what is written here — a text
adjacency file, its ``.reprocsr`` sidecar and (for serve-mixed) a lookup
sequence.  The same seed gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import PartitionConfig, community_web_graph, partition_stream
from repro.graph import DiGraph
from repro.graph.io import write_adjacency
from repro.ingest.cache import cache_path_for, load_or_parse

from . import spec

__all__ = ["Inputs", "make_inputs", "partition_config"]


def partition_config(*, window: bool = False) -> PartitionConfig:
    """SPNL, K = 32, the CLI's default slack and lambda; dense Gamma, or
    the sliding window with X = 8 for the bounded-memory workload."""
    return PartitionConfig(
        method="spnl", num_partitions=spec.NUM_PARTITIONS,
        slack=spec.SLACK, lam=spec.LAM,
        num_shards=spec.WINDOW_SHARDS if window else 1)


@dataclass
class Inputs:
    seed: int
    workdir: Path
    #: The graph as the parser returns it (rows sorted).
    graph: DiGraph
    adjacency_path: Path
    #: Dense-Gamma SPNL route of ``graph`` through the library facade;
    #: the identity reference of batch-file, serve-batch and serve-mixed.
    reference_route: np.ndarray
    #: serve-mixed: ``lookup_targets[v]`` are looked up after ``place(v)``.
    lookup_targets: np.ndarray


def make_inputs(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    base = community_web_graph(spec.NUM_VERTICES, seed=spec.GRAPH_SEED)
    # The seed permutes the neighbours inside every row of the file: the
    # parser and the file stream see other bytes on every seed while the
    # graph, and with it every placement, stays the same.
    degrees = np.diff(base.indptr)
    row_of_edge = np.repeat(np.arange(base.num_vertices), degrees)
    order = np.lexsort((rng.random(base.num_edges), row_of_edge))
    shuffled = DiGraph(base.indptr, base.indices[order], name=base.name)
    path = workdir / "graph.adj"
    write_adjacency(shuffled, path)
    # A cache miss: parses the file and writes the sidecar, exactly as
    # the first ``--graph-cache`` run of the CLI would.
    graph = load_or_parse(path, cache=True)
    if not cache_path_for(path).is_file():
        raise RuntimeError("load_or_parse did not write the CSR sidecar")
    if not (np.array_equal(graph.indptr, base.indptr)
            and np.array_equal(graph.indices, base.indices)):
        raise RuntimeError("parsed graph differs from the generated one")
    reference = partition_stream(graph, partition_config())
    lookups = np.stack([
        rng.integers(0, v + 1, size=spec.MIXED_LOOKUPS_PER_PLACE)
        for v in range(spec.MIXED_PLACES)])
    return Inputs(seed=seed, workdir=workdir, graph=graph,
                  adjacency_path=path,
                  reference_route=np.array(reference.assignment.route),
                  lookup_targets=lookups)
