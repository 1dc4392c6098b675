"""The chunked edge-list reader: runs of one source become rows.

:func:`repro.graph.io.read_edge_list` imports this module only when it
reads an edge list, so the adjacency and streaming paths never load it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..graph.builder import GraphBuilder
from .chunked import iter_edge_chunks

__all__ = ["add_edge_list"]


def add_edge_list(path: str | Path, builder: GraphBuilder,
                  policy) -> None:
    """Add every edge of the edge-list file at ``path`` to ``builder``.

    A chunk whose sources never decrease (``write_edge_list`` writes
    them so, as do most SNAP dumps) is one :meth:`GraphBuilder.add_rows`
    piece, a row per run, so a sorted file is stitched into the CSR as
    ``read_adjacency`` stitches rows, without ``(src, dst)`` pairs or a
    sort key over every edge.  A chunk's last run waits for the next
    chunk, which may continue it.  Any other chunk is added as pairs.
    Self-loops go first: a dropped one must not extend the id space, as
    a row's vertex does.
    """
    held: tuple[np.ndarray, np.ndarray] | None = None
    for src, dst in iter_edge_chunks(path, policy=policy):
        keep = src != dst
        if not keep.all():
            src, dst = src[keep], dst[keep]
        if held is not None:
            src, dst = np.concatenate((held[0], src)), \
                np.concatenate((held[1], dst))
            held = None
        if not len(src):
            continue
        step = np.diff(src)
        if (step < 0).any():
            builder.add_edge_arrays(src, dst)
            continue
        starts = np.concatenate(([0], np.flatnonzero(step) + 1))
        last = int(starts[-1])
        if last:
            builder.add_rows(src[starts[:-1]], np.diff(starts), dst[:last])
        held = src[last:], dst[last:]
    if held is not None:
        builder.add_rows(held[0][:1], [len(held[0])], held[1])
