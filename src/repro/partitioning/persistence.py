"""Persisting partition assignments.

A partitioning is only useful if the job scheduler that consumes it can
read it later; this module defines the on-disk format:

* the route table as one partition id per line (loadable by ``numpy``
  and by every scripting language on earth), gzip-transparent;
* an optional JSON header line (``# {...}``) carrying provenance — the
  partitioner, K, the graph's name/size, and the quality metrics at
  save time — so a route file is self-describing.

``repro-partition partition``'s output is exactly this format.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import IO, Any

import numpy as np

from ..graph.digraph import DiGraph
from ..recovery.atomic import atomic_writer
from .assignment import PartitionAssignment
from .metrics import QualityReport, evaluate

__all__ = ["save_assignment", "load_assignment"]

_FORMAT_NAME = "repro-route-table"
_FORMAT_VERSION = 1
#: Route entries formatted per write by :func:`save_assignment`.
_SLICE_VERTICES = 1 << 12


def _open(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_assignment(assignment: PartitionAssignment, path: str | Path, *,
                    graph: DiGraph | None = None,
                    partitioner: str | None = None,
                    extra: dict[str, Any] | None = None
                    ) -> QualityReport | None:
    """Write an assignment with a self-describing JSON header.

    When ``graph`` is given and the assignment is complete, the header
    also records the quality metrics so the file documents what it
    achieved without re-evaluation, and the :class:`QualityReport`
    they came from is returned (``None`` otherwise).
    """
    path = Path(path)
    header: dict[str, Any] = {
        "format": "repro-route-table",
        "version": _FORMAT_VERSION,
        "num_partitions": assignment.num_partitions,
        "num_vertices": assignment.num_vertices,
    }
    if partitioner:
        header["partitioner"] = partitioner
    quality = None
    if graph is not None:
        header["graph"] = graph.name
        header["num_edges"] = graph.num_edges
        if assignment.is_complete():
            quality = evaluate(graph, assignment)
            header["ecr"] = round(quality.ecr, 6)
            header["delta_v"] = round(quality.delta_v, 4)
            header["delta_e"] = round(quality.delta_e, 4)
    if extra:
        header.update(extra)
    # Atomic replace: a crash mid-save leaves the previous route table
    # (or nothing), never a truncated one a scheduler could half-load.
    with atomic_writer(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        # One write per slice, not per vertex, and no |V|-long list of
        # Python ints and strings.
        route = assignment.route
        for lo in range(0, len(route), _SLICE_VERTICES):
            fh.write("\n".join(map(str, route[lo:lo + _SLICE_VERTICES]
                                   .tolist())) + "\n")
    return quality


def load_assignment(path: str | Path
                    ) -> tuple[PartitionAssignment, dict[str, Any]]:
    """Read an assignment file; returns ``(assignment, header)``.

    Files without a JSON header (plain numpy dumps) load fine — the
    header comes back empty and K is inferred from the largest id.  A
    header that *does* declare ``format``/``version`` must declare ours:
    a different tool's file or a future version is rejected rather than
    silently misread.
    """
    path = Path(path)
    header: dict[str, Any] = {}
    pids: list[int] = []
    with _open(path, "r") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                payload = stripped.lstrip("#").strip()
                if payload.startswith("{") and not header:
                    try:
                        header = json.loads(payload)
                    except json.JSONDecodeError:
                        pass
                continue
            pids.append(int(stripped))
    if "format" in header and header["format"] != _FORMAT_NAME:
        raise ValueError(
            f"{path}: header declares format {header['format']!r}, "
            f"expected {_FORMAT_NAME!r}")
    if "version" in header and header["version"] != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: route-table version {header['version']!r} is not "
            f"supported (expected {_FORMAT_VERSION})")
    route = np.asarray(pids, dtype=np.int32)
    declared_n = header.get("num_vertices")
    if declared_n is not None and declared_n != len(route):
        raise ValueError(
            f"header declares {declared_n} vertices, file has "
            f"{len(route)} rows")
    k = header.get("num_partitions")
    if k is None:
        k = int(route.max()) + 1 if len(route) else 1
    return PartitionAssignment(route, int(k)), header
