"""Correctness checks and the benchmark's own quality arithmetic.

Quality is recomputed here in a few lines of numpy, independent of
``repro.partitioning.metrics``, and then compared with it, so a change
to the library's metric code cannot silently move the benchmark's
``edge_locality``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro import PartitionAssignment, evaluate
from repro.graph import DiGraph

from . import spec

__all__ = ["check_route", "quality", "route_digest"]


def route_digest(route: np.ndarray) -> str:
    """sha256 of the route table as little-endian int32 bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(route, dtype="<i4").tobytes()).hexdigest()


def quality(graph: DiGraph, route: np.ndarray) -> tuple[float, float]:
    """``(edge_locality, delta_v)`` of a possibly partial route table.

    ``edge_locality`` is 1 - ECR over the edges whose endpoints are both
    placed; ``delta_v`` is max|P_i| / (placed / K).  For a complete
    route these are the paper's 1 - ECR and delta_v.
    """
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    src_pid, dst_pid = route[src], route[graph.indices]
    both = (src_pid >= 0) & (dst_pid >= 0)
    cut = int(np.count_nonzero(src_pid[both] != dst_pid[both]))
    placed = route[route >= 0]
    loads = np.bincount(placed, minlength=spec.NUM_PARTITIONS)
    locality = 1.0 - cut / int(np.count_nonzero(both))
    delta_v = float(loads.max() / (len(placed) / spec.NUM_PARTITIONS))
    return locality, delta_v


def check_route(graph: DiGraph, route: np.ndarray, *,
                expect_placed: int) -> list[str]:
    """Problems with a route table (empty list = all checks pass):
    the first ``expect_placed`` vertices placed exactly once and nothing
    else, pids in range, loads summing to the placements and within
    capacity; for a complete table, our ECR equals ``evaluate()``'s."""
    problems = []
    if len(route) != graph.num_vertices:
        return [f"route covers {len(route)} of {graph.num_vertices} ids"]
    placed = route >= 0
    if not placed[:expect_placed].all() or placed[expect_placed:].any():
        problems.append(
            f"{int(placed.sum())} vertices placed, expected exactly the "
            f"first {expect_placed}")
    if route.min() < -1 or route.max() >= spec.NUM_PARTITIONS:
        problems.append("partition id out of range")
        return problems
    loads = np.bincount(route[placed], minlength=spec.NUM_PARTITIONS)
    if int(loads.sum()) != expect_placed:
        problems.append(f"sum(loads)={int(loads.sum())} != {expect_placed}")
    capacity = spec.SLACK * graph.num_vertices / spec.NUM_PARTITIONS
    if loads.max() > math.ceil(capacity):
        problems.append(f"load {int(loads.max())} exceeds capacity "
                        f"{capacity:.1f}")
    if expect_placed == graph.num_vertices and not problems:
        report = evaluate(graph, PartitionAssignment(
            route, spec.NUM_PARTITIONS))
        locality, delta_v = quality(graph, route)
        if not math.isclose(1.0 - report.ecr, locality, abs_tol=1e-12) \
                or not math.isclose(report.delta_v, delta_v, abs_tol=1e-12):
            problems.append(
                f"own quality ({locality}, {delta_v}) != evaluate() "
                f"({1.0 - report.ecr}, {report.delta_v})")
    return problems
