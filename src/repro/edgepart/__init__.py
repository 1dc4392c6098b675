"""Streaming edge partitioning — the paper's future-work direction."""

from .base import (
    EdgeAssignment,
    EdgePartitionState,
    EdgeStreamResult,
    StreamingEdgePartitioner,
    edge_stream,
)
from .hdrf import HDRFPartitioner
from .metrics import (
    EdgeQualityReport,
    edge_load_balance,
    evaluate_edges,
    replication_factor,
)
from .spnl_edge import SPNLEdgePartitioner

__all__ = [
    "EdgeAssignment",
    "EdgePartitionState",
    "EdgeQualityReport",
    "EdgeStreamResult",
    "HDRFPartitioner",
    "SPNLEdgePartitioner",
    "StreamingEdgePartitioner",
    "edge_load_balance",
    "edge_stream",
    "evaluate_edges",
    "replication_factor",
]
