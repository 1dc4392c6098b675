"""Parallel streaming partitioning with RCT dependency detection."""

from .executor import SimulatedParallelPartitioner
from .process import ProcessShardedPartitioner, WorkerCrashedError
from .rct import ReversedCountingTable
from .shared import SharedArrayBlock, SharedConflictTable

__all__ = [
    "ProcessShardedPartitioner",
    "ReversedCountingTable",
    "SharedArrayBlock",
    "SharedConflictTable",
    "SimulatedParallelPartitioner",
    "WorkerCrashedError",
]
