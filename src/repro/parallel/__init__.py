"""Parallel streaming partitioning with RCT dependency detection."""

from .executor import SimulatedParallelPartitioner
from .process import ProcessShardedPartitioner, WorkerCrashedError
from .rct import ReversedCountingTable
from .shared import SharedArrayBlock

__all__ = [
    "ProcessShardedPartitioner",
    "ReversedCountingTable",
    "SharedArrayBlock",
    "SimulatedParallelPartitioner",
    "WorkerCrashedError",
]
