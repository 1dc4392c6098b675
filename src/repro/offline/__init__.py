"""Offline baselines: METIS-like multilevel and XtraPuLP-like label
propagation, plus the weighted-graph substrate they share."""

from .coarsen import CoarseningLevel, coarsen, contract, heavy_edge_matching
from .initial import region_growing_partition
from .label_propagation import LabelPropagationPartitioner
from .multilevel import MultilevelPartitioner, OfflineResult, OutOfMemoryError
from .refine import partition_edge_cut, refine
from .wgraph import WeightedGraph

__all__ = [
    "CoarseningLevel",
    "LabelPropagationPartitioner",
    "MultilevelPartitioner",
    "OfflineResult",
    "OutOfMemoryError",
    "WeightedGraph",
    "coarsen",
    "contract",
    "heavy_edge_matching",
    "partition_edge_cut",
    "refine",
    "region_growing_partition",
]
