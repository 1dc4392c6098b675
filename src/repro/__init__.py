"""repro — reproduction of "Lightweight Streaming Graph Partitioning by
Fully Utilizing Knowledge from Local View" (ICDCS 2023).

Public API tour
---------------
Graphs (substrate)::

    from repro.graph import community_web_graph, GraphStream
    graph = community_web_graph(10_000, seed=7)
    stream = GraphStream(graph)

Partitioners (the paper's contribution + baselines), via the stable
three-call facade (:mod:`repro.api`)::

    from repro import PartitionConfig, partition_stream, evaluate
    cfg = PartitionConfig(method="spnl", num_partitions=32,
                          num_shards="auto")
    result = partition_stream(graph, cfg)
    print(evaluate(graph, result.assignment))

or explicitly (deep import paths keep working)::

    from repro.partitioning import SPNLPartitioner, evaluate
    result = SPNLPartitioner(num_partitions=32, num_shards="auto")\
        .partition(stream)

Observability (:mod:`repro.observability`) traces a pass mid-stream::

    from repro.observability import Instrumentation, JsonlSink
    hub = Instrumentation([JsonlSink("trace.jsonl")], probe_every=1000)
    result = partition_stream(graph, "spnl", 32, instrumentation=hub)
    hub.close()

Offline baselines (METIS-like multilevel, XtraPuLP-like label propagation)
live in :mod:`repro.offline`; the parallel streaming technique with RCT
dependency detection in :mod:`repro.parallel`; SPNL-E against HDRF (the
paper's Sec. VII edge-partitioning claim) in :mod:`repro.edgepart`; and
the benchmark harness regenerating every table/figure in
:mod:`repro.bench`.
"""

from . import graph, partitioning
from ._lazy import lazy_exports

__version__ = "1.0.0"

# The headline API at package top level for quickstart ergonomics, and
# the stable facade (documented in repro.api): build by name, partition
# in one call, evaluate — plus the online pair serve/connect (the
# placement service, docs/service.md).  Each name maps to the module it
# is re-exported from, imported on first use; old deep-module import
# paths stay valid aliases.
_EXPORTS = {
    "DiGraph": "graph",
    "GraphStream": "graph",
    "community_web_graph": "graph",
    "FennelPartitioner": "partitioning",
    "LDGPartitioner": "partitioning",
    "PartitionAssignment": "partitioning",
    "PartitionConfig": "partitioning",
    "SPNLPartitioner": "partitioning",
    "SPNPartitioner": "partitioning",
    "evaluate": "partitioning",
    "available_partitioners": "api",
    "connect": "api",
    "make_partitioner": "api",
    "partition_stream": "api",
    "serve": "api",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "DiGraph",
    "FennelPartitioner",
    "GraphStream",
    "LDGPartitioner",
    "PartitionAssignment",
    "PartitionConfig",
    "SPNLPartitioner",
    "SPNPartitioner",
    "available_partitioners",
    "community_web_graph",
    "connect",
    "evaluate",
    "graph",
    "make_partitioner",
    "partition_stream",
    "partitioning",
    "serve",
    "__version__",
]
