"""Top-level facade: the stable three-call API for notebooks and scripts.

Everything a typical user needs lives behind three names, re-exported at
package top level so deep module paths never leak into user code::

    from repro import PartitionConfig, partition_stream, evaluate

    cfg = PartitionConfig(method="spnl", num_partitions=32, slack=1.1)
    result = partition_stream(graph, cfg)
    print(evaluate(graph, result.assignment))

Stable signatures (the documented contract; deep module paths keep
working but these are what notebooks should use):

``make_partitioner(name, num_partitions, **kwargs)``
    Build any registered partitioner by short name; see
    :mod:`repro.partitioning.registry`.

``partition_stream(graph, method="spnl", num_partitions=32, *,
order=None, instrumentation=None, config=None)``
    One-call partitioning of a :class:`~repro.graph.digraph.DiGraph`
    (or an existing :class:`~repro.graph.stream.VertexStream`), returning
    a :class:`~repro.partitioning.base.StreamingResult` whatever the
    method — streaming heuristics consume a stream, offline baselines the
    graph; the difference is handled here.

``evaluate(graph, assignment)``
    The paper's full quality metric set
    (:func:`repro.partitioning.metrics.evaluate`).
"""

from __future__ import annotations

from typing import Any

from .graph.digraph import DiGraph
from .graph.stream import GraphStream, VertexStream
from .partitioning.base import StreamingResult
from .partitioning.config import PartitionConfig
from .partitioning.metrics import evaluate
from .partitioning.registry import (
    available_partitioners,
    make_partitioner,
    resolve,
)

__all__ = ["available_partitioners", "connect", "evaluate",
           "make_partitioner", "partition_stream", "serve"]


def partition_stream(graph: DiGraph | VertexStream,
                     method: str | PartitionConfig = "spnl",
                     num_partitions: int = 32, *,
                     order: Any = None,
                     instrumentation: Any = None,
                     config: PartitionConfig | None = None,
                     **kwargs: Any) -> StreamingResult:
    """Partition ``graph`` with the named method, end to end.

    Parameters
    ----------
    graph:
        A :class:`DiGraph` (wrapped in a fresh id-ordered
        :class:`GraphStream`) or an existing stream.  Offline methods
        (``"metis"``, ``"xtrapulp"``) require a ``DiGraph`` (or a
        ``GraphStream`` exposing ``.graph``) and return an
        :class:`~repro.offline.multilevel.OfflineResult`, which carries
        the same ``assignment``/``elapsed_seconds``/``stats`` fields.
    method:
        A registered partitioner name (``repro.available_partitioners()``
        lists them); unknown names raise with that list.  A
        :class:`~repro.partitioning.config.PartitionConfig` may be
        passed here directly (``partition_stream(graph, cfg)``) and
        supplies the name, ``K``, and every tuning knob.
    num_partitions:
        ``K``.
    order:
        Optional arrival order forwarded to :class:`GraphStream` when a
        ``DiGraph`` is given.
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation` hub; when
        given, the pass emits windowed trace records (see
        ``docs/observability.md``).  ``None`` keeps the bit-exact
        uninstrumented path.
    config:
        A :class:`PartitionConfig` naming the method and its knobs —
        the preferred way to specify a run.  Mutually exclusive with
        loose ``**kwargs``.
    **kwargs:
        Not accepted: heuristic parameters (``slack``, ``lam``,
        ``num_shards``, …) go in ``config``; loose ones raise
        :class:`TypeError`.

    The pass is sequential.  For parallel placement (Sec. V-B) wrap a
    :func:`make_partitioner` result in a :mod:`repro.parallel` executor;
    ``threads=`` raises :class:`TypeError` rather than being dropped.
    """
    if "threads" in kwargs:
        raise TypeError(
            "partition_stream() takes no threads= argument; for parallel "
            "placement wrap the partitioner in "
            "repro.parallel.ProcessShardedPartitioner (worker processes) "
            "or repro.parallel.SimulatedParallelPartitioner (the "
            "deterministic model)")
    if isinstance(method, PartitionConfig):
        if config is not None:
            raise TypeError("pass the PartitionConfig as method= or "
                            "config=, not both")
        config = method
    if config is not None:
        if kwargs:
            raise TypeError(
                "config= and loose heuristic kwargs are mutually "
                "exclusive; fold the kwargs into the PartitionConfig")
        method = config.method
        num_partitions = config.num_partitions
        kwargs = config.kwargs()
    elif kwargs:
        raise TypeError(
            f"partition_stream() takes no loose heuristic kwargs "
            f"({', '.join(sorted(kwargs))}); bundle them in a "
            f"repro.PartitionConfig and pass it as config=")
    entry = resolve(method)
    partitioner = make_partitioner(method, num_partitions,
                                   ignore_unknown=True, **kwargs)
    if not entry.is_streaming:
        target = graph.graph if isinstance(graph, GraphStream) else graph
        if not isinstance(target, DiGraph):
            raise TypeError(
                f"offline method {method!r} needs a DiGraph, got "
                f"{type(graph).__name__}")
        if instrumentation is not None:
            with instrumentation.timer(f"partition.{method}"):
                return partitioner.partition(target)
        return partitioner.partition(target)
    stream = graph if not isinstance(graph, DiGraph) \
        else GraphStream(graph, order=order)
    if instrumentation is None:
        return partitioner.partition(stream)
    return partitioner.partition(stream, instrumentation=instrumentation)


def serve(graph: Any, config: PartitionConfig | None = None, *,
          host: str = "127.0.0.1", port: int = 0,
          snapshot_dir: Any = None, resume_from: Any = None,
          **kwargs: Any) -> Any:
    """Boot a live placement server over ``graph``; returns it started.

    The online twin of :func:`partition_stream`: instead of one batch
    pass, a long-lived :class:`~repro.service.PlacementService` holds the
    partitioner state and answers ``place``/``lookup``/``stats`` over the
    versioned wire protocol (``protocol: 1`` — see ``docs/service.md``).

    ``graph`` is a :class:`DiGraph` or a path to a graph file (loaded
    through the binary CSR cache when a sidecar exists).  The returned
    service is already listening — read ``service.address`` for the
    bound ``(host, port)`` and call ``service.close()`` (or use it as a
    context manager) to drain and stop.  Remaining ``kwargs`` go to
    :class:`~repro.service.PlacementService`.
    """
    from .service import PlacementService
    return PlacementService.start(
        graph, config=config, host=host, port=port,
        snapshot_dir=snapshot_dir, resume_from=resume_from, **kwargs)


def connect(host: str = "127.0.0.1", port: int = 0,
            **kwargs: Any) -> Any:
    """Open a :class:`~repro.service.ServiceClient` to a running server.

    Performs the ``hello`` protocol handshake on connect (raising
    :class:`~repro.service.ServiceError` on a version mismatch) and
    returns the ready client.  ``connect(service)`` also works — any
    object with an ``address`` attribute is dereferenced, so
    ``repro.connect(repro.serve(graph))`` composes.
    """
    from .service import ServiceClient
    address = getattr(host, "address", None)
    if address is not None:
        host, port = address
    return ServiceClient(host, port, **kwargs)
