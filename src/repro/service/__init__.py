"""Partition-as-a-service: a long-lived placement server + client.

The online counterpart of :func:`repro.partition_stream`.  A
:class:`PlacementService` loads a graph once, holds live partitioner
state, and answers ``place`` / ``place_batch`` / ``lookup`` / ``stats``
/ ``snapshot`` / ``health`` over a versioned newline-JSON TCP protocol
(``protocol: 1`` — the full reference lives in ``docs/service.md``)::

    import repro
    graph = repro.community_web_graph(10_000, seed=7)
    with repro.serve(graph) as service, repro.connect(service) as client:
        pid = client.place(0)["pid"]
        assert client.lookup(0) == pid

Durability comes from the recovery layer: periodic snapshots plus a
group-commit placement WAL mean a SIGKILLed server restarted with
``resume_from=`` answers every previously-acknowledged placement
identically.  ``repro-partition serve`` runs the server from the shell;
the ``serve-batch`` and ``serve-mixed`` workloads of ``benchmarks/e2e/``
measure it.
"""

from .._lazy import lazy_exports

# Submodule each public name lives in, imported on first use.
_EXPORTS = {
    "BackpressureError": "client",
    "DeadlineExceededError": "client",
    "OverloadedError": "client",
    "ReadOnlyError": "client",
    "RetriesExhausted": "client",
    "ServiceClient": "client",
    "ServiceError": "client",
    "PROTOCOL_REVISION": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "SUPPORTED_PROTOCOLS": "protocol",
    "ProtocolError": "protocol",
    "PlacementService": "server",
    "PlacementLog": "wal",
    "WalEntry": "wal",
    "replay_entries": "wal",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BackpressureError",
    "DeadlineExceededError",
    "OverloadedError",
    "PROTOCOL_REVISION",
    "PROTOCOL_VERSION",
    "PlacementLog",
    "PlacementService",
    "ProtocolError",
    "ReadOnlyError",
    "RetriesExhausted",
    "SUPPORTED_PROTOCOLS",
    "ServiceClient",
    "ServiceError",
    "WalEntry",
    "replay_entries",
]
