"""The documented trace-record schema and its validator.

Every record the pipeline emits is a flat JSON object with a ``type``
discriminator.  The schema below is the contract consumed by trace
tooling (and enforced by the test suite over every emitted record):

``stream_probe`` — one windowed snapshot of a streaming pass:
    seq, placements, window, elapsed_seconds, loads, edge_loads,
    load_skew, ecr_estimate, resolved_edges, cut_edges,
    score_margin_mean, score_margin_min, partitioner, plus optional
    gauges (``expectation_table_entries``, ``expectation_table_bytes``).

``stream_summary`` — one terminal record per instrumented pass:
    seq, placements, elapsed_seconds, ecr_estimate, capacity_overflows,
    partitioner.

``bsp_superstep`` — one record per BSP superstep:
    seq, superstep, active_vertices, local_messages, remote_messages,
    elapsed_seconds, program.

``parallel_batch`` — one record per simulated-parallel batch:
    seq, batch, batch_size, delayed, placements.

``parallel_group`` — one record per process-sharded group:
    seq, group, workers, batch_size, delayed, placements.

``checkpoint`` — one record per snapshot written by the checkpointing
    driver: seq, position, placements, path, elapsed_seconds,
    partitioner.

``resume`` — one record when a pass restarts from a snapshot:
    seq, position, placements, path, partitioner.

``worker_restart`` — a supervised parallel worker died and was
    restarted: seq, worker, restarts, error, backoff_seconds.

``quarantine`` — a malformed input record was diverted by a lenient
    ingestion policy: seq, source, line, reason.

``ingest_phase`` — one record per completed ingest stage (parse, cache
    write, cache hit): seq, phase, source, elapsed_seconds, plus
    optional ``records`` / ``bytes`` volume gauges.

``service_request`` — one record per engine batch processed by the
    placement service: seq, op, count, queue_depth, elapsed_seconds,
    ok, plus the optional gauges ``fused`` (placements that went
    through the coalesced fast kernel) and ``shed`` (admission
    rejections counted since the previous record).

``health_transition`` — the placement service's health-state machine
    moved: seq, from_state, to_state, reason (free text naming the
    trigger, e.g. ``wal_append_failed``).

Field specs are ``(types, required)``.  ``validate_record`` raises
:class:`TraceSchemaError` on an unknown type, a missing required field,
an unknown field, or a type mismatch; ``None`` is allowed exactly for
the fields marked nullable below.
"""

from __future__ import annotations

from typing import Any

__all__ = ["TRACE_SCHEMA", "TraceSchemaError", "validate_record"]

_NUM = (int, float)
_INT = (int,)
_STR = (str,)
_LIST = (list,)
_BOOL = (bool,)

#: record type -> field -> (allowed value types, required, nullable)
TRACE_SCHEMA: dict[str, dict[str, tuple[tuple[type, ...], bool, bool]]] = {
    "stream_probe": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "placements": (_INT, True, False),
        "window": (_INT, True, False),
        "elapsed_seconds": (_NUM, True, False),
        "loads": (_LIST, True, False),
        "edge_loads": (_LIST, True, False),
        "load_skew": (_NUM, True, False),
        "ecr_estimate": (_NUM, True, True),
        "resolved_edges": (_INT, True, False),
        "cut_edges": (_INT, True, False),
        "score_margin_mean": (_NUM, True, True),
        "score_margin_min": (_NUM, True, True),
        "partitioner": (_STR, True, False),
        "expectation_table_entries": (_INT, False, True),
        "expectation_table_bytes": (_INT, False, True),
        "eta_mean": (_NUM, False, True),
    },
    "stream_summary": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "placements": (_INT, True, False),
        "elapsed_seconds": (_NUM, True, False),
        "ecr_estimate": (_NUM, True, True),
        "resolved_edges": (_INT, True, False),
        "cut_edges": (_INT, True, False),
        "capacity_overflows": (_INT, True, False),
        "partitioner": (_STR, True, False),
        "expectation_table_entries": (_INT, False, True),
        "expectation_table_bytes": (_INT, False, True),
    },
    "bsp_superstep": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "superstep": (_INT, True, False),
        "active_vertices": (_INT, True, False),
        "local_messages": (_INT, True, False),
        "remote_messages": (_INT, True, False),
        "elapsed_seconds": (_NUM, True, False),
        "program": (_STR, True, False),
    },
    "parallel_batch": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "batch": (_INT, True, False),
        "batch_size": (_INT, True, False),
        "delayed": (_INT, True, False),
        "placements": (_INT, True, False),
    },
    "parallel_group": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "group": (_INT, True, False),
        "workers": (_INT, True, False),
        "batch_size": (_INT, True, False),
        "delayed": (_INT, True, False),
        "placements": (_INT, True, False),
    },
    "checkpoint": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "position": (_INT, True, False),
        "placements": (_INT, True, False),
        "path": (_STR, True, False),
        "elapsed_seconds": (_NUM, True, False),
        "partitioner": (_STR, True, False),
    },
    "resume": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "position": (_INT, True, False),
        "placements": (_INT, True, False),
        "path": (_STR, True, False),
        "partitioner": (_STR, True, False),
    },
    "worker_restart": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "worker": (_INT, True, False),
        "restarts": (_INT, True, False),
        "error": (_STR, True, False),
        "backoff_seconds": (_NUM, True, False),
    },
    "quarantine": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "source": (_STR, True, False),
        "line": (_INT, True, False),
        "reason": (_STR, True, False),
    },
    "ingest_phase": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "phase": (_STR, True, False),
        "source": (_STR, True, False),
        "elapsed_seconds": (_NUM, True, False),
        "records": (_INT, False, True),
        "bytes": (_INT, False, True),
    },
    "service_request": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "op": (_STR, True, False),
        "count": (_INT, True, False),
        "queue_depth": (_INT, True, False),
        "elapsed_seconds": (_NUM, True, False),
        "ok": (_BOOL, True, False),
        "fused": (_INT, False, True),
        "shed": (_INT, False, True),
    },
    "health_transition": {
        "type": (_STR, True, False),
        "seq": (_INT, True, False),
        "from_state": (_STR, True, False),
        "to_state": (_STR, True, False),
        "reason": (_STR, True, False),
    },
}


class TraceSchemaError(ValueError):
    """A trace record does not conform to :data:`TRACE_SCHEMA`."""


def validate_record(record: dict[str, Any]) -> None:
    """Check one emitted record against the documented schema.

    Raises :class:`TraceSchemaError` with a precise message on the first
    violation; returns ``None`` for a conforming record.
    """
    if not isinstance(record, dict):
        raise TraceSchemaError(f"record must be a dict, got {type(record)}")
    kind = record.get("type")
    if kind not in TRACE_SCHEMA:
        raise TraceSchemaError(
            f"unknown record type {kind!r}; known: "
            f"{sorted(TRACE_SCHEMA)}")
    spec = TRACE_SCHEMA[kind]
    for field, (types, required, _nullable) in spec.items():
        if required and field not in record:
            raise TraceSchemaError(
                f"{kind}: missing required field {field!r}")
    for field, value in record.items():
        if field not in spec:
            raise TraceSchemaError(f"{kind}: unknown field {field!r}")
        types, _required, nullable = spec[field]
        if value is None:
            if not nullable:
                raise TraceSchemaError(
                    f"{kind}: field {field!r} may not be null")
            continue
        # bool is an int subclass; never accept it for numeric fields
        # (only where the spec lists bool itself).
        if (isinstance(value, bool) and bool not in types) \
                or not isinstance(value, types):
            raise TraceSchemaError(
                f"{kind}: field {field!r} has type "
                f"{type(value).__name__}, expected one of "
                f"{[t.__name__ for t in types]}")
