"""Wire protocol for the placement service (version 1).

Transport is a plain TCP connection carrying newline-delimited UTF-8
JSON: one object per line, requests up and responses down, answered in
order per connection.  Every request names the protocol version it
speaks::

    {"protocol": 1, "op": "place", "id": 7, "vertex": 42,
     "neighbors": [1, 2, 3]}

and every response echoes the request ``id`` (an opaque client-chosen
value) with an ``ok`` discriminator::

    {"id": 7, "ok": true, "vertex": 42, "pid": 3, "cached": false}
    {"id": 7, "ok": false,
     "error": {"code": "backpressure", "message": "...",
               "retry_after_ms": 20}}

**Versioning contract.**  The integer :data:`PROTOCOL_VERSION` only
bumps on a *breaking* change (field removed, meaning changed).  Adding
fields to requests or responses is non-breaking by rule: servers ignore
request fields they do not know, clients ignore response fields they do
not know.  A server answers a request carrying an unsupported version
with ``code: "unsupported-protocol"`` and the list it speaks
(``supported: [1]``), so a client can detect the mismatch on its first
exchange — the ``hello`` handshake exists exactly for that probe.

**Revision 1.1** (additive — still ``protocol: 1`` on the wire; see
:data:`PROTOCOL_REVISION`) adds the resilience surface:

* ``place``/``place_batch`` requests may carry ``deadline_ms``, the
  client's total latency budget for the request.  A server that can
  already tell the budget is unmeetable (expected engine wait exceeds
  it) or finds it expired while the request was queued answers
  ``code: "deadline_exceeded"`` without applying the placement.
  Servers predating 1.1 ignore the field — the request degrades to
  best-effort, exactly what additive evolution promises.
* New load-shed error code ``overloaded``: admission control rejected
  the request *before* the bounded queue filled (queue-depth or
  engine-lag watermark).  Like ``backpressure`` it carries
  ``retry_after_ms``; clients treat both as retryable.
* New error code ``read_only``: the server degraded to read-only
  serving (WAL write failure, repeated snapshot failure) and rejects
  mutations while lookups/stats/health keep working.  Not retryable on
  a timer — the server announces recovery via ``health``'s
  ``health_state`` field, also new in 1.1.

**Revision 1.2** (additive — still ``protocol: 1`` on the wire) adds
the read-path and engine surface, all of it response-side:

* ``stats`` gains an ``engine`` object (``mode``/``parallelism``/
  ``processes``/``chunks_scored``/``pool_chunks``/``m_aligned``/
  ``worker_restarts``/``wal_pipeline``) describing the scoring
  engine's shape, and a ``read_view`` object (``seq``/``retries``)
  for the seqlock read path.  The server once had grouped and
  process-sharded engines; since their removal every ``engine`` field
  is still sent (removing one would break version 1) and reads as the
  one sequential engine: ``mode: "sequential"``, ``parallelism: 1``,
  ``processes: 1``, ``chunks_scored: 0``, ``pool_chunks: 0``,
  ``m_aligned: true``, ``worker_restarts: 0``.
* ``stats.durability`` gains ``wal_pipelined_groups`` (groups whose
  WAL append, publish and acks ran outside the server's state lock,
  overlapping the next group's scoring) and ``wal_inflight_requests``
  (requests of the group being committed that way right now, applied
  but not yet acked).  Both read 0 with the WAL pipeline off.  The
  commit stage once ran on a dedicated committer thread; it now runs
  on the request's own thread, and both fields keep their meaning.
* No request field changed and no error code was added: a 1.1 client
  talks to a 1.2 server (and vice versa) unmodified.

Operations (see ``docs/service.md`` for the full reference):

``hello``
    Version/identity handshake; returns server info + the boot config.
``place``
    Place one vertex (neighbors explicit, or from the loaded graph).
``place_batch``
    Place many vertices in one round trip (``items``).
``lookup``
    Partition id of a placed vertex (``pid: null`` when unplaced).
``stats``
    Live counters, loads, and per-endpoint latency percentiles.
``snapshot``
    Force a durable snapshot now; returns its path + position.
``health``
    Liveness/readiness probe (cheap; never touches the engine queue).

Error codes: ``bad-request``, ``unsupported-protocol``,
``unknown-vertex``, ``backpressure`` (bounded queue full — retry after
``retry_after_ms``), ``overloaded`` (admission control shed the request
— retry after ``retry_after_ms``), ``deadline_exceeded`` (the request's
``deadline_ms`` budget cannot be / was not met), ``read_only`` (server
degraded; mutations rejected), ``draining`` (server is shutting down),
``internal``.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "PROTOCOL_REVISION",
    "RETRYABLE_CODES",
    "SUPPORTED_PROTOCOLS",
    "OPS",
    "ProtocolError",
    "decode_line",
    "encode_message",
    "error_body",
    "validate_request",
]

PROTOCOL_VERSION = 1
SUPPORTED_PROTOCOLS = (1,)

#: Human-readable additive revision within :data:`PROTOCOL_VERSION`.
#: Advertised in ``hello`` so clients can feature-detect the resilience
#: surface (1.1: ``deadline_ms``, ``overloaded``/``deadline_exceeded``/
#: ``read_only`` codes) and the engine/read-path stats surface (1.2:
#: ``engine``/``read_view`` objects) without a breaking version bump.
PROTOCOL_REVISION = "1.2"

#: Error codes a client may safely retry after backing off — the server
#: rejected the request *without* applying it and expects the condition
#: to clear.  ``read_only``/``draining`` are deliberately absent:
#: retrying on a timer cannot help a server that announced it will
#: refuse mutations until an operator-visible state change.
RETRYABLE_CODES = frozenset({"backpressure", "overloaded"})

#: Every operation a version-1 server answers.
OPS = ("hello", "place", "place_batch", "lookup", "stats", "snapshot",
       "health")

#: Upper bound on one request/response line.  A line is buffered whole
#: before parsing, so the bound is what keeps a malicious or confused
#: client from ballooning server memory; generous enough for a
#: place_batch of tens of thousands of placements.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed frame: not JSON, not an object, or oversized."""

    def __init__(self, message: str, *, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


def encode_message(obj: dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + the terminating newline."""
    return json.dumps(obj, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received line into a message dict.

    Raises :class:`ProtocolError` (never json's own errors) so servers
    and clients can map every malformed frame to one error path.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-"
            f"byte line limit")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def error_body(code: str, message: str, **extra: Any) -> dict[str, Any]:
    """The ``error`` payload of a failure response."""
    body: dict[str, Any] = {"code": code, "message": message}
    body.update(extra)
    return body


def validate_request(request: dict[str, Any]) -> str:
    """Check version + op of a decoded request; returns the op name.

    Raises :class:`ProtocolError` with the right error code for the
    three ways a structurally-valid JSON object can still be
    unanswerable: missing/unsupported protocol version, missing op,
    unknown op.  Unknown *extra fields* are deliberately not rejected —
    that is the additive-evolution rule that keeps version 1 stable.
    """
    version = request.get("protocol")
    if version not in SUPPORTED_PROTOCOLS:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; this server "
            f"speaks {list(SUPPORTED_PROTOCOLS)}",
            code="unsupported-protocol")
    op = request.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request is missing the 'op' field")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; this server answers {list(OPS)}")
    return op
