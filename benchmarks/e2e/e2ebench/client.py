"""The benchmark's own connection to the placement server.

A raw socket plus the repo's public wire codec
(:func:`repro.service.protocol.encode_message` /
:func:`~repro.service.protocol.decode_line`), so the benchmark can put a
clock between encode, socket wait and decode — the library's
``ServiceClient`` hides those behind one call.  One request in flight.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from repro.service.protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION,
                                    decode_line, encode_message)

__all__ = ["BenchClient"]


class BenchClient:
    def __init__(self, host: str, port: int, *, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._fh = self._sock.makefile("rb")
        self._next_id = 0

    def message(self, op: str, **fields: Any) -> dict[str, Any]:
        """A request dict with a fresh id (built outside the timed call)."""
        self._next_id += 1
        return {"protocol": PROTOCOL_VERSION, "op": op,
                "id": self._next_id, **fields}

    def call(self, message: dict[str, Any]) -> tuple[dict[str, Any], float]:
        """One round trip; returns ``(response, seconds)``."""
        t0 = time.perf_counter()
        self._sock.sendall(encode_message(message))
        response = decode_line(self._fh.readline(MAX_LINE_BYTES + 2))
        return response, time.perf_counter() - t0

    def call_stamped(self, message: dict[str, Any]
                     ) -> tuple[dict[str, Any], tuple[float, ...]]:
        """One round trip with a stamp at each layer boundary:
        ``(start, encoded, line received, decoded)``."""
        t0 = time.perf_counter()
        payload = encode_message(message)
        t1 = time.perf_counter()
        self._sock.sendall(payload)
        line = self._fh.readline(MAX_LINE_BYTES + 2)
        t2 = time.perf_counter()
        response = decode_line(line)
        return response, (t0, t1, t2, time.perf_counter())

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Untimed convenience call that insists on ``ok``."""
        message = self.message(op, **fields)
        response, _ = self.call(message)
        if not response.get("ok") or response.get("id") != message["id"]:
            raise RuntimeError(f"{op} failed: {response}")
        return response

    def close(self) -> None:
        self._fh.close()
        self._sock.close()

    def __enter__(self) -> "BenchClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
