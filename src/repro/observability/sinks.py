"""Pluggable trace sinks for the instrumentation hub.

A sink receives every record the hub emits (plain JSON-serialisable
dicts; see :mod:`repro.observability.schema`).  Three implementations
cover the common uses:

* :class:`MemorySink` — bounded in-memory ring buffer, for tests and
  interactive inspection;
* :class:`JsonlSink` — one JSON object per line; the trace file is a
  first-class bench artifact, recorded on the run's ``BenchRecord``;
* :class:`ProgressSink` — a human-readable progress line per probe
  window, for watching long runs.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from pathlib import Path
from typing import IO, Any, Protocol, runtime_checkable

__all__ = ["TraceSink", "MemorySink", "JsonlSink", "ProgressSink"]


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can receive emitted trace records."""

    def emit(self, record: dict[str, Any]) -> None:
        """Consume one trace record (must not mutate it)."""

    def close(self) -> None:
        """Flush and release resources; further emits are undefined."""


class MemorySink:
    """Keep the last ``capacity`` records in a ring buffer."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._ring.maxlen

    @property
    def records(self) -> list[dict[str, Any]]:
        """The retained records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def emit(self, record: dict[str, Any]) -> None:
        self._ring.append(record)

    def close(self) -> None:
        """No-op: records stay readable after close."""


def _to_jsonable(value: Any) -> Any:
    """Coerce NumPy scalars/arrays into plain JSON types."""
    if hasattr(value, "tolist"):  # ndarray and NumPy scalars
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


class JsonlSink:
    """Append records to a JSON-lines file (one object per line).

    The file is opened lazily on the first emit so constructing the sink
    for a run that never emits leaves no empty artifact behind.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self.records_written = 0

    def emit(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")
        json.dump(_to_jsonable(record), self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.records_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ProgressSink:
    """Render ``stream_probe`` records as single human-readable lines.

    Non-probe records are summarised by their ``type`` and any counter
    payload, so the sink stays useful for BSP/parallel traces too.
    """

    def __init__(self, stream: IO[str] | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, record: dict[str, Any]) -> None:
        kind = record.get("type", "?")
        if kind == "stream_probe":
            ecr = record.get("ecr_estimate")
            margin = record.get("score_margin_mean")
            line = (f"[probe {record.get('partitioner', '?')}] "
                    f"{record.get('placements', 0)} placed")
            line += f" ecr~{ecr:.4f}" if ecr is not None else " ecr~n/a"
            line += f" skew={record.get('load_skew', 0.0):.3f}"
            if margin is not None:
                line += f" margin~{margin:.2f}"
            gamma = record.get("expectation_table_bytes")
            if gamma:
                line += f" Γ={gamma / 1e6:.2f}MB"
        elif kind == "stream_summary":
            line = (f"[probe {record.get('partitioner', '?')}] done: "
                    f"{record.get('placements', 0)} placed in "
                    f"{record.get('elapsed_seconds', 0.0):.3f}s")
        else:
            payload = {k: v for k, v in record.items()
                       if k not in ("type", "seq") and not
                       isinstance(v, (list, dict))}
            line = f"[{kind}] " + " ".join(
                f"{k}={v}" for k, v in payload.items())
        print(line, file=self.stream)

    def close(self) -> None:
        """No-op: the underlying stream is not owned by the sink."""
