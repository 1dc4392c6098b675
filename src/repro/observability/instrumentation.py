"""The instrumentation hub: counters, gauges, timers, and record fan-out.

One :class:`Instrumentation` instance travels with a run (a partitioning
pass, a bench record) and is threaded through the pipeline via
optional ``instrumentation=`` keyword hooks.  Components call

* ``count(name, n)`` for monotonically growing tallies (placements,
  delayed records),
* ``gauge(name, value)`` for point-in-time readings (Γ-table bytes,
  queue depth),
* ``timer(name)`` as a context manager accumulating monotonic wall time
  per labelled region, and
* ``emit(record)`` to fan a structured trace record out to every sink.

The hub is intentionally permissive about sinks that fail: a broken sink
is detached (and remembered in ``sink_errors``) rather than crashing the
instrumented run — observability must never take down the pipeline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from .sinks import TraceSink

__all__ = ["Instrumentation", "Timer"]


class Timer:
    """Accumulated monotonic wall time for one named region."""

    __slots__ = ("name", "total_seconds", "count", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.count = 0
        self._started: float | None = None

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError(f"timer {self.name!r} was not started")
        elapsed = time.perf_counter() - self._started
        self._started = None
        self.total_seconds += elapsed
        self.count += 1
        return elapsed

    def __repr__(self) -> str:
        return (f"Timer({self.name!r}, total={self.total_seconds:.6f}s, "
                f"count={self.count})")


class Instrumentation:
    """Hub for named counters/gauges/timers plus sink fan-out.

    Parameters
    ----------
    sinks:
        Iterable of :class:`~repro.observability.sinks.TraceSink`; records
        passed to :meth:`emit` reach every sink in order.
    probe_every:
        Default window size (placements per snapshot) for
        :class:`~repro.observability.probe.StreamProbe` instances built
        through :meth:`stream_probe`.
    """

    def __init__(self, sinks: Any = (), *, probe_every: int = 1000) -> None:
        if probe_every < 1:
            raise ValueError("probe_every must be >= 1")
        self.sinks: list[TraceSink] = list(sinks)
        self.probe_every = probe_every
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, Any] = {}
        self.timers: dict[str, Timer] = {}
        self.records_emitted = 0
        self.sink_errors: list[tuple[TraceSink, BaseException]] = []

    # -- scalar instruments --------------------------------------------
    def count(self, name: str, n: int = 1) -> int:
        """Bump counter ``name`` by ``n``; returns the new total."""
        total = self.counters.get(name, 0) + n
        self.counters[name] = total
        return total

    def gauge(self, name: str, value: Any) -> None:
        """Record the latest point-in-time ``value`` for ``name``."""
        self.gauges[name] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[Timer]:
        """Accumulate monotonic wall time under ``name``."""
        t = self.timers.get(name)
        if t is None:
            t = self.timers[name] = Timer(name)
        t.start()
        try:
            yield t
        finally:
            t.stop()

    # -- record fan-out ------------------------------------------------
    def emit(self, record: dict[str, Any]) -> None:
        """Send one trace record to every attached sink.

        A sink that raises is detached so one bad consumer cannot abort
        an instrumented run; the failure is kept in ``sink_errors``.
        """
        self.records_emitted += 1
        record.setdefault("seq", self.records_emitted)
        for sink in list(self.sinks):
            try:
                sink.emit(record)
            except Exception as exc:
                self.sinks.remove(sink)
                self.sink_errors.append((sink, exc))

    def stream_probe(self, partitioner: Any, state: Any,
                     *, every: int | None = None) -> "Any":
        """Build a :class:`StreamProbe` wired to this hub."""
        from .probe import StreamProbe
        return StreamProbe(self, state, partitioner=partitioner,
                           every=every if every is not None
                           else self.probe_every)

    # -- lifecycle -----------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Flat dict of every counter, gauge, and timer total."""
        out: dict[str, Any] = {}
        for name, value in self.counters.items():
            out[f"counter.{name}"] = value
        for name, value in self.gauges.items():
            out[f"gauge.{name}"] = value
        for name, t in self.timers.items():
            out[f"timer.{name}.seconds"] = t.total_seconds
            out[f"timer.{name}.count"] = t.count
        return out

    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:
                self.sink_errors.append((sink, exc))

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
