"""Seeded fault injection for the ``pytest -m chaos`` suite.

Every wrapper here injects a failure mode the recovery layer claims to
survive, deterministically (seeded or positional — never wall-clock), so
chaos tests are exactly reproducible:

* :class:`CrashingStream` — the process "dies" at record ``N`` of a
  pass (raises :class:`InjectedCrash` mid-iteration);
* :class:`FlakyFileStream` — a :class:`~repro.graph.stream.FileStream`
  whose reads raise transient ``OSError`` s on a seeded schedule,
  exercising the retry-with-backoff path;
* :func:`tear_snapshot` / :func:`corrupt_snapshot` — truncate or
  bit-flip a snapshot file, exercising the integrity checks;
* :class:`FlakyWAL` — a :class:`~repro.service.wal.PlacementLog` whose
  ``append_batch`` raises ``OSError`` while armed (or once per listed
  sequence number), exercising the placement service's WAL-failure →
  read-only degradation and recovery-flush path;
* :class:`SlowEngine` — throttles a live service's engine groups,
  exercising admission control's lag watermark and deadline shedding.

Wrappers subclass or delegate rather than monkeypatch, so they compose
with any stream or service — and, being distinct types, they are never
read out of CSR arrays (``as_array_stream`` converts exact types
only) but iterated, which is precisely what makes mid-iteration
injection observable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..graph.digraph import AdjacencyRecord
from ..graph.stream import FileStream, VertexStream
from ..service.wal import PlacementLog, WalEntry

__all__ = ["InjectedCrash", "CrashingStream", "FlakyFileStream",
           "FlakyWAL", "SlowEngine", "corrupt_snapshot",
           "tear_snapshot"]


class InjectedCrash(RuntimeError):
    """The simulated process death raised by chaos wrappers."""


class CrashingStream:
    """Wrap a stream so iteration dies just before arrival index ``N``.

    ``crash_at`` counts in absolute arrival order (matching
    ``tell()``/``seek()`` units), so a stream resumed past the crash
    point sails through.  The crash fires ``crashes`` times (default
    once), modelling a process that dies, restarts, and survives.
    """

    def __init__(self, inner: VertexStream, crash_at: int, *,
                 crashes: int = 1) -> None:
        if crash_at < 0:
            raise ValueError("crash_at must be >= 0")
        self._inner = inner
        self.crash_at = crash_at
        self.crashes_left = crashes

    @property
    def num_vertices(self) -> int:
        return self._inner.num_vertices

    @property
    def num_edges(self) -> int:
        return self._inner.num_edges

    @property
    def is_id_ordered(self) -> bool:
        return getattr(self._inner, "is_id_ordered", False)

    def tell(self) -> int:
        return self._inner.tell()

    def seek(self, position: int) -> None:
        self._inner.seek(position)

    def __iter__(self) -> Iterator[AdjacencyRecord]:
        position = self._inner.tell()
        for record in self._inner:
            if position == self.crash_at and self.crashes_left > 0:
                self.crashes_left -= 1
                raise InjectedCrash(
                    f"injected crash at stream position {position}")
            position += 1
            yield record


class FlakyFileStream(FileStream):
    """A :class:`FileStream` whose reads fail transiently, on a seed.

    Each yielded row flips a seeded coin; heads (probability
    ``failure_rate``) raises ``OSError`` as if the disk hiccuped, up to
    ``max_failures`` times total.  Injection is disarmed during the
    constructor's pre-scan so totals discovery always succeeds — the
    interesting path is the partitioning pass, where
    :meth:`FileStream.__iter__`'s retry loop must deliver every record
    exactly once despite the failures.
    """

    def __init__(self, path: str | Path, *, failure_rate: float = 0.01,
                 max_failures: int = 5, seed: int = 0, **kwargs) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        self._rng = np.random.default_rng(seed)
        self.failure_rate = failure_rate
        self.failures_left = max_failures
        self.failures_injected = 0
        self._armed = False
        super().__init__(path, **kwargs)
        self._armed = True

    def _record_segments(self, skip: int):
        for records in super()._record_segments(skip):
            for i in range(len(records)):
                if (self._armed and self.failures_left > 0
                        and self._rng.random() < self.failure_rate):
                    self.failures_left -= 1
                    self.failures_injected += 1
                    if i:
                        yield records[:i]
                    raise OSError("injected transient read failure")
            yield records


class FlakyWAL(PlacementLog):
    """A placement WAL whose group commits fail on command.

    Two injection modes, composable:

    * ``fail_at`` — a set of global sequence numbers; a batch containing
      any of them raises once (the matched seqs are then forgotten, so a
      post-recovery flush of the same entries succeeds).  This is the
      declarative "fail the commit carrying seq 120" a chaos schedule
      scripts.
    * :meth:`fail` / :meth:`restore` — arm/disarm a persistent outage
      (every append fails while armed), modelling a disk that stops
      accepting writes and later comes back.

    The failure fires *before* any bytes are written, which is the
    honest model for a failed ``fsync``: the ack contract says nothing
    reached durable storage, and the server must treat the whole batch
    as non-durable.  Plug it into :class:`~repro.service.PlacementService`
    via ``wal_factory=``.
    """

    def __init__(self, directory: str | Path, *, start: int = 0,
                 fsync: bool = True,
                 fail_at: "set[int] | frozenset[int] | tuple[int, ...]" = ()
                 ) -> None:
        self.fail_at = set(fail_at)
        self._armed = False
        self.injected_failures = 0
        super().__init__(directory, start=start, fsync=fsync)

    def fail(self) -> None:
        """Arm the persistent outage: every append now raises."""
        self._armed = True

    def restore(self) -> None:
        """Disarm the outage; appends succeed again."""
        self._armed = False

    @property
    def armed(self) -> bool:
        return self._armed

    def append_batch(self, entries: list[WalEntry]) -> None:
        if entries:
            matched = {e.seq for e in entries} & self.fail_at
            if self._armed or matched:
                self.fail_at -= matched
                self.injected_failures += 1
                raise OSError(
                    "injected WAL append failure"
                    + (f" at seq {sorted(matched)}" if matched else ""))
        super().append_batch(entries)


class SlowEngine:
    """Throttle a live service's engine groups (and restore it).

    Raising ``throttle_seconds`` on a running
    :class:`~repro.service.PlacementService` makes every engine group
    pay an extra sleep — the deterministic stand-in for a degraded
    disk or an overloaded partitioner that drives the admission
    controller's lag watermark and queue-depth shedding without any
    load-generator races.
    """

    def __init__(self, service, throttle_seconds: float) -> None:
        if throttle_seconds < 0:
            raise ValueError("throttle_seconds must be >= 0")
        self._service = service
        self.throttle_seconds = float(throttle_seconds)
        self._saved: float | None = None

    def apply(self) -> None:
        if self._saved is None:
            self._saved = self._service.throttle_seconds
        self._service.throttle_seconds = self.throttle_seconds

    def restore(self) -> None:
        if self._saved is not None:
            self._service.throttle_seconds = self._saved
            self._saved = None

    def __enter__(self) -> "SlowEngine":
        self.apply()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def tear_snapshot(path: str | Path, *, keep_fraction: float = 0.5) -> None:
    """Truncate a snapshot mid-body, as a crash during write would.

    (The atomic writer makes this state unreachable for real snapshots —
    this simulates a non-atomic copy or a torn filesystem.)
    """
    path = Path(path)
    blob = path.read_bytes()
    cut = max(1, int(len(blob) * keep_fraction))
    path.write_bytes(blob[:cut])


def corrupt_snapshot(path: str | Path, *, seed: int = 0) -> None:
    """Flip one random byte in a snapshot's body (CRC must catch it)."""
    path = Path(path)
    blob = bytearray(path.read_bytes())
    rng = np.random.default_rng(seed)
    # Skip the magic + header-length prefix so the flip lands in content
    # the CRC/body checks are responsible for.
    offset = int(rng.integers(16, len(blob)))
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))
