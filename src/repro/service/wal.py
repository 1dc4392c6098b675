"""Placement write-ahead log: the service's ack-durability story.

A batch pass can always be re-run; a *service* cannot — once the server
acks a ``place`` response, the client may act on that partition id, so a
crash must never forget it.  Snapshots alone cannot give that guarantee
(they are periodic), so the engine pairs them with a group-commit WAL:

1. apply the drained batch to the in-memory partitioner state;
2. append one JSON line per placement to the active WAL segment,
   ``flush`` + ``fsync`` once for the whole batch;
3. only then release the acks.

On a crash, every acked placement is therefore either inside the latest
snapshot or on fsynced WAL lines after it; :func:`replay_entries` feeds
those lines back through the partitioner and the restarted server
answers ``lookup`` identically.  A torn final line (the crash landed
mid-``write``) belongs to placements that were never acked, so the
replay parser silently stops there.

Record format — one compact JSON object per line::

    {"s":1041,"v":1041,"n":null,"p":3}

``s`` is the global placement sequence number (the service position
*before* this placement), ``v`` the vertex, ``p`` the committed
partition id, and ``n`` the explicit out-neighbor list the client sent —
``null`` when the client deferred to the loaded graph's own adjacency
(the common case, which keeps WAL lines a few bytes instead of
re-serializing CSR rows).  Logs written by the removed grouped engine
also stamped ``"g"``, a scoring-group id; the one engine left cannot
re-make those choices, so :func:`replay_entries` refuses such a line.

Lines are formatted directly, not through :mod:`json`; for the field
types :class:`WalEntry` documents they equal ``json.dumps(...,
separators=(",", ":"))`` byte for byte.  A field that is not an int
raises before anything of the group is written.

Segments are named ``wal-<base:012d>.jsonl`` where ``base`` is the
service position at segment creation; the log rotates to a fresh segment
at every snapshot so :meth:`PlacementLog.prune` can drop segments wholly
covered by the latest snapshot without rewriting files.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Iterator, NamedTuple

__all__ = ["PlacementLog", "WalEntry", "replay_entries", "wal_segments"]

_SEGMENT_RE = re.compile(r"^wal-(\d+)\.jsonl$")

#: ``str`` of an int.  Like ``json.dumps``, it raises ``TypeError`` on a
#: float, a string, ``None`` or a numpy int; ``:d`` would accept numpy
#: ints and costs ~20 % more.  Bools (``"1"`` here, ``true`` in json)
#: are refused upstream by ``PlacementService._check_vertex``.
_int = int.__repr__


class WalEntry(NamedTuple):
    """One durable placement: sequence, vertex, neighbors, partition."""

    seq: int
    vertex: int
    neighbors: list[int] | None
    pid: int


def segment_path(directory: str | Path, base: int) -> Path:
    """Canonical segment filename for a segment starting at ``base``."""
    return Path(directory) / f"wal-{base:012d}.jsonl"


def wal_segments(directory: str | Path) -> list[tuple[int, Path]]:
    """All ``(base, path)`` WAL segments in ``directory``, base-ordered."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _SEGMENT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort()
    return found


class PlacementLog:
    """Append-only, fsync-on-batch placement log with snapshot rotation."""

    def __init__(self, directory: str | Path, *, start: int = 0,
                 fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._fh = None
        self.appended = 0
        self.rotate(start)

    @property
    def active_path(self) -> Path:
        """The segment currently receiving appends."""
        return self._path

    def append_batch(self, entries: list[WalEntry]) -> None:
        """Durably append ``entries``; returns only once they are on disk.

        One ``write``/``flush``/``fsync`` triple for the whole batch —
        the group commit that makes per-placement durability affordable
        at service throughput.
        """
        if not entries:
            return
        self._fh.write("".join([
            f'{{"s":{_int(s)},"v":{_int(v)},"n":'
            f'{"null" if n is None else "[" + ",".join(map(_int, n)) + "]"}'
            f',"p":{_int(p)}}}\n' for s, v, n, p in entries]))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.appended += len(entries)

    def rotate(self, base: int) -> Path:
        """Start a fresh segment at service position ``base``.

        Called at boot and after every snapshot, so each segment's lines
        all carry sequence numbers ``>= base`` and the pruning rule in
        :meth:`prune` stays a whole-file decision.
        """
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()
        self._path = segment_path(self.directory, base)
        # Append mode: re-opening an existing base (boot after a crash
        # that preceded any snapshot) must not clobber durable lines.
        self._fh = open(self._path, "a", encoding="utf-8")
        return self._path

    def prune(self, snapshot_position: int) -> int:
        """Drop segments wholly covered by a snapshot at ``position``.

        A segment is removable when the *next* segment starts at or
        below the snapshot position (so every line it holds has
        ``seq < snapshot_position``).  The active segment is never
        removed.  Returns the number of segments deleted.
        """
        segments = wal_segments(self.directory)
        removed = 0
        for (base, path), (next_base, _) in zip(segments, segments[1:]):
            if next_base <= snapshot_position and path != self._path:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass  # pruning is best-effort; never fail the batch
        return removed

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None


def replay_entries(directory: str | Path, *,
                   from_position: int = 0) -> Iterator[WalEntry]:
    """Yield logged placements with ``seq >= from_position``, in order.

    Walks every segment base-ordered; lines below ``from_position`` (the
    restored snapshot already contains them) are skipped.  A torn or
    corrupt trailing line ends the replay silently — by the ack protocol
    it was never acknowledged — but corruption *followed by* further
    valid lines, or a sequence gap, raises ``ValueError``: that is real
    damage, not a mid-write crash, and resuming past it would serve
    wrong lookups.  So does a line to replay that carries the removed
    grouped engine's ``"g"`` stamp: its pid was scored against stale
    group-start state, which record-by-record replay cannot re-make.
    """
    expected = None
    pending_error: str | None = None
    for _, path in wal_segments(directory):
        with open(path, "rb") as fh:
            raw = fh.read()
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            if pending_error is not None:
                raise ValueError(pending_error)
            try:
                obj = json.loads(line)
                entry = WalEntry(seq=int(obj["s"]), vertex=int(obj["v"]),
                                 neighbors=obj["n"], pid=int(obj["p"]))
            except (ValueError, KeyError, TypeError):
                # Possibly the torn final line; only an error if more
                # valid lines follow.
                pending_error = (
                    f"corrupt WAL line in {path.name} is followed by "
                    f"further data; refusing to replay past it")
                continue
            if entry.seq < from_position:
                expected = entry.seq + 1
                continue
            if expected is None:
                expected = from_position
            if entry.seq != expected:
                raise ValueError(
                    f"WAL sequence gap in {path.name}: expected "
                    f"{expected}, found {entry.seq}")
            if "g" in obj:
                raise ValueError(
                    f"WAL line seq {entry.seq} in {path.name} carries a "
                    f"scoring-group stamp: the log was written by the "
                    f"removed grouped engine (parallelism > 1) and "
                    f"cannot be replayed record by record")
            expected = entry.seq + 1
            yield entry
