"""The checkpointing run driver: periodic snapshots + byte-identical resume.

A streaming pass is a fold over the arrival order, so its full state at
record ``t`` is (shared :class:`~repro.partitioning.base.PartitionState`,
heuristic-private state, ``t`` itself).  :func:`partition_with_checkpoints`
snapshots that triple every ``every`` records through
:mod:`repro.recovery.snapshot`; :func:`resume_partition` rebuilds the
triple in a fresh process, seeks the stream, and finishes the pass.  The
resumed run places every remaining vertex **byte-identically** to the
uninterrupted run — the registry-wide resume test suite enforces this for
CSR-backed and iterated streams alike.

Two properties make byte-identity cheap to guarantee:

* the :class:`~repro.partitioning.base.PlacementKernel` builds every
  maintained image (ineligibility mask, shifted route counter, penalty
  weights, η lanes, SPNL's combined bincount image) from the live state
  at construction time, so a kernel built over restored state is exactly
  the kernel the original run would have carried at that point;
* :meth:`PlacementKernel.run <repro.partitioning.base.PlacementKernel.run>`
  drives one long-lived kernel over consecutive segments — identical
  arithmetic to an unsegmented pass, with snapshot writes between
  segments (excluded from the reported ``PT``).

Snapshots are named ``ckpt-<position>.snap``; :func:`latest_snapshot`
finds the furthest-along one in a directory, and pruning keeps the newest
``keep`` so a crashed run's directory never grows without bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..graph.stream import VertexStream
from ..partitioning.base import (
    PartitionState,
    StreamingPartitioner,
    StreamingResult,
)
from .snapshot import read_snapshot, write_snapshot

__all__ = ["CheckpointConfig", "Checkpointer", "latest_snapshot",
           "partition_with_checkpoints", "resume_partition",
           "snapshot_path"]

_SNAP_RE = re.compile(r"^ckpt-(\d+)\.snap$")


@dataclass
class CheckpointConfig:
    """Where and how often to snapshot a streaming pass.

    Parameters
    ----------
    directory:
        Snapshot directory (created on first write).
    every:
        Records between snapshots.
    keep:
        Newest snapshots retained; older ones are pruned after each
        successful write (never before — a failed write must not eat
        the last good snapshot).
    """

    directory: Path
    every: int = 100_000
    keep: int = 3

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.every < 1:
            raise ValueError("checkpoint interval must be >= 1 record")
        if self.keep < 1:
            raise ValueError("must keep at least one snapshot")


def snapshot_path(directory: str | Path, position: int) -> Path:
    """Canonical snapshot filename for stream position ``position``."""
    return Path(directory) / f"ckpt-{position:012d}.snap"


def latest_snapshot(directory: str | Path) -> Path | None:
    """The furthest-along ``ckpt-*.snap`` in ``directory``, or ``None``."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best: Path | None = None
    best_pos = -1
    for entry in directory.iterdir():
        match = _SNAP_RE.match(entry.name)
        if match and int(match.group(1)) > best_pos:
            best_pos = int(match.group(1))
            best = entry
    return best


def _snapshot_file(snapshot: str | Path) -> Path:
    """``snapshot``, or the furthest-along one when it is a directory."""
    snapshot = Path(snapshot)
    if not snapshot.is_dir():
        return snapshot
    found = latest_snapshot(snapshot)
    if found is None:
        raise FileNotFoundError(f"no ckpt-*.snap snapshots in {snapshot}")
    return found


def _as_config(config: CheckpointConfig | str | Path,
               every: int | None, keep: int | None) -> CheckpointConfig:
    """``config`` itself, or a directory with ``every``/``keep`` set."""
    if isinstance(config, CheckpointConfig):
        return config
    overrides = {"every": every, "keep": keep}
    return CheckpointConfig(Path(config), **{
        key: value for key, value in overrides.items() if value is not None})


def _restore(partitioner: StreamingPartitioner, stream: VertexStream,
             payload: dict, path: str | None,
             instrumentation) -> PartitionState:
    """Load ``payload`` into ``partitioner`` and seek ``stream`` to its
    position; counts the resume and emits its trace record."""
    position = int(payload["position"])
    if not hasattr(stream, "seek"):
        raise TypeError(
            f"cannot resume on a non-seekable stream "
            f"({type(stream).__name__})")
    state = partitioner.load_state(stream, payload)
    stream.seek(position)
    if instrumentation is not None:
        instrumentation.count("resumes")
        instrumentation.emit({
            "type": "resume",
            "position": position,
            "placements": int(state.placed_vertices),
            "path": path,
            "partitioner": partitioner.name,
        })
    return state


class Checkpointer:
    """Periodic snapshot writer for one partitioner's running pass."""

    def __init__(self, partitioner: StreamingPartitioner,
                 config: CheckpointConfig, *, instrumentation=None) -> None:
        self.partitioner = partitioner
        self.config = config
        self.instrumentation = instrumentation
        self.snapshots_written = 0
        self.config.directory.mkdir(parents=True, exist_ok=True)

    def save(self, state: PartitionState, position: int,
             elapsed: float) -> Path:
        """Snapshot ``state`` as of stream position ``position``."""
        payload = self.partitioner.state_dict(state)
        payload["position"] = int(position)
        payload["elapsed_seconds"] = float(elapsed)
        path = snapshot_path(self.config.directory, position)
        write_snapshot(path, payload)
        self.snapshots_written += 1
        self._prune()
        if self.instrumentation is not None:
            self.instrumentation.count("checkpoints")
            self.instrumentation.emit({
                "type": "checkpoint",
                "position": int(position),
                "placements": int(state.placed_vertices),
                "path": str(path),
                "elapsed_seconds": float(elapsed),
                "partitioner": self.partitioner.name,
            })
        return path

    def _prune(self) -> None:
        """Drop all but the newest ``keep`` snapshots in the directory.

        Scans the directory (rather than a private list) so snapshots
        inherited from the pre-crash run are pruned too once the resumed
        run writes past them.
        """
        snaps = sorted(
            (entry for entry in self.config.directory.iterdir()
             if _SNAP_RE.match(entry.name)),
            key=lambda p: int(_SNAP_RE.match(p.name).group(1)))
        for stale in snaps[:-self.config.keep]:
            try:
                stale.unlink()
            except OSError:
                pass  # pruning is best-effort; never abort the run


def _finish(partitioner: StreamingPartitioner, stream: VertexStream,
            state: PartitionState, config: CheckpointConfig, *,
            instrumentation=None, base_elapsed: float = 0.0,
            resumed_from: str | None = None) -> StreamingResult:
    """Run the (remainder of the) pass with periodic snapshots.

    ``stream`` must already be seeked to the position matching ``state``.
    The pass is :meth:`StreamingPartitioner._finish_pass` — the kernel
    :meth:`~StreamingPartitioner.partition` itself runs — with a
    snapshot between segments of ``config.every`` records.
    """
    ckpt = Checkpointer(partitioner, config,
                        instrumentation=instrumentation)
    result = partitioner._finish_pass(
        stream, state, instrumentation=instrumentation,
        every=config.every, elapsed=base_elapsed,
        on_segment=partial(ckpt.save, state))
    result.stats["checkpoints_written"] = ckpt.snapshots_written
    if resumed_from is not None:
        result.stats["resumed_from"] = resumed_from
    return result


def partition_with_checkpoints(
        partitioner: StreamingPartitioner, stream: VertexStream,
        config: CheckpointConfig | str | Path, *, every: int | None = None,
        keep: int | None = None, instrumentation=None) -> StreamingResult:
    """One streaming pass with a snapshot every ``config.every`` records.

    Accepts a ready :class:`CheckpointConfig` or a bare directory (with
    ``every``/``keep`` overrides).  The reported ``elapsed_seconds``
    covers only partitioning work — snapshot serialization happens
    between timed segments, mirroring how the paper's ``PT`` excludes
    I/O.  Produces a byte-identical assignment to
    :meth:`StreamingPartitioner.partition` on the same stream.
    """
    config = _as_config(config, every, keep)
    state = partitioner.make_state(stream)
    partitioner._setup(stream, state)
    return _finish(partitioner, stream, state, config,
                   instrumentation=instrumentation)


def resume_partition(
        partitioner: StreamingPartitioner, stream: VertexStream,
        snapshot: str | Path, *,
        config: CheckpointConfig | str | Path | None = None,
        every: int | None = None, keep: int | None = None,
        instrumentation=None) -> StreamingResult:
    """Finish a crashed pass from ``snapshot`` (a file or its directory).

    Restores the partitioner + shared state, seeks ``stream`` to the
    captured position, and completes the pass — continuing to checkpoint
    into ``config`` (default: the snapshot's own directory).  The final
    assignment is byte-identical to the run that never crashed.
    """
    snapshot = _snapshot_file(snapshot)
    payload = read_snapshot(snapshot)
    state = _restore(partitioner, stream, payload, str(snapshot),
                     instrumentation)
    config = _as_config(
        snapshot.parent if config is None else config, every, keep)
    return _finish(partitioner, stream, state, config,
                   instrumentation=instrumentation,
                   base_elapsed=float(payload.get("elapsed_seconds", 0.0)),
                   resumed_from=str(snapshot))
