"""Fault tolerance for streaming partitioning runs.

The paper's one-pass setting makes a crash maximally expensive: the
route table, the Γ expectation tables, and SPNL's logical bookkeeping
are all in-memory only, so dying at vertex 19M of a 20M-vertex stream
loses everything.  This package makes single-pass runs recoverable
without replaying the stream:

* :mod:`repro.recovery.atomic` — crash-safe file writes
  (tmp + fsync + rename), shared by snapshots, route tables, and bench
  artifacts;
* :mod:`repro.recovery.snapshot` — the versioned, CRC32-checked on-disk
  snapshot format for partitioner state;
* :mod:`repro.recovery.checkpoint` — the checkpointing run driver:
  periodic snapshots during a pass, and byte-identical resume from the
  latest snapshot;
* :mod:`repro.recovery.lenient` — graceful ingestion: quarantine
  malformed records into a side file under an error budget instead of
  aborting on the first bad line;
* :mod:`repro.recovery.chaos` — seeded fault-injection wrappers
  (crash-at-record-N, torn snapshots, flaky readers, a failing WAL, a
  slow engine) backing the ``pytest -m chaos`` suite.
"""

from .atomic import atomic_writer, atomic_write_text
from .checkpoint import (
    CheckpointConfig,
    Checkpointer,
    latest_snapshot,
    partition_with_checkpoints,
    resume_partition,
    snapshot_path,
)
from .lenient import ErrorBudgetExceeded, IngestionPolicy, QuarantineLog
from .snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "CheckpointConfig",
    "Checkpointer",
    "ErrorBudgetExceeded",
    "IngestionPolicy",
    "QuarantineLog",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "atomic_write_text",
    "atomic_writer",
    "latest_snapshot",
    "partition_with_checkpoints",
    "read_snapshot",
    "resume_partition",
    "snapshot_path",
    "write_snapshot",
]
