"""Reversed-Counting-Table (RCT) for dependency detection.

Paper Sec. V-B: when M adjacency records are scored concurrently, records
that are adjacent to *each other* lose the heuristic guidance a serial
stream provides (the earlier record's placement would have informed the
later one).  The RCT detects these conflicts in O(1) per neighbor lookup:

* every in-flight vertex registers itself in the table;
* while a worker traverses ``N_out(v)`` to score ``v``, any out-neighbor
  ``u`` found in the table gets its dependency counter incremented — this
  piggybacks on the traversal the score computation already performs, so
  "no additional runtime cost is incurred";
* when ``u``'s own score is ready, the worker consults ``u``'s counter:
  above the threshold (default: the mean of non-zero counters), ``u``'s
  placement is *delayed* until the counter drains as its in-flight
  dependencies commit; otherwise ``u`` is removed and placed immediately.

The table holds at most ``ε·M`` entries (``ε`` bounds how many delayed
vertices each of the M workers may park).  Where the paper keeps an
``ε·M``-entry hash, this one is two dense lanes indexed by vertex id — an
``int32`` counter and a ``uint8`` in-flight flag, 5 bytes per vertex —
so membership is one array read and the in-flight filter over a whole
neighbor row is one vectorised gather.  The threshold is a running
``nonzero_sum / nonzero_count``.  Registering, removing and the delay
test are O(1); a note or release is that gather plus O(1) per in-flight
hit.  Nothing visits the table's entries.  The process executor hands
in its shared-memory lanes, which its workers read to filter their
notes.  Single-threaded: one committer owns the table.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReversedCountingTable"]


class ReversedCountingTable:
    """Bounded map ``vertex id -> dependency counter`` over dense lanes.

    ``capacity = ε·M`` as in the paper.  ``counts`` and ``in_flight``
    are allocated (zeroed, one entry per vertex) unless given; the
    invariant is that a vertex not in flight has a zero counter.
    ``nonzero_sum`` / ``nonzero_count`` are the running sum and count of
    the non-zero counters; their quotient is the delay threshold, the
    same float as numpy's mean of those counters while the sum is below
    2**53 (both sides are exact integers, and the division rounds once).
    """

    def __init__(self, parallelism: int, num_vertices: int, *,
                 epsilon: int = 2, counts: np.ndarray | None = None,
                 in_flight: np.ndarray | None = None) -> None:
        if parallelism < 1 or epsilon < 1:
            raise ValueError("parallelism and epsilon must be >= 1")
        self.parallelism = parallelism
        self.epsilon = epsilon
        self.capacity = epsilon * parallelism
        self.counts = np.zeros(num_vertices, dtype=np.int32) \
            if counts is None else counts
        self.in_flight = np.zeros(num_vertices, dtype=np.uint8) \
            if in_flight is None else in_flight
        # Scalar reads and writes go through memoryviews of the same
        # lanes: a Python int per access, at half numpy's scalar cost.
        self._count = memoryview(self.counts)
        self._flag = memoryview(self.in_flight)
        self._size = 0
        self.nonzero_sum = 0
        self.nonzero_count = 0
        # Diagnostics for the parallel benchmarks.
        self.total_conflicts = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def register(self, vertex: int) -> bool:
        """Enter ``vertex`` as in-flight; False if the table is full."""
        if self._flag[vertex]:
            return True
        if self._size >= self.capacity:
            return False
        self._flag[vertex] = 1
        self._size += 1
        return True

    def _in_flight_hits(self, neighbors) -> list[int]:
        """The in-flight entries of ``neighbors``, repeats kept."""
        if not isinstance(neighbors, np.ndarray):
            neighbors = np.asarray(neighbors, dtype=np.intp)
        flags = self.in_flight[neighbors]
        # Flags are 0 or 1; a byte scan is the cheap "any" for the
        # common row with no neighbor in flight.
        if 1 not in flags.tobytes():
            return []
        return neighbors[flags.nonzero()[0]].tolist()

    def note_hits(self, hits: list[int]) -> int:
        """Add one to the counter of every in-flight vertex in ``hits``.

        One call per occurrence, so a repeated vertex counts repeatedly.
        The one writer of the counters' running sums: the reference
        notes below and the process executor's barrier fold go through
        it.  Returns (and accumulates) the number of hits.
        """
        counts = self._count
        for u in hits:
            count = counts[u]
            if count == 0:
                self.nonzero_count += 1
            counts[u] = count + 1
        self.nonzero_sum += len(hits)
        self.total_conflicts += len(hits)
        return len(hits)

    def note_references(self, neighbors: np.ndarray | list[int]) -> int:
        """Bump counters of every in-flight vertex among ``neighbors``.

        Called during score computation's neighbor traversal; returns how
        many conflicts were recorded.
        """
        return self.note_hits(self._in_flight_hits(neighbors))

    def release_references(self, neighbors: np.ndarray | list[int]) -> None:
        """Drain counters once the referencing vertex has committed.

        One decrement per occurrence, clamped at zero: a no-op while
        every counter is zero.
        """
        if not self.nonzero_count:
            return
        counts = self._count
        for u in self._in_flight_hits(neighbors):
            count = counts[u]
            if count > 0:
                counts[u] = count - 1
                self.nonzero_sum -= 1
                if count == 1:
                    self.nonzero_count -= 1

    def should_delay(self, vertex: int) -> bool:
        """True when ``vertex``'s dependency exceeds the live threshold."""
        count = self._count[vertex]
        return count > 0 and count > self.nonzero_sum / self.nonzero_count

    def remove(self, vertex: int) -> None:
        """Drop ``vertex`` from the table (it has been placed)."""
        if not self._flag[vertex]:
            return
        count = self._count[vertex]
        if count:
            self.nonzero_sum -= count
            self.nonzero_count -= 1
            self._count[vertex] = 0
        self._flag[vertex] = 0
        self._size -= 1
