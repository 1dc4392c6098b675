"""Fine-grained sliding-window expectation store (paper Sec. V-A).

The full Γ tables cost ``O(K|V|)``.  Because streaming placement is final,
counters for already-placed vertices are dead weight; and because web
graphs are BFS-ordered, a vertex's neighbors cluster around its own id.
The paper therefore keeps, per partition, counters only for a window of
``W = ⌈|V|/X⌉`` *upcoming* vertex ids, slid forward one vertex at a time
("the sliding unit is a vertex, rather than a shard") over a fixed-size
array addressed by ``id mod W``.

Semantics implemented here (matching the paper's case analysis):

* the window covers ids ``[low, low + W)`` where ``low`` is the id of the
  vertex currently being streamed — the current vertex plus the next
  ``W-1`` future arrivals;
* **case 1** — a neighbor inside the window is counted exactly;
* **case 2** — a neighbor behind the window was already placed, so the
  lost count could never be read again: zero quality impact;
* **case 3** — a neighbor beyond the window is *not* counted, the one
  genuine accuracy loss, which shrinks as the id-order locality of the
  graph grows (Fig. 7b).

Peak memory is ``O(K·|V|/X)`` regardless of how far the stream advances.

Layout.  The ring is **slot-major**, ``(W, K)`` like the dense store's
``(|V|, K)``: slot ``id mod W`` is one contiguous K-row, so Γ(v) is a row
copy, a neighborhood gather is a row ``take`` plus a column sum, and the
usual slide of one vertex zeroes one row.  A placement step reads a
record's neighbors twice — :meth:`~SlidingWindowStore.gather_into` when
scoring, :meth:`~SlidingWindowStore.record` when committing — against
the same window, so the in-window test (slots plus the case-2/case-3
counts) is computed once and handed from the first call to the second.
Checkpoints keep the partition-major ``(K, W)`` table they always held;
:meth:`~SlidingWindowStore.state_dict` transposes at that boundary.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SlidingWindowStore", "default_num_shards"]

#: The increment in the ring's own dtype: ``np.add.at`` takes its
#: indexed fast path only when no cast stands between it and the table.
_ONE = np.int32(1)


def default_num_shards(num_vertices: int, num_partitions: int, *,
                       alpha: int = 4, beta: int = 100) -> int:
    """The paper's recommended shard count ``X = min(αK, |V|/(βK))``.

    The paper parameterizes ``α = 4`` and ``β = 10⁴`` for graphs with
    ``|V| ≥ 10⁷``.  At laptop scale ``|V|/(βK)`` would round to zero, so we
    default ``β = 100``, which keeps the window the same *fraction* of the
    graph as the paper's setting does on web2001 (window ≈ |V|/128).
    Always returns at least 1 (X = 1 degrades to the full table).
    """
    if num_vertices <= 0 or num_partitions <= 0:
        return 1
    by_capacity = num_vertices // (beta * num_partitions)
    return max(1, min(alpha * num_partitions, by_capacity))


class SlidingWindowStore:
    """Γ counters over a rotating fixed window of upcoming vertex ids.

    Parameters
    ----------
    num_partitions, num_vertices:
        Table dimensions (K and |V|).
    num_shards:
        The paper's ``X``; the window holds ``⌈|V|/X⌉`` ids per partition.
        ``X = 1`` makes this store behave identically to
        :class:`~repro.partitioning.expectation.FullExpectationStore`
        (verified by property tests).

    The stream must present vertices in non-decreasing id order for the
    window arithmetic to be sound; :meth:`advance_to` enforces this.
    """

    needs_advance = True

    def __init__(self, num_partitions: int, num_vertices: int,
                 num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards (X) must be >= 1")
        if num_partitions < 1 or num_vertices < 0:
            raise ValueError("invalid dimensions for expectation store")
        self.num_partitions = num_partitions
        self.num_vertices = num_vertices
        self.num_shards = num_shards
        self.window_size = max(1, math.ceil(num_vertices / num_shards))
        self._low = 0  # smallest id currently covered by the window
        # Slot-major ring: the counters of id ``u`` are row ``u mod W``.
        self._table = np.zeros((self.window_size, num_partitions),
                               dtype=np.int32)
        # The window's bounds and size as 0-d arrays: a ufunc converts a
        # Python int operand on every call, an array never.
        self._low_arr = np.array(0, dtype=np.int64)
        self._end_arr = np.array(self.window_size, dtype=np.int64)
        self._size_arr = np.array(self.window_size, dtype=np.int64)
        # Diagnostics surfaced in benchmark reports (Fig. 7 analysis).
        self.skipped_future = 0   # case-3 losses
        self.skipped_past = 0     # case-2 (harmless) drops
        self._bind()

    # ------------------------------------------------------------------
    @property
    def low(self) -> int:
        """Smallest vertex id covered by the window."""
        return self._low

    @property
    def high(self) -> int:
        """One past the largest id covered by the window."""
        return min(self._low + self.window_size, self.num_vertices)

    def _bind(self) -> None:
        """Bind the per-record access as closures over the live ring.

        ``advance_to``, ``expectation_of_into``, ``gather_into``,
        ``combined_into`` and ``record`` reach the ring, its
        per-partition column views and the window bounds without a
        method hop or a fresh ``ring[:, i]`` view.  The in-window
        test :meth:`gather_into` made last is state its closure shares
        with :meth:`record`'s: kept for the ``record`` that commits the
        same ``neighbors`` array at the same ``low``, and dropped on
        read.  :meth:`load_state` binds afresh, which forgets it.
        """
        table = self._table
        size = self.window_size
        columns = [table[:, pid] for pid in range(self.num_partitions)]
        low_arr, end_arr = self._low_arr, self._end_arr
        take, add, add_at, copyto = table.take, np.add, np.add.at, np.copyto
        reduce = np.add.reduce
        classify = self._classify
        # The last in-window test: its array, ``low``, and result.
        memo_ids = memo_low = memo_slots = None
        memo_past = memo_future = 0

        def advance_to(vertex: int) -> None:
            """Slide the window so it starts at ``vertex``.

            Rotates the ring in place: slots vacated by ids falling off
            the back are zeroed and immediately reused for the ids
            entering at the front (the paper's "logically implemented
            by rotating over a fixed-size array").  The expired slots
            are contiguous modulo ``W`` — one row for the usual step of
            one vertex, at most two row slices for a gap.

            A ``vertex`` behind the current window is a no-op rather
            than an error: the parallel executor re-scores *delayed*
            vertices after the stream has moved past them, and the
            correct semantics there is simply "read whatever counters
            remain".  (Streams that are not id-ordered at all are
            rejected earlier, at partitioner setup.)
            """
            low = self._low
            steps = vertex - low
            if steps <= 0:
                return
            if steps == 1:
                table[low % size] = 0
            elif steps >= size:
                table[:] = 0  # the whole window content expired
            else:
                first = low % size
                last = first + steps
                table[first:last] = 0
                if last > size:  # the expired run wraps around the ring
                    table[:last - size] = 0
            self._low = vertex
            low_arr[()] = vertex
            end_arr[()] = vertex + size

        def expectation_of_into(vertex: int, out: np.ndarray) -> np.ndarray:
            """:meth:`expectation_of` into a preallocated buffer."""
            if 0 <= vertex - self._low < size:
                copyto(out, table[vertex % size])
            else:
                out[:] = 0
            return out

        def gather_into(neighbors: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
            """:meth:`gather` into a preallocated buffer (same
            reduction), remembering the in-window test for
            :meth:`record`."""
            nonlocal memo_ids, memo_low, memo_slots, memo_past, memo_future
            if len(neighbors) == 0:
                memo_ids = None  # only ever the latest call's test
                out[:] = 0
                return out
            slots, memo_past, memo_future = classify(neighbors)
            memo_ids, memo_low, memo_slots = neighbors, self._low, slots
            if len(slots) == 0:
                out[:] = 0
                return out
            # Slots are ``id mod W``, in range by construction: no mode
            # needs to check them.  Summed in ``out``'s dtype.
            return reduce(take(slots, axis=0, mode="clip"), 0, None, out)

        def combined_into(vertex: int, neighbors: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
            """``Γ(vertex)`` (zero outside the window) plus
            :meth:`gather_into`."""
            gather_into(neighbors, out)
            if 0 <= vertex - self._low < size:
                add(out, table[vertex % size], out=out)
            return out

        def record(pid: int, neighbors: np.ndarray) -> None:
            """Bump ``Γ_pid`` for every in-window out-neighbor.

            Out-of-window neighbors are tallied into the case-2/case-3
            loss counters instead of being stored.
            """
            nonlocal memo_ids
            hit = memo_ids is neighbors and memo_low == self._low
            memo_ids = None  # one shot: never replayed
            if hit:
                slots, past, future = memo_slots, memo_past, memo_future
            elif len(neighbors) == 0:
                return
            else:
                slots, past, future = classify(neighbors)
            if past or future:
                self.skipped_past += past
                self.skipped_future += future
            if len(slots):
                add_at(columns[pid], slots, _ONE)

        self.advance_to = advance_to
        self.expectation_of_into = expectation_of_into
        self.gather_into = gather_into
        self.combined_into = combined_into
        self.record = record

    def __getstate__(self) -> dict:
        # The bound access captures this ring: a copy binds its own.
        return {key: value for key, value in self.__dict__.items()
                if not callable(value)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def _classify(self, neighbors) -> tuple[np.ndarray, int, int]:
        """The in-window test: ``(slots, past, future)`` for ``neighbors``.

        ``slots`` are the ring rows of the ids inside the window (case
        1, duplicates kept), ``past``/``future`` the number of ids behind
        (case 2) and beyond (case 3) it.  Ids are compared as int64
        whatever the caller's dtype (lists and narrower or unsigned
        arrays included).  Each side of the window is one compress
        whose length is the count (no mask is counted or inverted).
        """
        ids = np.asarray(neighbors, dtype=np.int64)
        total = len(ids)
        ids = ids[ids >= self._low_arr]
        live = len(ids)
        ids = ids[ids < self._end_arr]
        return ids % self._size_arr, total - live, live - len(ids)

    def expectation_of(self, vertex: int) -> np.ndarray:
        """``Γ_i(vertex)``; zero vector if the id is outside the window."""
        if not (self._low <= vertex < self._low + self.window_size):
            return np.zeros(self.num_partitions, dtype=np.int64)
        return self._table[vertex % self.window_size].astype(np.int64)

    def gather(self, neighbors: np.ndarray) -> np.ndarray:
        """Sum of in-window expectations over ``neighbors``, per partition.

        The allocating reference: it shares no buffer and leaves no
        memo, so concurrent scorers may call it against one store.
        """
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        slots = self._classify(neighbors)[0]
        return self._table[slots].sum(axis=0, dtype=np.int64)

    def nbytes(self) -> int:
        """Bytes held by the rotating counter array."""
        return int(self._table.nbytes)

    def num_entries(self) -> int:
        """Live counter cells: K × the window span."""
        return int(self._table.size)

    def gauges(self) -> dict:
        return {"expectation_table_bytes": self.nbytes(),
                "expectation_table_entries": self.num_entries()}

    def stats(self) -> dict:
        """:meth:`gauges` plus the window's shape and Fig. 7 losses."""
        stats = self.gauges()
        stats.update(num_shards=self.num_shards,
                     window_size=self.window_size,
                     skipped_future=self.skipped_future,
                     skipped_past=self.skipped_past)
        return stats

    def state_dict(self) -> dict:
        """Ring contents plus cursor and loss diagnostics.

        ``table`` is the partition-major ``(K, W)`` array checkpoints
        have always held, so snapshots move freely between versions;
        transposing the ring makes it a copy, not a live view.
        """
        return {
            "kind": "window",
            "num_shards": int(self.num_shards),
            "window_size": int(self.window_size),
            "table": np.ascontiguousarray(self._table.T),
            "low": int(self._low),
            "skipped_future": int(self.skipped_future),
            "skipped_past": int(self.skipped_past),
        }

    def load_state(self, payload: dict) -> None:
        if payload.get("kind") != "window":
            raise ValueError(
                f"snapshot holds a {payload.get('kind')!r} Γ store, this "
                "run uses the sliding window (different num_shards?)")
        if int(payload["window_size"]) != self.window_size:
            raise ValueError(
                f"snapshot window size {payload['window_size']} does not "
                f"match this run's {self.window_size} "
                f"(X={payload.get('num_shards')} vs {self.num_shards})")
        table = payload["table"]
        ring_shape = (self.num_partitions, self.window_size)
        if table.shape != ring_shape:
            raise ValueError(
                f"snapshot Γ ring shape {table.shape} does not match "
                f"{ring_shape}")
        np.copyto(self._table, table.T)
        self._low = int(payload["low"])
        self._low_arr[()] = self._low
        self._end_arr[()] = self._low + self.window_size
        self.skipped_future = int(payload["skipped_future"])
        self.skipped_past = int(payload["skipped_past"])
        self._bind()
