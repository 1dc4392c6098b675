"""Fine-grained sliding-window expectation store (paper Sec. V-A).

The full Γ tables cost ``O(K|V|)``.  Because streaming placement is final,
counters for already-placed vertices are dead weight; and because web
graphs are BFS-ordered, a vertex's neighbors cluster around its own id.
The paper therefore keeps, per partition, counters only for a window of
``W = ⌈|V|/X⌉`` *upcoming* vertex ids, slid forward one vertex at a time
("the sliding unit is a vertex, rather than a shard") over a fixed-size
array.

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

Layout.  The ring is slot-major, ``(W + 2, K)``: id ``u`` owns the K-row
``u mod (W + 2)``, so Γ(v) is a row copy and a gather a row ``take``
plus a column sum.  The ``W + 2`` ids ``[low - 1, low + W]`` fall on
distinct rows, so the window test is one clip, ``clip(ids, low - 1,
low + W) mod (W + 2)``: case-2 ids land on the row of ``low - 1`` and
case-3 ids on the row of ``low + W``.  These two spare rows are zero
between calls, so a gather reads them as zeros; ``record`` bumps them
with the rest, then moves the committed partition's two spare cells
into ``skipped_past`` / ``skipped_future``.  A slide zeroes only the
expired rows: the old past row becomes the new future row.  The slots
are computed once per placement step and handed from ``gather_into``
to ``record``.  Checkpoints keep the partition-major ``(K, W)`` table
of ``id mod W`` columns; ``state_dict``/``load_state`` convert.
"""

from __future__ import annotations

import math

import numpy as np

try:  # the clip ufunc itself: ``np.clip`` wraps it in three Python calls
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

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
        self._rows = self.window_size + 2  # the window and two spare rows
        self._table = np.zeros((self._rows, num_partitions), dtype=np.int32)
        # The clip bounds and the ring's row count as 0-d arrays: a ufunc
        # converts a Python int operand on every call, an array never.
        self._past_arr = np.array(-1, dtype=np.int64)
        self._future_arr = np.array(self.window_size, dtype=np.int64)
        self._rows_arr = np.array(self._rows, dtype=np.int64)
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

        The slots :meth:`gather_into` computed last are kept for the
        ``record`` that commits the same ``neighbors`` array at the same
        ``low``, and dropped on read; :meth:`load_state` binds afresh.
        """
        table = self._table
        size, rows, k = self.window_size, self._rows, self.num_partitions
        columns = [table[:, pid] for pid in range(k)]
        cells = memoryview(table.reshape(-1))  # cell ``row * K + pid``
        past_arr, future_arr = self._past_arr, self._future_arr
        take, add, add_at, copyto = table.take, np.add, np.add.at, np.copyto
        reduce = np.add.reduce
        classify = self._classify
        # The spare rows' first cells, harvested by ``record``.
        past_cell = (self._low - 1) % rows * k
        future_cell = (self._low + size) % rows * k
        # The last window test: its array, ``low``, and slots.
        memo_ids = memo_low = memo_slots = None

        def advance_to(vertex: int) -> None:
            """Slide the window so it starts at ``vertex``, zeroing the
            expired ids' rows (the paper's "rotating over a fixed-size
            array").  A ``vertex`` behind the window is a no-op: the
            parallel executor re-scores delayed vertices after the
            stream has moved past them."""
            nonlocal past_cell, future_cell
            low = self._low
            steps = vertex - low
            if steps <= 0:
                return
            if steps == 1:
                row = low % rows  # the new past row; the old one is future
                table[row] = 0
                future_cell, past_cell = past_cell, row * k
            else:  # past ``W + 2`` steps every row expired
                first = low % rows
                last = first + min(steps, rows)
                table[first:last] = 0
                if last > rows:  # the expired run wraps the ring
                    table[:last - rows] = 0
                past_cell = (vertex - 1) % rows * k
                future_cell = (vertex + size) % rows * k
            self._low = vertex
            past_arr[()] = vertex - 1
            future_arr[()] = vertex + size

        def expectation_of_into(vertex: int, out: np.ndarray) -> np.ndarray:
            """:meth:`expectation_of` into a preallocated buffer."""
            if 0 <= vertex - self._low < size:
                copyto(out, table[vertex % rows])
            else:
                out[:] = 0
            return out

        def gather_into(neighbors: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
            """:meth:`gather` into ``out``, remembering the slots."""
            nonlocal memo_ids, memo_low, memo_slots
            if len(neighbors) == 0:
                memo_ids = None  # only ever the latest call's test
                out[:] = 0
                return out
            memo_slots = slots = classify(neighbors)
            memo_ids, memo_low = neighbors, self._low
            # Slots are in range by construction; spare rows read zeros.
            return reduce(take(slots, axis=0, mode="clip"), 0, None, out)

        def combined_into(vertex: int, neighbors: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
            """``Γ(vertex)`` (zero outside the window) plus the gather."""
            gather_into(neighbors, out)
            if 0 <= vertex - self._low < size:
                add(out, table[vertex % rows], out=out)
            return out

        def record(pid: int, neighbors: np.ndarray) -> None:
            """Bump ``Γ_pid`` for every neighbor, then move the spare
            rows' ``pid`` cells into the case-2/case-3 loss counters."""
            nonlocal memo_ids
            if memo_ids is neighbors and memo_low == self._low:
                slots = memo_slots
            elif len(neighbors) == 0:
                memo_ids = None
                return
            else:
                slots = classify(neighbors)
            memo_ids = None  # one shot: never replayed
            add_at(columns[pid], slots, _ONE)
            past = cells[past_cell + pid]
            if past:
                cells[past_cell + pid] = 0
                self.skipped_past += past
            future = cells[future_cell + pid]
            if future:
                cells[future_cell + pid] = 0
                self.skipped_future += future

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

    def _classify(self, neighbors) -> np.ndarray:
        """The ring row of every id in ``neighbors`` (out-of-window ids
        on a spare row), in int64 for lists and 32-bit arrays alike."""
        return np.remainder(_clip(neighbors, self._past_arr,
                                  self._future_arr), self._rows_arr)

    def expectation_of(self, vertex: int) -> np.ndarray:
        """``Γ_i(vertex)``; zero vector if the id is outside the window."""
        if not (self._low <= vertex < self._low + self.window_size):
            return np.zeros(self.num_partitions, dtype=np.int64)
        return self._table[vertex % self._rows].astype(np.int64)

    def gather(self, neighbors: np.ndarray) -> np.ndarray:
        """Sum of in-window expectations over ``neighbors``: the
        allocating reference, with no shared buffer and no memo."""
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        return self._table[self._classify(neighbors)].sum(axis=0,
                                                          dtype=np.int64)

    def nbytes(self) -> int:
        """Bytes held by the ring: ``K (W + 2)`` counters."""
        return int(self._table.nbytes)

    def num_entries(self) -> int:
        """Counter cells: ``K (W + 2)``."""
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

    def _checkpoint_runs(self):
        """``(column, row, length)`` runs pairing the checkpoint's
        ``id mod W`` columns with the ring's rows: columns from
        ``low mod W`` hold ids from ``low`` up, the columns before them
        the rest, and each run of ids wraps the ring at most once."""
        low, size, rows = self._low, self.window_size, self._rows
        start = low % size
        for column, first, length in ((start, low, size - start),
                                      (0, low + size - start, start)):
            row = first % rows
            head = min(length, rows - row)
            yield column, row, head
            if head < length:
                yield column + head, 0, length - head

    def state_dict(self) -> dict:
        """Ring contents plus cursor and loss diagnostics; ``table`` is
        the partition-major ``(K, W)`` copy of ``id mod W`` columns."""
        table = np.empty((self.num_partitions, self.window_size),
                         dtype=np.int32)
        for c, r, n in self._checkpoint_runs():
            table[:, c:c + n] = self._table[r:r + n].T
        return {
            "kind": "window",
            "num_shards": int(self.num_shards),
            "window_size": int(self.window_size),
            "table": table,
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
        self._low = int(payload["low"])
        self._past_arr[()] = self._low - 1
        self._future_arr[()] = self._low + self.window_size
        self._table[:] = 0  # the spare rows
        for c, r, n in self._checkpoint_runs():
            self._table[r:r + n] = table[:, c:c + n].T
        self.skipped_future = int(payload["skipped_future"])
        self.skipped_past = int(payload["skipped_past"])
        self._bind()
