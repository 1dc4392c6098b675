"""Per-partition expectation tables Γ (paper Sec. IV-B).

``Γ_i(x)`` counts how many vertices already placed in partition ``P_i``
have an out-edge to ``x`` — i.e., how much ``P_i`` *expects* ``x`` to join
it.  Eq. 5 estimates the in-neighbor closeness of a candidate vertex ``v``
as ``Σ_{u ∈ N_out(v)} Γ_i(u)``: rather than looking up ``Γ_i(v)`` alone
(which only reflects ``v``'s own in-edges), the paper sums expectations
over ``v``'s out-neighborhood, rewarding partitions that expect the whole
neighborhood.  Γ is kept in one of three shapes:

* dense — :class:`FullExpectationStore` with one K-row per vertex id,
  the straightforward O(K|V|) design (Table IV's ``SPNL(X=1)`` row);
* hashed — the same class with ``num_buckets`` rows addressed by a
  multiplicative hash, bounding Γ memory at O(B·K) independent of |V|
  (an *approximation*: colliding ids share counters);
* windowed — :class:`~repro.partitioning.window.SlidingWindowStore`
  (sibling module), the O(K|V|/X) fine-grained sliding window.

All satisfy :class:`ExpectationStore`, so SPN/SPNL are agnostic to which
one they run on, and :func:`make_expectation_store` is the one place
that picks it from the run's ``num_shards`` and ``gamma_buckets``.  The
property test suite asserts the full and windowed stores are
*bit-identical* in behaviour when the window spans all vertices, and
that a hashed table is bit-identical to the dense one whenever
``num_buckets >= num_vertices`` (it maps ids by identity there, making
the table collision-free by construction).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .window import SlidingWindowStore, default_num_shards

__all__ = ["ExpectationStore", "FullExpectationStore", "INT32_SUM_END",
           "make_expectation_store"]

#: The increment in the tables' own dtype: ``np.add.at`` takes its
#: indexed fast path only when no cast stands between it and the table.
_ONE = np.int32(1)

#: A Γ counter never exceeds the edges recorded so far, so a sum of ``n``
#: counters fits the tables' int32 while ``n · placed_edges`` stays below
#: this; past it the scorers reduce into int64.
INT32_SUM_END = 2 ** 31


class ExpectationStore(Protocol):
    """Interface shared by the full and windowed Γ implementations."""

    num_partitions: int
    num_vertices: int

    #: Whether :meth:`advance_to` does real work.  The fused kernels skip
    #: the per-record call entirely when ``False`` (the full store).
    needs_advance: bool

    def advance_to(self, vertex: int) -> None:
        """Inform the store that ``vertex`` is now being streamed.

        Lets windowed implementations rotate; a no-op for the full store.
        """

    def expectation_of(self, vertex: int) -> np.ndarray:
        """``Γ_i(vertex)`` for every partition (length-K vector)."""

    def expectation_of_into(self, vertex: int, out: np.ndarray) -> np.ndarray:
        """:meth:`expectation_of` written into the preallocated ``out``."""

    def gather(self, neighbors: np.ndarray) -> np.ndarray:
        """``Σ_{u ∈ neighbors} Γ_i(u)`` for every partition."""

    def gather_into(self, neighbors: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """:meth:`gather` written into the preallocated ``out``.

        The rows are summed in ``out``'s dtype.  ``int64`` always holds
        the sum; a caller that can bound it (each counter is at most
        the edges recorded so far) may pass a buffer of the table's own
        dtype, which skips the widening cast — an integer sum that fits
        is exact at either width.
        """

    def combined_into(self, vertex: int, neighbors: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        """``Γ(vertex) + Σ_{u ∈ neighbors} Γ(u)`` written into ``out``.

        SPN's default in-term; summed in ``out``'s dtype like
        :meth:`gather_into`.
        """

    def record(self, pid: int, neighbors: np.ndarray) -> None:
        """Count the just-placed vertex's out-edges into ``Γ_pid``."""

    def nbytes(self) -> int:
        """Bytes held by the counter storage (for the memory model)."""

    def num_entries(self) -> int:
        """Live counter cells (K × tracked-id-range), for observability."""

    def state_dict(self) -> dict:
        """The mutable counter state, for checkpoint/restore: arrays may
        be the live counters, valid until the next :meth:`record` or
        :meth:`advance_to`; copy what must be kept."""

    def load_state(self, payload: dict) -> None:
        """Restore :meth:`state_dict` output into this store."""

    def gauges(self) -> dict:
        """The table's footprint, for probes and the result's stats."""

    def stats(self) -> dict:
        """:meth:`gauges` plus the store's own result stats."""


#: Knuth's multiplicative constant (2^32 / φ) for the bucket hash.
_HASH_MULT = np.uint64(2654435761)


class FullExpectationStore:
    """Γ over the whole id range in one table — dense or hashed.

    ``FullExpectationStore(k, n)`` is the dense K×|V| table: maximal
    knowledge in O(K|V|) space.  It is the un-optimized design whose
    memory footprint motivates the sliding window (paper Sec. V-A), and
    the ground truth the other stores are verified against.

    ``num_buckets=B`` caps the table at ``B`` rows, O(B·K) space whatever
    |V| and whatever the arrival order.  Ids fold onto rows by a
    multiplicative hash, so ids that share a row share counters: Γ
    becomes an over-estimate (a one-row count-min sketch) and partition
    quality degrades gracefully as rows shrink.  When ``B >= |V|`` ids
    map to rows by identity, so the table is bit-identical to the dense
    one (the property tests pin this); it still snapshots as hashed.

    The mapping is decided once, in :meth:`_bind`, which binds the
    fused-path access (``expectation_of_into``, ``gather_into``,
    ``combined_into``, ``record``) as closures over the live table and
    its per-partition column views: a placement step reaches numpy
    without an attribute lookup, a method hop or a fresh ``table[:, i]``
    view.  A table indexed by identity reads rows by id; a hashing table
    reads them through :meth:`_buckets`.  Whatever rebinds the table
    (:meth:`attach_shared_lanes`, a copy) binds the closures again.
    """

    needs_advance = False

    def __init__(self, num_partitions: int, num_vertices: int, *,
                 num_buckets: int | None = None) -> None:
        if num_partitions < 1 or num_vertices < 0:
            raise ValueError("invalid dimensions for expectation store")
        if num_buckets is not None and num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.num_partitions = num_partitions
        self.num_vertices = num_vertices
        #: ``None`` for the dense table, the row count of a hashed one.
        self.num_buckets = None if num_buckets is None \
            else min(num_buckets, max(num_vertices, 1))
        rows = num_vertices if num_buckets is None else self.num_buckets
        # Row-major layout: Γ of one id is one contiguous K-row, so the
        # hot gather (sum over a neighborhood's rows) touches d
        # contiguous chunks instead of K strided column picks.
        self._table = np.zeros((rows, num_partitions), dtype=np.int32)
        self._idx_buf: np.ndarray | None = None
        self._bind()

    def _bind(self) -> None:
        """(Re)bind the fused-path access to ``self._table``."""
        table = self._table
        columns = [table[:, pid] for pid in range(self.num_partitions)]
        take, add, add_at, copyto = table.take, np.add, np.add.at, np.copyto
        reduce = np.add.reduce
        if table.shape[0] >= self.num_vertices:
            # Ids are rows.  A fresh d-row gather costs less than
            # ``take(out=)``, whose bounds-checking mode copies through
            # a bounce buffer.
            def expectation_of_into(vertex: int,
                                    out: np.ndarray) -> np.ndarray:
                copyto(out, table[vertex])
                return out

            def gather_into(neighbors: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
                if len(neighbors) == 0:
                    out[:] = 0
                    return out
                return reduce(take(neighbors, axis=0), 0, None, out)

            def combined_into(vertex: int, neighbors: np.ndarray,
                              out: np.ndarray) -> np.ndarray:
                if len(neighbors) == 0:
                    copyto(out, table[vertex])
                    return out
                reduce(take(neighbors, axis=0), 0, None, out)
                return add(out, table[vertex], out=out)

            def record(pid: int, neighbors: np.ndarray) -> None:
                if len(neighbors):
                    add_at(columns[pid], neighbors, _ONE)
        else:
            buckets, bucket_of = self._buckets, self._bucket_of

            def expectation_of_into(vertex: int,
                                    out: np.ndarray) -> np.ndarray:
                copyto(out, table[bucket_of(vertex)])
                return out

            def gather_into(neighbors: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
                if len(neighbors) == 0:
                    out[:] = 0
                    return out
                return reduce(take(buckets(neighbors).astype(
                    np.int64, copy=False), axis=0), 0, None, out)

            def combined_into(vertex: int, neighbors: np.ndarray,
                              out: np.ndarray) -> np.ndarray:
                gather_into(neighbors, out)
                return add(out, table[bucket_of(vertex)], out=out)

            def record(pid: int, neighbors: np.ndarray) -> None:
                if len(neighbors):
                    add_at(columns[pid], buckets(neighbors), _ONE)

            self.expectation_of = self._hashed_expectation_of
            self.gather = self._hashed_gather
        self.expectation_of_into = expectation_of_into
        self.gather_into = gather_into
        self.combined_into = combined_into
        self.record = record

    def __getstate__(self) -> dict:
        # The bound access captures this table: a copy binds its own.
        return {key: value for key, value in self.__dict__.items()
                if not callable(value)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    # -- ExpectationStore API ------------------------------------------
    def advance_to(self, vertex: int) -> None:
        """No-op: every id (or bucket) is always tracked."""

    def expectation_of(self, vertex: int) -> np.ndarray:
        return self._table[vertex].astype(np.int64)

    def gather(self, neighbors: np.ndarray) -> np.ndarray:
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        return self._table[neighbors].sum(axis=0, dtype=np.int64)

    # -- ids hashed onto rows ------------------------------------------
    def _bucket_of(self, vertex: int) -> int:
        # Emulate uint64 wraparound so the scalar and vector paths agree.
        return ((vertex * 2654435761) & 0xFFFFFFFFFFFFFFFF) \
            % self.num_buckets

    def _buckets(self, ids: np.ndarray) -> np.ndarray:
        n = len(ids)
        buf = self._idx_buf
        if buf is None or buf.shape[0] < n:
            buf = np.empty(max(n, 64), dtype=np.uint64)
            self._idx_buf = buf
        idx = buf[:n]
        np.multiply(ids.astype(np.uint64, copy=False), _HASH_MULT, out=idx)
        np.mod(idx, np.uint64(self.num_buckets), out=idx)
        return idx

    def _hashed_expectation_of(self, vertex: int) -> np.ndarray:
        return self._table[self._bucket_of(vertex)].astype(np.int64)

    def _hashed_gather(self, neighbors: np.ndarray) -> np.ndarray:
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        return self._table[self._buckets(neighbors)].sum(axis=0,
                                                         dtype=np.int64)

    # -- footprint, sharing, snapshots ---------------------------------
    def nbytes(self) -> int:
        return int(self._table.nbytes)

    def num_entries(self) -> int:
        return int(self._table.size)

    def gauges(self) -> dict:
        return {"expectation_table_bytes": self.nbytes(),
                "expectation_table_entries": self.num_entries()}

    def stats(self) -> dict:
        stats = self.gauges()
        if self.num_buckets is not None:
            stats.update(gamma_store="hashed", gamma_buckets=self.num_buckets)
        return stats

    def shared_lanes(self) -> dict:
        """Mutable counter arrays the process-sharded executor shares."""
        return {"table": self._table}

    def attach_shared_lanes(self, lanes: dict) -> None:
        """Rebind the counter table onto a shared-memory view."""
        table = lanes["table"]
        if table.shape != self._table.shape \
                or table.dtype != self._table.dtype:
            raise ValueError(
                f"shared Γ lane {table.shape}/{table.dtype} does not "
                f"match {self._table.shape}/{self._table.dtype}")
        self._table = table
        self._bind()

    def grown(self, num_vertices: int) -> "FullExpectationStore":
        """A dense copy over ``num_vertices`` ids; the new ids count 0."""
        if self.num_buckets is not None or num_vertices < self.num_vertices:
            raise ValueError("only a dense table grows, and never shrinks")
        store = FullExpectationStore(self.num_partitions, num_vertices)
        store._table[:self.num_vertices] = self._table
        return store

    def state_dict(self) -> dict:
        if self.num_buckets is None:
            return {"kind": "full", "table": self._table}
        return {"kind": "hashed", "table": self._table,
                "num_buckets": self.num_buckets}

    def load_state(self, payload: dict) -> None:
        kind = "full" if self.num_buckets is None else "hashed"
        if payload.get("kind") != kind:
            raise ValueError(
                f"snapshot holds a {payload.get('kind')!r} Γ store, this "
                f"run uses the {kind} table (different num_shards or "
                "gamma_buckets?)")
        table = payload["table"]
        if table.shape != self._table.shape:
            raise ValueError(
                f"snapshot Γ table shape {table.shape} does not match "
                f"{self._table.shape} (different gamma_buckets?)")
        np.copyto(self._table, table)

    @property
    def window_size(self) -> int:
        """For API parity with the windowed store: the row range."""
        return self._table.shape[0]


def make_expectation_store(num_partitions: int, stream, *,
                           num_shards: int | str = 1,
                           gamma_buckets: int | str | None = None
                           ) -> ExpectationStore:
    """The one place a run's Γ table is chosen.

    ``gamma_buckets`` set means the hashed table (``"auto"`` is
    ``max(1024, |V| // 16)`` rows).  Otherwise ``num_shards`` resolved
    above 1 (``"auto"`` is :func:`default_num_shards`) means the sliding
    window, which needs an id-ordered ``stream``.  Otherwise the dense
    table.
    """
    n = stream.num_vertices
    if gamma_buckets is not None:
        if gamma_buckets == "auto":
            gamma_buckets = max(1024, n // 16)
        return FullExpectationStore(num_partitions, n,
                                    num_buckets=gamma_buckets)
    if num_shards == "auto":
        num_shards = default_num_shards(n, num_partitions)
    if num_shards <= 1:
        return FullExpectationStore(num_partitions, n)
    if not getattr(stream, "is_id_ordered", False):
        raise ValueError(
            "the sliding window (num_shards > 1) requires an id-ordered "
            "stream; use num_shards=1 for arbitrary arrival orders")
    return SlidingWindowStore(num_partitions, n, num_shards=int(num_shards))
