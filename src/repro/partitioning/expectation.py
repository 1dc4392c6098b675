"""Per-partition expectation tables Γ (paper Sec. IV-B).

``Γ_i(x)`` counts how many vertices already placed in partition ``P_i``
have an out-edge to ``x`` — i.e., how much ``P_i`` *expects* ``x`` to join
it.  Eq. 5 estimates the in-neighbor closeness of a candidate vertex ``v``
as ``Σ_{u ∈ N_out(v)} Γ_i(u)``: rather than looking up ``Γ_i(v)`` alone
(which only reflects ``v``'s own in-edges), the paper sums expectations
over ``v``'s out-neighborhood, rewarding partitions that expect the whole
neighborhood.  This module implements the two Γ storage strategies the
paper compares:

* :class:`FullExpectationStore` — a dense K×|V| counter matrix, the
  straightforward O(K|V|) design (Table IV's ``SPNL(X=1)`` row);
* :class:`~repro.partitioning.window.SlidingWindowStore` (sibling module)
  — the O(K|V|/X) fine-grained sliding window;
* :class:`HashedExpectationStore` — a capped-width table of
  ``num_buckets`` hashed rows, bounding Γ memory at O(B·K) independent
  of |V| (an *approximation*: colliding ids share counters).

All satisfy :class:`ExpectationStore`, so SPN/SPNL are agnostic to which
one they run on; the property test suite asserts the full and windowed
stores are *bit-identical* in behaviour when the window spans all
vertices, and that the hashed store is bit-identical to the full one
whenever ``num_buckets >= num_vertices`` (it switches to the identity
mapping there, making the table collision-free by construction).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

__all__ = ["ExpectationStore", "FullExpectationStore",
           "HashedExpectationStore", "INT32_SUM_END"]

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
        """Snapshot the mutable counter state (for checkpoint/restore)."""

    def load_state(self, payload: dict) -> None:
        """Restore :meth:`state_dict` output into this store."""


class FullExpectationStore:
    """Dense K×|V| expectation counters — maximal knowledge, O(K|V|) space.

    This is the un-optimized design whose memory footprint motivates the
    sliding window (paper Sec. V-A); it also serves as the ground truth the
    windowed store is verified against.
    """

    needs_advance = False

    def __init__(self, num_partitions: int, num_vertices: int) -> None:
        if num_partitions < 1 or num_vertices < 0:
            raise ValueError("invalid dimensions for expectation store")
        self.num_partitions = num_partitions
        self.num_vertices = num_vertices
        # Vertex-major layout: Γ(v) is one contiguous K-row, so the hot
        # gather (sum over a neighborhood's rows) touches d contiguous
        # chunks instead of K strided column picks.
        self._table = np.zeros((num_vertices, num_partitions),
                               dtype=np.int32)

    def advance_to(self, vertex: int) -> None:
        """No-op: every vertex is always tracked."""

    def expectation_of(self, vertex: int) -> np.ndarray:
        return self._table[vertex].astype(np.int64)

    def expectation_of_into(self, vertex: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, self._table[vertex])
        return out

    def gather(self, neighbors: np.ndarray) -> np.ndarray:
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        return self._table[neighbors].sum(axis=0, dtype=np.int64)

    def gather_into(self, neighbors: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        if len(neighbors) == 0:
            out[:] = 0
            return out
        # A fresh d-row gather costs less than ``take(out=)``, whose
        # bounds-checking mode copies through a bounce buffer.
        return np.add.reduce(self._table.take(neighbors, axis=0),
                             0, None, out)

    def combined_into(self, vertex: int, neighbors: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        self.gather_into(neighbors, out)
        return np.add(out, self._table[vertex], out=out)

    def record(self, pid: int, neighbors: np.ndarray) -> None:
        if len(neighbors) == 0:
            return
        np.add.at(self._table[:, pid], neighbors, _ONE)

    def nbytes(self) -> int:
        return int(self._table.nbytes)

    def num_entries(self) -> int:
        return int(self._table.size)

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

    def state_dict(self) -> dict:
        return {"kind": "full", "table": self._table.copy()}

    def load_state(self, payload: dict) -> None:
        if payload.get("kind") != "full":
            raise ValueError(
                f"snapshot holds a {payload.get('kind')!r} Γ store, this "
                "run uses the full table (different num_shards?)")
        table = payload["table"]
        if table.shape != self._table.shape:
            raise ValueError(
                f"snapshot Γ table shape {table.shape} does not match "
                f"{self._table.shape}")
        np.copyto(self._table, table)

    @property
    def window_size(self) -> int:
        """For API parity with the windowed store: the full id range."""
        return self.num_vertices


#: Knuth's multiplicative constant (2^32 / φ) for the bucket hash.
_HASH_MULT = np.uint64(2654435761)


class HashedExpectationStore:
    """Capped-width Γ: ``num_buckets`` hashed rows, O(B·K) space.

    The dense table's O(|V|·K) footprint is the memory wall for large
    ``V·K`` (paper Table IV); the sliding window cuts it but demands an
    id-ordered stream.  This store instead folds the id space onto a
    fixed number of buckets with a multiplicative hash, so memory is
    chosen up front and arrival order is unconstrained.  The price is
    *aliasing*: ids that share a bucket share counters, so Γ becomes an
    over-estimate (in the style of a one-row count-min sketch) and
    partition quality degrades gracefully as buckets shrink — measured
    in the ingest bench rather than assumed.

    When ``num_buckets >= num_vertices`` the hash is replaced by the
    identity mapping, making the store bit-identical to
    :class:`FullExpectationStore` (the property tests pin this).
    """

    needs_advance = False

    def __init__(self, num_partitions: int, num_vertices: int, *,
                 num_buckets: int) -> None:
        if num_partitions < 1 or num_vertices < 0:
            raise ValueError("invalid dimensions for expectation store")
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.num_partitions = num_partitions
        self.num_vertices = num_vertices
        self.num_buckets = min(num_buckets, max(num_vertices, 1))
        self._identity = self.num_buckets >= num_vertices
        # Bucket-major layout, same rationale as the dense store: one
        # gather touches d contiguous K-rows.
        self._table = np.zeros((self.num_buckets, num_partitions),
                               dtype=np.int32)
        self._idx_buf: np.ndarray | None = None

    # -- hashing -------------------------------------------------------
    def _bucket_of(self, vertex: int) -> int:
        if self._identity:
            return vertex
        # Emulate uint64 wraparound so the scalar and vector paths agree.
        return ((vertex * 2654435761) & 0xFFFFFFFFFFFFFFFF) \
            % self.num_buckets

    def _buckets(self, ids: np.ndarray) -> np.ndarray:
        if self._identity:
            return ids
        n = len(ids)
        buf = self._idx_buf
        if buf is None or buf.shape[0] < n:
            buf = np.empty(max(n, 64), dtype=np.uint64)
            self._idx_buf = buf
        idx = buf[:n]
        np.multiply(ids.astype(np.uint64, copy=False), _HASH_MULT, out=idx)
        np.mod(idx, np.uint64(self.num_buckets), out=idx)
        return idx

    # -- ExpectationStore API ------------------------------------------
    def advance_to(self, vertex: int) -> None:
        """No-op: every bucket is always live."""

    def expectation_of(self, vertex: int) -> np.ndarray:
        return self._table[self._bucket_of(vertex)].astype(np.int64)

    def expectation_of_into(self, vertex: int,
                            out: np.ndarray) -> np.ndarray:
        np.copyto(out, self._table[self._bucket_of(vertex)])
        return out

    def gather(self, neighbors: np.ndarray) -> np.ndarray:
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        return self._table[self._buckets(neighbors)].sum(axis=0,
                                                         dtype=np.int64)

    def gather_into(self, neighbors: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        if len(neighbors) == 0:
            out[:] = 0
            return out
        return np.add.reduce(self._table.take(
            self._buckets(neighbors).astype(np.int64, copy=False), axis=0),
            0, None, out)

    def combined_into(self, vertex: int, neighbors: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        self.gather_into(neighbors, out)
        return np.add(out, self._table[self._bucket_of(vertex)], out=out)

    def record(self, pid: int, neighbors: np.ndarray) -> None:
        if len(neighbors) == 0:
            return
        np.add.at(self._table[:, pid], self._buckets(neighbors), _ONE)

    def nbytes(self) -> int:
        return int(self._table.nbytes)

    def num_entries(self) -> int:
        return int(self._table.size)

    def shared_lanes(self) -> dict:
        """Mutable counter arrays the process-sharded executor shares."""
        return {"table": self._table}

    def attach_shared_lanes(self, lanes: dict) -> None:
        """Rebind the bucket table onto a shared-memory view."""
        table = lanes["table"]
        if table.shape != self._table.shape \
                or table.dtype != self._table.dtype:
            raise ValueError(
                f"shared Γ lane {table.shape}/{table.dtype} does not "
                f"match {self._table.shape}/{self._table.dtype}")
        self._table = table

    def state_dict(self) -> dict:
        return {"kind": "hashed", "table": self._table.copy(),
                "num_buckets": self.num_buckets}

    def load_state(self, payload: dict) -> None:
        if payload.get("kind") != "hashed":
            raise ValueError(
                f"snapshot holds a {payload.get('kind')!r} Γ store, this "
                "run uses the hashed table (different gamma_store?)")
        table = payload["table"]
        if table.shape != self._table.shape:
            raise ValueError(
                f"snapshot Γ table shape {table.shape} does not match "
                f"{self._table.shape} (different gamma_buckets?)")
        np.copyto(self._table, table)

    @property
    def window_size(self) -> int:
        """For API parity with the windowed store: the bucket range."""
        return self.num_buckets
