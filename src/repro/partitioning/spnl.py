"""SPNL — SPN enhanced with topology Locality (paper Sec. IV-C).

SPN's knowledge is still thin during the initial streaming phase, when few
vertices are physically placed.  SPNL fixes this with a *logical
pre-assignment*: before streaming, every vertex is tentatively assigned by
the O(2K) **Range** policy (consecutive id ranges → partitions), which is
accurate exactly when vertex ids carry topology locality — true for
BFS-crawled web graphs.  The placement rule becomes Eq. 6:

    pid = argmax_i w^t(i,v) · ( (1-λ)·Σ_{u∈N_out(v)} Γ_i^t(u)
            + λ·( (1-η_i^t)·|V_i^pt ∩ N_out(v)|
                  + η_i^t·|V_i^lt ∩ N_out(v)| ) )

where ``V_i^lt`` is the shrinking set of logically-assigned-but-not-yet-
placed vertices and the decay factor

    η_i^t = max(0, (|V_i^lt| - |V_i^pt|) / |V_i^lt|)

starts at 1 (trust the assumption) and decays toward 0 as physical
knowledge accumulates.  A vertex leaves ``V^lt`` the moment it is
physically placed — regardless of where — so the logical term only ever
counts genuinely unplaced neighbors.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.digraph import AdjacencyRecord
from ..graph.stream import VertexStream
from .assignment import UNASSIGNED
from .base import FastKernel, PartitionState, make_weight_updater
from .expectation import INT32_SUM_END
from .eta import ETA_SCHEDULES, EtaSchedule, resolve_eta_schedule
from .hashing import range_boundaries
from .registry import register
from .spn import SPNPartitioner

__all__ = ["SPNLPartitioner"]


@register("spnl", summary="SPNL — SPN + topology locality (Eq. 6)")
class SPNLPartitioner(SPNPartitioner):
    """The SPNL heuristic (Eq. 6) — the paper's headline partitioner.

    Accepts every :class:`SPNPartitioner` parameter (λ, sliding-window X,
    balance mode, slack) plus:

    Parameters
    ----------
    use_decay:
        ``True`` (default) selects the paper's η schedule; ``False``
        freezes η at 1.  Shorthand for the corresponding
        ``eta_schedule`` values.
    eta_schedule:
        Full control over the decay (paper Sec. IV-C future work): a
        name from :data:`repro.partitioning.eta.ETA_SCHEDULES`
        ("paper", "frozen", "linear", "sqrt"), a constant in [0, 1], or
        a callable ``(lt, pt, range_sizes) -> eta``.  Overrides
        ``use_decay`` when given.
    """

    def __init__(self, num_partitions: int, *, use_decay: bool = True,
                 eta_schedule: str | float | EtaSchedule | None = None,
                 **kwargs) -> None:
        super().__init__(num_partitions, **kwargs)
        self.use_decay = use_decay
        if eta_schedule is None:
            eta_schedule = "paper" if use_decay else "frozen"
        self.eta_schedule = resolve_eta_schedule(eta_schedule)
        self._boundaries: np.ndarray | None = None
        self._logical_pid: np.ndarray | None = None
        self._lt_counts: np.ndarray | None = None
        self._range_sizes: np.ndarray | None = None
        self._live_state: PartitionState | None = None

    @property
    def name(self) -> str:
        return "SPNL"

    # ------------------------------------------------------------------
    def _setup(self, stream: VertexStream, state: PartitionState) -> None:
        super()._setup(stream, state)
        self._live_state = state  # lets _probe_gauges read the live η
        n = stream.num_vertices
        self._boundaries = range_boundaries(n, self.num_partitions)
        # Precomputing each id's logical partition trades O(|V|) ints for
        # O(1) lookups in the hot loop; the O(2K) table of the paper is
        # recoverable from _boundaries and is what the memory model counts.
        self._logical_pid = (np.searchsorted(
            self._boundaries, np.arange(n), side="right") - 1).clip(
            0, self.num_partitions - 1).astype(np.int32)
        self._lt_counts = np.diff(self._boundaries).astype(np.int64)
        self._range_sizes = self._lt_counts.copy()

    def _eta(self, state: PartitionState) -> np.ndarray:
        """The per-partition decay η_i^t of Eq. 6 (pluggable schedule)."""
        return self.eta_schedule(self._lt_counts, state.vertex_counts,
                                 self._range_sizes)

    def _logical_intersections(self, state: PartitionState,
                               neighbors: np.ndarray) -> np.ndarray:
        """``|V_i^lt ∩ N_out(v)|``: unplaced neighbors by logical home."""
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        unplaced = neighbors[state.route[neighbors] == UNASSIGNED]
        if len(unplaced) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        return np.bincount(self._logical_pid[unplaced],
                           minlength=self.num_partitions).astype(np.int64)

    # ------------------------------------------------------------------
    def _score(self, record: AdjacencyRecord,
               state: PartitionState) -> np.ndarray:
        self.expectation_store.advance_to(record.vertex)
        in_term = self._in_term(record)
        out_physical = state.neighbor_partition_counts(record.neighbors)
        out_logical = self._logical_intersections(state, record.neighbors)
        eta = self._eta(state)
        out_term = (1.0 - eta) * out_physical + eta * out_logical
        combined = (1.0 - self.lam) * in_term + self.lam * out_term
        return combined * state.penalty_weights()

    def _after_commit(self, record: AdjacencyRecord, pid: int,
                      state: PartitionState) -> None:
        super()._after_commit(record, pid, state)
        # v leaves V^lt of its logical home the moment it is placed.
        self._lt_counts[self._logical_pid[record.vertex]] -= 1

    def _heuristic_state_dict(self) -> dict[str, Any]:
        payload = super()._heuristic_state_dict()
        # _boundaries / _logical_pid / _range_sizes are pure functions of
        # (|V|, K) and rebuilt by _setup; only the shrinking |V^lt| tally
        # is genuinely mutable.  The η schedule itself is stateless — it
        # reads (lt, pt, range_sizes), all of which the snapshot covers.
        payload["lt_counts"] = self._lt_counts
        return payload

    def _load_heuristic_state(self, payload: dict[str, Any]) -> None:
        super()._load_heuristic_state(payload)
        np.copyto(self._lt_counts, payload["lt_counts"])

    def score_lanes(self) -> dict[str, np.ndarray] | None:
        # _boundaries/_logical_pid/_range_sizes are static functions of
        # (|V|, K) rebuilt by every process's own _setup; only the
        # shrinking |V^lt| tally mutates between records.
        lanes = super().score_lanes()
        if lanes is None:
            return None
        lanes["lt_counts"] = self._lt_counts
        return lanes

    def attach_score_lanes(self, lanes: dict[str, np.ndarray]) -> None:
        lt = lanes.get("lt_counts")
        if lt is None or lt.shape != self._lt_counts.shape \
                or lt.dtype != self._lt_counts.dtype:
            raise ValueError(
                "shared lt_counts lane missing or mismatched "
                f"(expected {self._lt_counts.shape}/"
                f"{self._lt_counts.dtype})")
        # super() validates the full key set against (polymorphic)
        # score_lanes and binds the gamma_* lanes; lt_counts is ours.
        super().attach_score_lanes(lanes)
        self._lt_counts = lt

    # -- fused scoring pair ---------------------------------------------
    def _fast_kernel(self, state: PartitionState) -> FastKernel:
        """Fused Eq. 6 with a single shared-bincount count pass.

        Physical and logical intersections come from **one** bincount:
        each neighbor's tally id is its partition when placed, else
        ``K + logical_pid`` — the first K slots are ``|V_i^pt ∩ N|``,
        the next K are ``|V_i^lt ∩ N|`` (an unplaced neighbor is exactly
        one still logically assigned to its Range home) — and both are
        weighted by **one** int→float multiply with the 2K coefficient
        vector ``[1-η | η]``.  Under the paper's schedule that vector is
        *maintained* rather than recomputed: a commit changes |V^pt| on
        one lane and |V^lt| on one lane, so at most two lanes are
        refreshed per record with the same scalar IEEE sequence
        (``max(lt,1)`` in the denominator stands in for the seed's
        ``np.errstate`` masking, bit-identical since masked lanes clamp
        to 0).  Other schedules refill it per record to stay pluggable.
        """
        scratch = state.ensure_scratch()
        store = self.expectation_store
        k = self.num_partitions
        route = state.route
        in_term_into = self._make_in_term_into()
        scores, weights = scratch.scores, scratch.weights
        f1, f3 = scratch.f1, scratch.f3
        narrow, wide = scratch.i32, scratch.i1
        update_weights = make_weight_updater(state, weights)
        lam, one_minus_lam = self._lam_operands()
        lt_counts = self._lt_counts
        vertex_counts = state.vertex_counts
        range_sizes = self._range_sizes
        logical_pid = self._logical_pid
        # Maintained tally image: a vertex's count slot is its partition
        # once placed, else K + logical home.  A commit moves exactly one
        # entry, so scoring needs one ``take`` + one ``bincount``.
        combined = np.where(route >= 0, route,
                            logical_pid + np.int32(k)).astype(np.int32)
        paper_eta = self.eta_schedule is ETA_SCHEDULES["paper"]
        eta_schedule = self.eta_schedule
        advance_to = store.advance_to if store.needs_advance else None
        record_gamma = store.record
        two_k = 2 * k
        zeros_2k = np.zeros(two_k, dtype=np.int64)
        coef, weighted = np.empty(two_k), np.empty(two_k)
        one_minus_eta, eta_vec = coef[:k], coef[k:]
        out_physical, out_logical = weighted[:k], weighted[k:]

        if paper_eta:
            # Full fused compute once, then per-commit lane refreshes.
            np.subtract(lt_counts, vertex_counts, out=eta_vec)
            np.maximum(lt_counts, 1, out=one_minus_eta)
            np.divide(eta_vec, one_minus_eta, out=eta_vec)
            np.maximum(eta_vec, 0.0, out=eta_vec)
            np.subtract(1.0, eta_vec, out=one_minus_eta)

        # Memoryviews hand the lanes out as Python ints: the quotient
        # the int64 lanes would give, without boxing numpy scalars.
        lt_lane = memoryview(lt_counts)
        vertex_lane = memoryview(vertex_counts)
        home = memoryview(logical_pid)

        def score_into(v: int, neighbors: np.ndarray) -> np.ndarray:
            if advance_to is not None:
                advance_to(v)
            d = len(neighbors)
            in_term = in_term_into(
                v, neighbors,
                narrow if (d + 1) * state.placed_edges < INT32_SUM_END
                else wide)
            if not paper_eta:
                eta = eta_schedule(lt_counts, vertex_counts, range_sizes)
                np.subtract(1.0, eta, out=one_minus_eta)
                eta_vec[...] = eta
            np.multiply(
                np.bincount(combined[neighbors], minlength=two_k) if d
                else zeros_2k, coef, out=weighted)
            # Eq. 6's bracketed out-term
            np.add(out_physical, out_logical, out=f3)
            np.multiply(in_term, one_minus_lam, out=f1)
            np.multiply(f3, lam, out=f3)
            np.add(f1, f3, out=scores)
            np.multiply(scores, weights, out=scores)
            return scores

        def after_commit(v: int, neighbors: np.ndarray, pid: int) -> None:
            record_gamma(pid, neighbors)
            combined[v] = pid
            lv = home[v]
            lt_lane[lv] -= 1
            if paper_eta:
                # Refresh η on the lanes the commit moved: |V^lt| on the
                # logical home, |V^pt| on the chosen partition.
                lt = lt_lane[lv]
                e = (lt - vertex_lane[lv]) / (lt if lt > 1 else 1)
                if e < 0.0:
                    e = 0.0
                eta_vec[lv] = e
                one_minus_eta[lv] = 1.0 - e
                if lv != pid:
                    lt = lt_lane[pid]
                    e = (lt - vertex_lane[pid]) / (lt if lt > 1 else 1)
                    if e < 0.0:
                        e = 0.0
                    eta_vec[pid] = e
                    one_minus_eta[pid] = 1.0 - e
            update_weights(pid)

        return score_into, after_commit

    def _extra_stats(self) -> dict[str, Any]:
        stats = super()._extra_stats()
        stats["use_decay"] = self.use_decay
        stats["eta_schedule"] = getattr(self.eta_schedule, "__name__",
                                        str(self.eta_schedule))
        return stats

    def _probe_gauges(self) -> dict[str, Any]:
        gauges = super()._probe_gauges()
        if self._live_state is not None and self._lt_counts is not None:
            # Mean decay factor: how much the heuristic still leans on the
            # logical pre-assignment at this point of the stream.
            eta = np.asarray(self._eta(self._live_state), dtype=np.float64)
            gauges["eta_mean"] = float(eta.mean()) if eta.ndim else float(eta)
        return gauges
