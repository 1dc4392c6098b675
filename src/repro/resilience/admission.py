"""Admission control: shed load *before* the queue saturates.

The PR-6 server had exactly one overload response: ``backpressure``
when the bounded engine queue was completely full.  That is a backstop,
not a policy — by the time the queue is full, every queued request is
already paying worst-case latency, and the clients that *will* be
rejected have already burned a round trip to find out.  Production
admission control sheds earlier and smarter:

* **Queue-depth watermark** — reject ``place`` traffic with
  ``overloaded`` once the queue passes a fraction of its capacity,
  keeping headroom for the read path and for in-flight bursts to
  complete.  ``backpressure`` remains the final backstop for the race
  where the queue fills between the check and the put.
* **Engine-lag watermark** — queue *depth* understates overload when
  groups are slow (a throttled disk, a degraded engine).  The
  controller tracks an EWMA of per-request apply time; depth × EWMA is
  the expected wait, and beyond ``max_lag_seconds`` the server is
  overloaded no matter how short the queue looks.
* **Deadline budgets** — a request carrying ``deadline_ms`` (protocol
  v1.1, additive) is rejected up front with ``deadline_exceeded`` when
  the expected wait already exceeds its remaining budget: failing in
  microseconds is strictly kinder than failing after the deadline has
  been missed — the client has the freshest possible signal to try a
  replica or degrade its own answer.

Every shed is counted per error code; ``shed_rate`` (sheds over total
admission decisions) is the headline number the overload bench records
and the chaos harness bounds.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = ["AdmissionController", "AdmissionDecision"]


class AdmissionDecision:
    """One rejected admission: a typed error code + human message."""

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        self.message = message


class AdmissionController:
    """Watermark + deadline admission for one bounded engine queue.

    Parameters
    ----------
    queue_capacity:
        The engine queue bound (``queue_depth`` on the server).
    shed_watermark:
        Fraction of capacity beyond which ``place`` traffic sheds with
        ``overloaded``.  ``1.0`` disables early shedding (the full
        queue still answers ``backpressure``).
    max_lag_seconds:
        Expected-wait ceiling (depth × EWMA apply seconds per request);
        ``None`` disables the lag watermark.
    ewma_alpha:
        Smoothing of the per-request apply-time estimate.
    """

    def __init__(self, queue_capacity: int, *,
                 shed_watermark: float = 0.85,
                 max_lag_seconds: float | None = None,
                 ewma_alpha: float = 0.2) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if not 0.0 < shed_watermark <= 1.0:
            raise ValueError("shed_watermark must be in (0, 1]")
        if max_lag_seconds is not None and max_lag_seconds <= 0:
            raise ValueError("max_lag_seconds must be > 0")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.queue_capacity = queue_capacity
        self.shed_watermark = shed_watermark
        self.max_lag_seconds = max_lag_seconds
        self._ewma_alpha = ewma_alpha
        self._watermark_depth = max(
            1, math.ceil(shed_watermark * queue_capacity))
        self._lock = threading.Lock()
        self._ewma_request_seconds = 0.0
        self._accepted = 0
        self._shed: dict[str, int] = {}

    # -- engine feedback -----------------------------------------------
    def observe_group(self, seconds: float, requests: int) -> None:
        """Feed one applied engine group's timing into the lag EWMA."""
        if requests < 1:
            return
        per_request = seconds / requests
        with self._lock:
            if self._ewma_request_seconds == 0.0:
                self._ewma_request_seconds = per_request
            else:
                a = self._ewma_alpha
                self._ewma_request_seconds = (
                    a * per_request + (1 - a) * self._ewma_request_seconds)

    def expected_wait(self, queue_depth: int,
                      inflight: int = 0) -> float:
        """Estimated seconds a request admitted now waits for its ack.

        ``inflight`` counts requests already dequeued but not yet acked
        — with a pipelined WAL, the group in the server's commit stage
        is applied and waiting on its fsync outside the state lock,
        invisible to queue depth but still ahead of this request in the
        ack order.
        """
        with self._lock:
            return (queue_depth + inflight + 1) \
                * self._ewma_request_seconds

    # -- the admission decision ----------------------------------------
    def admit(self, queue_depth: int, *,
              deadline_remaining: float | None = None,
              inflight: int = 0) -> AdmissionDecision | None:
        """Decide one mutating request; ``None`` admits it.

        ``deadline_remaining`` is the request's remaining budget in
        seconds (``None`` when the client sent no ``deadline_ms``);
        ``inflight`` is the dequeued-but-unacked pipeline depth (see
        :meth:`expected_wait`).  The caller counts the outcome via
        :meth:`count_accept` / :meth:`count_shed` once it is final —
        the queue put can still fail, and that shed must be attributed
        to ``backpressure``.
        """
        if deadline_remaining is not None:
            if deadline_remaining <= 0:
                return AdmissionDecision(
                    "deadline_exceeded",
                    "deadline budget exhausted before admission")
            wait = self.expected_wait(queue_depth, inflight)
            if wait > deadline_remaining:
                return AdmissionDecision(
                    "deadline_exceeded",
                    f"expected engine wait {wait * 1e3:.1f} ms exceeds "
                    f"the request's remaining deadline budget "
                    f"{deadline_remaining * 1e3:.1f} ms")
        if queue_depth >= self._watermark_depth:
            return AdmissionDecision(
                "overloaded",
                f"engine queue depth {queue_depth} is past the shed "
                f"watermark ({self._watermark_depth} of "
                f"{self.queue_capacity}); retry shortly")
        if self.max_lag_seconds is not None:
            wait = self.expected_wait(queue_depth, inflight)
            if wait > self.max_lag_seconds:
                return AdmissionDecision(
                    "overloaded",
                    f"expected engine wait {wait * 1e3:.1f} ms is past "
                    f"the {self.max_lag_seconds * 1e3:.0f} ms lag "
                    f"watermark; retry shortly")
        return None

    # -- accounting ----------------------------------------------------
    def count_accept(self) -> None:
        with self._lock:
            self._accepted += 1

    def count_shed(self, code: str) -> None:
        with self._lock:
            self._shed[code] = self._shed.get(code, 0) + 1

    def stats(self) -> dict[str, Any]:
        with self._lock:
            shed_total = sum(self._shed.values())
            decisions = self._accepted + shed_total
            return {
                "accepted": self._accepted,
                "shed": dict(sorted(self._shed.items())),
                "shed_total": shed_total,
                "shed_rate": (shed_total / decisions) if decisions else 0.0,
                "watermark_depth": self._watermark_depth,
                "ewma_request_seconds": self._ewma_request_seconds,
            }
