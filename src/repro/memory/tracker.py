"""Measured memory consumption via ``tracemalloc``.

Complements the analytic models in :mod:`repro.memory.model` with real
peak-allocation numbers for the MC columns of Table IV and Figure 7(a).
``tracemalloc`` adds interpreter overhead, so PT and MC are measured in
separate runs by the benchmark harness — never simultaneously.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["PeakMemory", "trace_peak", "measure_peak"]


@dataclass
class PeakMemory:
    """Peak allocation observed inside a :func:`trace_peak` block."""

    peak_bytes: int = 0


@contextmanager
def trace_peak() -> Iterator[PeakMemory]:
    """Context manager measuring the peak Python allocation inside it.

    Nested use is not supported (tracemalloc is process-global); the
    benchmark harness serializes all measured runs.
    """
    holder = PeakMemory()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        yield holder
    finally:
        _, peak = tracemalloc.get_traced_memory()
        holder.peak_bytes = int(peak)
        if not was_tracing:
            tracemalloc.stop()


def measure_peak(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` and return ``(its result, peak bytes allocated)``."""
    with trace_peak() as peak:
        result = fn()
    return result, peak.peak_bytes
