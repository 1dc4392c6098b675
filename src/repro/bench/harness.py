"""Benchmark harness: run any partitioner, collect every paper metric.

One :class:`BenchRecord` per (graph, partitioner) run carries the full
metric set of the paper's evaluation — ECR, δ_v, δ_e, PT, MC — plus
heuristic-specific stats.  ``run_partitioner`` dispatches on the
partitioner's interface (streaming partitioners take a stream, offline
ones take the graph) and turns simulated OOM into the paper's ``F``
entries instead of propagating.

Because wall-clock PT in Python inverts some of the paper's C++/Java
ratios (our offline baselines are NumPy-vectorized while streaming is
per-record), every record also carries ``work_units`` — the number of
edge traversals the method performs — which is the machine- and
language-independent efficiency measure EXPERIMENTS.md compares against
the paper's PT ratios.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

from ..graph.digraph import DiGraph
from ..graph.stream import GraphStream
from ..memory.tracker import measure_peak
from ..offline.multilevel import OutOfMemoryError
from ..partitioning.metrics import evaluate
from ..partitioning.registry import make_partitioner

__all__ = ["BenchRecord", "run_partitioner", "run_named"]


class _Partitioner(Protocol):
    name: str
    num_partitions: int


@dataclass
class BenchRecord:
    """All metrics of one partitioning run (one row of a paper table)."""

    graph: str
    partitioner: str
    num_partitions: int
    failed: bool = False
    ecr: float | None = None
    delta_v: float | None = None
    delta_e: float | None = None
    pt_seconds: float | None = None
    mc_bytes: int | None = None
    work_units: int | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    trace_path: str | None = None

    def as_row(self) -> dict:
        """Flat dict for the report tables ('F' marks simulated OOM)."""
        if self.failed:
            return {"graph": self.graph, "method": self.partitioner,
                    "K": self.num_partitions, "ECR": "F", "delta_v": "F",
                    "delta_e": "F", "PT(s)": "F",
                    "MC(MB)": "F" if self.mc_bytes is None
                    else round(self.mc_bytes / 1e6, 2)}
        row = {
            "graph": self.graph,
            "method": self.partitioner,
            "K": self.num_partitions,
            "ECR": round(self.ecr, 4),
            "delta_v": round(self.delta_v, 2),
            "delta_e": round(self.delta_e, 2),
            "PT(s)": round(self.pt_seconds, 3),
        }
        if self.mc_bytes is not None:
            row["MC(MB)"] = round(self.mc_bytes / 1e6, 2)
        if self.work_units is not None:
            row["work(|E|)"] = round(self.work_units, 1)
        return row


def _estimate_work_units(partitioner: Any, graph: DiGraph,
                         stats: dict[str, Any]) -> int:
    """Edge traversals performed, in multiples of |E|.

    Streaming methods scan each adjacency list once (LDG/FENNEL) or twice
    (SPN/SPNL also traverse it for the Γ update).  The multilevel baseline
    touches every remaining edge at each level for matching, contraction
    and its refinement passes; label propagation touches all edges every
    round.  Restreaming multiplies by passes.
    """
    name = getattr(partitioner, "name", type(partitioner).__name__)
    if "METIS" in name:
        levels = stats.get("levels", 1)
        passes = getattr(partitioner, "refine_passes", 8)
        # Level ℓ has roughly |E|/2^ℓ edges; matching+contract+refine
        # visit each ~(2 + passes) times.
        return int(2 * (2 + passes))  # Σ 1/2^ℓ ≈ 2
    if "XtraPuLP" in name:
        return int(2 * stats.get("rounds", getattr(partitioner, "rounds", 1)))
    if name.startswith("Re"):
        return 2 * getattr(partitioner, "num_passes", 1)
    if "SPN" in name:
        return 2  # score traversal + Γ update traversal
    return 1  # LDG/FENNEL/Hash/Range: one scan


def _supports_instrumentation(partitioner: Any) -> bool:
    """Whether ``partitioner.partition`` accepts ``instrumentation=``."""
    try:
        sig = inspect.signature(partitioner.partition)
    except (TypeError, ValueError, AttributeError):
        return False
    return "instrumentation" in sig.parameters


def run_partitioner(partitioner: Any, graph: DiGraph, *,
                    measure_memory: bool = False,
                    order=None, instrumentation: Any = None,
                    trace_path: str | Path | None = None) -> BenchRecord:
    """Run one partitioner on one graph and evaluate every metric.

    Streaming partitioners receive a fresh :class:`GraphStream` (id order
    unless ``order`` is given); offline partitioners receive the graph.
    A simulated :class:`OutOfMemoryError` produces a failed record (the
    paper's 'F'), not an exception.

    ``measure_memory=True`` wraps the run in tracemalloc: the recorded
    ``pt_seconds`` then carries tracing overhead, so tables measuring
    both PT and MC issue two separate runs.

    ``trace_path`` makes the run a traced one: a fresh
    :class:`~repro.observability.Instrumentation` hub with a
    :class:`~repro.observability.JsonlSink` is wired through the
    partitioner, and the resulting JSONL trace is recorded on the
    returned record (``trace_path``) as a first-class bench artifact
    alongside the metric row.  Alternatively pass an existing hub via
    ``instrumentation`` to aggregate several runs into shared sinks.
    Either is silently skipped for partitioners whose ``partition`` does
    not take the hook (the offline baselines).
    """
    owned_hub = None
    if trace_path is not None and instrumentation is None:
        from ..observability import Instrumentation, JsonlSink
        owned_hub = instrumentation = Instrumentation(
            [JsonlSink(trace_path)])
    instrumented = (instrumentation is not None
                    and _supports_instrumentation(partitioner))

    def _run():
        if hasattr(partitioner, "make_state") or hasattr(
                getattr(partitioner, "base", None), "make_state") or hasattr(
                partitioner, "base_factory"):
            stream = GraphStream(graph, order=order)
            if instrumented:
                return partitioner.partition(
                    stream, instrumentation=instrumentation)
            return partitioner.partition(stream)
        return partitioner.partition(graph)

    record = BenchRecord(graph=graph.name, partitioner=partitioner.name,
                         num_partitions=partitioner.num_partitions)
    try:
        if measure_memory:
            result, peak = measure_peak(_run)
            record.mc_bytes = peak
        else:
            result = _run()
    except OutOfMemoryError as exc:
        record.failed = True
        record.mc_bytes = exc.needed_bytes
        return record
    finally:
        if owned_hub is not None:
            owned_hub.close()

    quality = evaluate(graph, result.assignment)
    record.ecr = quality.ecr
    record.delta_v = quality.delta_v
    record.delta_e = quality.delta_e
    record.pt_seconds = result.elapsed_seconds
    record.stats = dict(result.stats)
    record.work_units = _estimate_work_units(partitioner, graph,
                                             record.stats)
    if trace_path is not None and instrumented:
        record.trace_path = str(trace_path)
    return record


def run_named(name: str, graph: DiGraph, num_partitions: int, *,
              measure_memory: bool = False, order=None,
              instrumentation: Any = None,
              trace_path: str | Path | None = None,
              **kwargs: Any) -> BenchRecord:
    """Registry-driven :func:`run_partitioner`: build by name, then run.

    ``kwargs`` are heuristic parameters (``slack``, ``lam``,
    ``num_shards``, …); unknown ones are dropped per factory so one
    sweep loop can drive heterogeneous methods.  Unknown *names* raise
    with the registered list.
    """
    partitioner = make_partitioner(name, num_partitions,
                                   ignore_unknown=True, **kwargs)
    return run_partitioner(partitioner, graph,
                           measure_memory=measure_memory, order=order,
                           instrumentation=instrumentation,
                           trace_path=trace_path)

