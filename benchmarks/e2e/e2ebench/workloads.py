"""The four workloads: one pass of each, cut into slices.

A pass does the same work at the same positions every time and times
the calibration loop (:mod:`e2ebench.calibration`) between its slices,
so its slice times can be combined across passes by
:func:`e2ebench.estimator.composite`.  Every pass can run plain or
traced (a span around each call into a layer's public function,
recorded into a :class:`~e2ebench.tracing.Tracer`).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.graph.digraph import AdjacencyRecord
from repro.graph.io import read_adjacency
from repro.graph.stream import FileStream, GraphStream
from repro.partitioning.persistence import load_assignment, save_assignment

from . import spec
from .calibration import NOMINAL_S, calibrate, slowdowns
from .checks import check_route, route_digest
from .inputs import Inputs, partition_config
from .procs import Children, vm_hwm_mib
from .tracing import ROOT_SPAN, Tracer

__all__ = ["BatchWorkload", "PassResult", "StampedStream", "Workload",
           "make_workload"]

_now = time.perf_counter


@contextmanager
def _no_span(name: str, parent: int | None) -> Iterator[None]:
    """Stands in for :meth:`Tracer.span` in a plain pass."""
    yield None


@dataclass
class PassResult:
    slices: list[float]
    #: Host slowdown around each slice (``calibration.slowdowns``).
    slowdown: list[float]
    #: int32 route table, -1 where the pass placed nothing.
    route: np.ndarray
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    #: Wall time of the measured part of the pass.
    wall_s: float = 0.0
    #: Server workloads only: spawn -> hello answered (on the nominal
    #: host, like every time the benchmark reports), the child's VmHWM,
    #: the ``stats`` body after the last request, the first request with
    #: its response, the fastest of a few ``health`` round trips, the
    #: client/transport share of a round trip, and the ``snapshot`` op's
    #: round trip and file size.
    boot_s: float | None = None
    rss_mib: float | None = None
    stats: dict[str, Any] | None = None
    sample: tuple[dict[str, Any], dict[str, Any]] | None = None
    rtt_floor_s: float | None = None
    client_share_s: float | None = None
    snapshot_s: float | None = None
    snapshot_bytes: int | None = None


class StampedStream:
    """Forwards a stream unchanged; every ``every`` records it stops
    the clock, times the calibration loop and starts the clock again,
    so a pass is cut into equal-work windows with a reading of the
    host's speed between them.

    ``gaps`` holds ``(clock stopped, clock restarted)`` of every
    boundary and ``readings`` the calibration result taken there.  With
    ``tracer`` the wrapper also times each ``next()`` on the inner
    stream and records, per window, a ``stream.iterate`` span (time
    inside the stream layer) and a ``partitioning.record_loop`` span
    (the rest of the window: the consumer's work on those records), and
    a ``host.calibrate`` span per boundary.
    """

    def __init__(self, inner, every: int, *, tracer: Tracer | None = None,
                 parent: int | None = None) -> None:
        self._inner = inner
        self._every = every
        self._tracer = tracer
        self._parent = parent
        self.gaps: list[tuple[float, float]] = []
        self.readings: list[float] = []

    @property
    def num_vertices(self) -> int:
        return self._inner.num_vertices

    @property
    def num_edges(self) -> int:
        return self._inner.num_edges

    @property
    def is_id_ordered(self) -> bool:
        return self._inner.is_id_ordered

    def __iter__(self) -> Iterator[AdjacencyRecord]:
        if self._tracer is not None:
            yield from self._iter_traced()
            return
        gaps, readings, every = self.gaps, self.readings, self._every
        count = 0
        for record in self._inner:
            if count and count % every == 0:
                stopped = _now()
                readings.append(calibrate())
                gaps.append((stopped, _now()))
            count += 1
            yield record

    def _iter_traced(self) -> Iterator[AdjacencyRecord]:
        every, tracer = self._every, self._tracer
        source = iter(self._inner)
        window_start = _now()
        inside = 0.0
        count = 0
        while True:
            before = _now()
            try:
                record = next(source)
            except StopIteration:
                inside += _now() - before
                break
            stopped = _now()
            inside += stopped - before
            if count and count % every == 0:
                # As in the plain pass, fetching the first record of a
                # window is the last thing the window before it does.
                self._close_window(window_start, stopped, inside)
                self.readings.append(calibrate())
                window_start, inside = _now(), 0.0
                tracer.add("host.calibrate", stopped, window_start,
                           self._parent)
                self.gaps.append((stopped, window_start))
            count += 1
            yield record
        self._close_window(window_start, _now(), inside)

    def _close_window(self, start: float, end: float, inside: float) -> None:
        self._tracer.add("stream.iterate", start, start + inside,
                         self._parent)
        self._tracer.add("partitioning.record_loop", start + inside, end,
                         self._parent)


class Workload:
    name: str
    #: Operations one pass completes (the numerator of records_per_s).
    records: int

    def __init__(self, inputs: Inputs, children: Children) -> None:
        self.inputs = inputs
        self.children = children
        self.n = inputs.graph.num_vertices

    def one_pass(self, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def latency_ms(self, position: np.ndarray, total: float) -> float:
        """``latency_p50_ms`` from the composite: its per-position
        slice times and their sum."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
class BatchWorkload(Workload):
    def __init__(self, inputs: Inputs, children: Children) -> None:
        super().__init__(inputs, children)
        self.records = self.n

    def latency_ms(self, position: np.ndarray, total: float) -> float:
        return total * 1e3  # file in -> result out

    def setup_seconds(self, repeats: int) -> list[float]:
        """Time fresh ``python`` children take to import ``repro`` and
        build the partitioner — what every CLI invocation pays before it
        touches the input — each divided by the host's slowdown around
        it, like a slice."""
        cfg = partition_config(window=self.name == "stream-window")
        code = (f"from repro import PartitionConfig; "
                f"PartitionConfig.from_dict({cfg.to_dict()!r}).make()")
        samples = []
        reading = calibrate(spec.STAGE_ROUNDS)
        for _ in range(repeats):
            start = _now()
            self.children.run([sys.executable, "-c", code])
            took = _now() - start
            before, reading = reading, calibrate(spec.STAGE_ROUNDS)
            samples.append(took / ((before + reading) / 2.0 / NOMINAL_S))
        return samples

    def child_pass(self) -> tuple[float, str]:
        """One pass in a fresh child: ``(VmHWM MiB, route digest)``."""
        run_py = Path(__file__).resolve().parent.parent / "run.py"
        out = self.children.run([
            sys.executable, str(run_py), "--child-pass", self.name,
            str(self.inputs.workdir)])
        rss, digest = out.split()[-2:]
        return float(rss), digest


def batch_file_work(path: Path, out_path: Path, tracer: Tracer | None):
    """text file -> read_adjacency -> GraphStream -> partition() ->
    save_assignment, with a calibration reading around every stage;
    returns the three stage times, their slowdowns and the result."""
    span = _no_span if tracer is None else tracer.span
    times: list[float] = []
    readings: list[float] = []
    with span(ROOT_SPAN, None) as root:
        def reading() -> float:
            with span("host.calibrate", root):
                readings.append(calibrate(spec.STAGE_ROUNDS))
            return _now()

        start = reading()
        with span("ingest.read_adjacency", root):
            graph = read_adjacency(path)
        times.append(_now() - start)
        start = reading()
        with span("stream.GraphStream", root):
            stream = GraphStream(graph)
        with span("partitioning.make", root):
            partitioner = partition_config().make()
        with span("partitioning.partition", root) as call:
            result = partitioner.partition(stream)
            end = _now()
            if tracer is not None:
                # The fused loop, as the library itself times it; what
                # is left of the call is set-up and tear-down.
                tracer.add("partitioning.kernel",
                           end - result.elapsed_seconds, end, call)
        times.append(_now() - start)
        start = reading()
        with span("persistence.save_assignment", root):
            save_assignment(result.assignment, out_path, graph=graph,
                            partitioner=result.partitioner)
        times.append(_now() - start)
        reading()
    return times, slowdowns(readings, [1, 1, 1]), result


def stream_window_work(path: Path, tracer: Tracer | None):
    """FileStream -> partition() with the sliding-window Gamma (X = 8);
    returns the 512-record window times, their slowdowns and the
    result."""
    span = _no_span if tracer is None else tracer.span
    with span(ROOT_SPAN, None) as root:
        with span("host.calibrate", root):
            first = calibrate()
        start = _now()
        with span("stream.FileStream", root):
            inner = FileStream(path)
        with span("partitioning.make", root):
            partitioner = partition_config(window=True).make()
        with span("partitioning.partition", root) as call:
            stream = StampedStream(inner, spec.WINDOW_SLICE,
                                   tracer=tracer, parent=call)
            result = partitioner.partition(stream)
        end = _now()
        with span("host.calibrate", root):
            last = calibrate()
    starts = [start, *(restarted for _, restarted in stream.gaps)]
    ends = [*(stopped for stopped, _ in stream.gaps), end]
    times = [e - s for s, e in zip(starts, ends)]
    readings = [first, *stream.readings, last]
    return times, slowdowns(readings, [1] * len(times)), result


class BatchFile(BatchWorkload):
    """Parser and fused kernel do all the work; the slices are the
    three stages.  This is what ``repro-partition partition`` runs."""

    name = "batch-file"

    def one_pass(self, tracer: Tracer | None = None) -> PassResult:
        out_path = self.inputs.workdir / "routes.txt"
        slices, slowdown, result = batch_file_work(
            self.inputs.adjacency_path, out_path, tracer)
        saved, _header = load_assignment(out_path)
        route = np.array(saved.route)
        problems = check_route(self.inputs.graph, route,
                               expect_placed=self.n)
        if not result.fast_path:
            problems.append("batch-file did not take the fused kernel")
        if not np.array_equal(route, self.inputs.reference_route):
            problems.append("saved route differs from the facade's route")
        return PassResult(slices, slowdown, route, self.n,
                          self.n - result.placements, problems,
                          wall_s=sum(slices))


class StreamWindow(BatchWorkload):
    """The paper's bounded-memory configuration: stream iteration, the
    record loop and the window store do the work; the slices are
    512-record windows."""

    name = "stream-window"

    def one_pass(self, tracer: Tracer | None = None) -> PassResult:
        slices, slowdown, result = stream_window_work(
            self.inputs.adjacency_path, tracer)
        route = np.array(result.assignment.route)
        problems = check_route(self.inputs.graph, route,
                               expect_placed=self.n)
        if result.fast_path:
            problems.append("stream-window took the fused kernel")
        if result.stats.get("num_shards") != spec.WINDOW_SHARDS:
            problems.append("stream-window did not use the window store")
        return PassResult(slices, slowdown, route, self.n,
                          self.n - result.placements, problems,
                          wall_s=sum(slices))


def child_pass(name: str, workdir: Path) -> tuple[float, str]:
    """Body of the fresh child: one pass over the files the parent
    wrote, then this process's own ``(VmHWM MiB, route digest)``."""
    path = workdir / "graph.adj"
    if name == "batch-file":
        result = batch_file_work(path, workdir / "routes-child.txt", None)[-1]
    else:
        result = stream_window_work(path, None)[-1]
    return vm_hwm_mib(), route_digest(result.assignment.route)


def make_workload(name: str, inputs: Inputs,
                  children: Children) -> Workload:
    # Imported here so the batch workloads' fresh-child pass (whose peak
    # RSS is a metric) never loads the service modules.
    from .serving import ServeBatch, ServeMixed
    classes = {cls.name: cls for cls in
               (BatchFile, StreamWindow, ServeBatch, ServeMixed)}
    return classes[name](inputs, children)
