"""One run of one workload: passes, estimator, checks, metrics.

Two kinds of run share the pass loop:

* the **timed** run (``--trace 0``) yields the end-to-end metrics, every
  time among them in seconds of the nominal host
  (:mod:`e2ebench.calibration`);
* the **traced** run (``--trace 1``) repeats the workload with spans
  around every call into a layer, runs the layer probes, and yields the
  per-layer metrics.  End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from . import spec
from .checks import quality, route_digest
from .estimator import composite
from .inputs import make_inputs
from .procs import Children, WorkDir, one_cpu
from .tracing import Tracer
from .workloads import BatchWorkload, PassResult, make_workload

__all__ = ["PassLog", "RunResult", "run_workload"]

_now = time.perf_counter


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    digest: str
    #: Measured passes (the warm-up not counted).
    passes: int
    #: Traced run: the layer table and closure lines, ready to print.
    tables: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def payload(self) -> dict[str, Any]:
        """The one-line JSON result the driver reads."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


class PassLog:
    """Runs passes of one workload and keeps the run's bookkeeping."""

    def __init__(self, workload, deadline: float, quick: bool) -> None:
        self.workload = workload
        #: ``perf_counter`` value by which the run's passes must be over.
        self.deadline = deadline
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        #: The longest a pass has taken, checks and server start included.
        self.longest_pass = 0.0

    def run(self, tracer: Tracer | None = None) -> PassResult:
        if tracer is not None:
            tracer.pass_number += 1
        start = _now()
        result = self.workload.one_pass(tracer)
        self.account(result)
        self.digests.add(route_digest(result.route))
        self.longest_pass = max(self.longest_pass, _now() - start)
        return result

    def account(self, result: PassResult) -> None:
        """Count a pass's operations and check failures into the run."""
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += result.problems

    def more_passes(self, done: int, *, each: int = 1,
                    reserve: float = 0.0) -> bool:
        """Whether a pass loop goes round again: as long as ``each``
        more passes end ``reserve`` seconds before the deadline, and at
        least twice; exactly ``QUICK_PASSES`` times in a quick run."""
        if self.quick:
            return done < spec.QUICK_PASSES
        return done < 2 or (_now() + each * self.longest_pass
                            < self.deadline - reserve)


def _timed_run(workload, log: PassLog
               ) -> tuple[dict[str, tuple[float, str]], int]:
    """The set-up and memory measurements, then passes until the
    deadline (at least two); returns the end-to-end metrics."""
    if isinstance(workload, BatchWorkload):
        setup = workload.setup_seconds(
            2 if log.quick else spec.SETUP_CHILDREN)
        child_rss, child_digest = workload.child_pass()
        log.digests.add(child_digest)
    results: list[PassResult] = []
    while log.more_passes(len(results)):
        results.append(log.run())
    if isinstance(workload, BatchWorkload):
        rss = [child_rss]
    else:
        setup = [r.boot_s for r in results]
        rss = [r.rss_mib for r in results]
    position, total = composite([r.slices for r in results],
                                [r.slowdown for r in results])
    locality, delta_v = quality(workload.inputs.graph, results[-1].route)
    values = {
        "setup_s": statistics.median(setup),
        "records_per_s": workload.records / total,
        "latency_p50_ms": workload.latency_ms(position, total),
        "peak_rss_mb": statistics.median(rss),
        "edge_locality": locality,
        "delta_v": delta_v,
    }
    return {m.name: (values[m.name], m.unit)
            for m in spec.END_TO_END}, len(results)


#: Seconds kept free at the end of a run for the checks after the last
#: pass, tearing down and printing.
WRAP_UP_SECONDS = 0.5


def run_workload(name: str, seed: int, seconds: float, *, traced: bool,
                 quick: bool = False, trace_out=None) -> RunResult:
    """One run, over ``seconds`` seconds after this call: generating
    the inputs, the warm-up pass and the set-up measurements come out of
    the same budget as the measured passes."""
    deadline = _now() + seconds - WRAP_UP_SECONDS
    with one_cpu(), WorkDir() as workdir, Children() as children:
        inputs = make_inputs(seed, workdir)
        workload = make_workload(name, inputs, children)
        log = PassLog(workload, deadline, quick)
        log.run()  # warm-up, discarded: page cache, .pyc files, allocator
        tables: list[str] = []
        if traced:
            from .layers import per_layer_metrics
            metrics, passes, tables = per_layer_metrics(
                workload, log, trace_out)
        else:
            metrics, passes = _timed_run(workload, log)
        if len(log.digests) != 1:
            log.problems.append(
                f"passes disagree on the route table: {sorted(log.digests)}")
        children.close()
        children.assert_reaped()
    if workdir.exists():
        log.problems.append(f"scratch directory left behind: {workdir}")
    return RunResult(
        workload=name, seed=seed, traced=traced, metrics=metrics,
        attempted=log.attempted, failed=log.failed,
        problems=sorted(set(log.problems)),
        digest=sorted(log.digests)[0], passes=passes, tables=tables)
