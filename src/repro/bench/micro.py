"""Microbenchmark harness for the vectorized streaming hot path.

Measures each heuristic's fused scoring kernel against the reference
kernel derived from ``_score``/``_after_commit``
(``partition(..., fast=False)`` — same placement loop, seed scoring) for
every heuristic that ships a fused kernel, in the style of
redisbench-admin: explicit warmup runs, a fixed
number of timed repeats, median + stdev reporting, and a machine
fingerprint embedded in the artifact so numbers from different hosts are
never compared blindly.

The artifact (``BENCH_streaming.json`` at the repo root by default)
records per-run times for both paths, the median speedup, and whether
the two paths produced byte-identical assignments on every repeat — a
benchmark run that loses identity is a correctness bug, not a perf win,
and is flagged in the artifact.

Timing uses each run's ``elapsed_seconds`` — the paper's ``PT`` window
(first record consumed → route table complete) — so stream construction
and result assembly are excluded from both sides equally.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np

from ..recovery.atomic import atomic_write_text

__all__ = ["DEFAULT_METHODS", "git_revision", "machine_fingerprint",
           "bench_method", "run_streaming_microbench"]

#: Heuristics with fused kernels, benched fast-vs-seed by default.
DEFAULT_METHODS = ("ldg", "fennel", "spn", "spnl")


def _available_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's logical CPUs even when the
    process is pinned to a subset (containers, ``taskset``, cgroups) —
    an honest benchmark fingerprint must report the usable count.
    """
    import os
    getter = getattr(os, "process_cpu_count", None)  # Python >= 3.13
    if getter is not None:
        count = getter()
        if count:
            return int(count)
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux fallbacks
        return int(os.cpu_count() or 1)


def git_revision() -> tuple[str | None, bool | None]:
    """``(short_commit, dirty)`` of the checkout the bench code runs from.

    Bench artifacts used to be written with no record of *which code*
    produced the numbers, so two ``BENCH_*.json`` files could not be
    attributed to commits when compared.  Resolution is best-effort:
    the repository containing this module is asked first (an editable
    install), then the process working directory; without git or a
    checkout both values are ``None`` — never a guess.
    """
    import subprocess

    for where in (Path(__file__).resolve().parent, Path.cwd()):
        try:
            commit = subprocess.run(
                ["git", "-C", str(where), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(where), "status", "--porcelain"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout
        except Exception:
            continue
        if commit:
            return commit, bool(status.strip())
    return None, None


def machine_fingerprint() -> dict[str, Any]:
    """Host + code description embedded in every benchmark artifact."""
    import os
    commit, dirty = git_revision()
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Affinity-aware: what this process can use, not what the host
        # has.  The raw host count is kept alongside for context.
        "cpu_count": _available_cpu_count(),
        "cpu_count_logical": os.cpu_count(),
        # Which code produced the numbers (None outside a git checkout).
        # Excluded from the baseline fingerprint *key* on purpose.
        "commit": commit,
        "dirty": dirty,
    }


def _paired_runs(factory, stream_factory, *, warmup: int, repeats: int
                 ) -> tuple[list[float], list[float], bool]:
    """Interleaved fast/seed passes: warmup each, then paired repeats.

    Pairing the two paths inside every repeat makes the speedup ratio
    robust against slow machine drift (frequency scaling, cache state)
    that would bias an all-fast-then-all-seed schedule.  Returns
    ``(fast_times, seed_times, identical, parse_times)`` where
    ``identical`` is True iff every pair produced byte-equal route
    tables and ``parse_times`` holds every stream-construction (parse
    phase) duration, two per repeat.
    """
    for _ in range(warmup):
        factory().partition(stream_factory(), fast=True)
        factory().partition(stream_factory(), fast=False)
    fast_times: list[float] = []
    seed_times: list[float] = []
    parse_times: list[float] = []
    identical = True
    for _ in range(repeats):
        # Phase split: stream construction (parse/setup) is timed apart
        # from the scoring pass (``elapsed_seconds`` — the paper's PT
        # window), so artifacts separate ingest cost from kernel cost.
        t0 = time.perf_counter()
        fast_stream = stream_factory()
        parse_times.append(time.perf_counter() - t0)
        fast_result = factory().partition(fast_stream, fast=True)
        t0 = time.perf_counter()
        seed_stream = stream_factory()
        parse_times.append(time.perf_counter() - t0)
        seed_result = factory().partition(seed_stream, fast=False)
        fast_times.append(fast_result.elapsed_seconds)
        seed_times.append(seed_result.elapsed_seconds)
        identical = identical and np.array_equal(
            fast_result.assignment.route, seed_result.assignment.route)
    return fast_times, seed_times, identical, parse_times


def _summary(times: list[float]) -> dict[str, Any]:
    return {
        "median_s": statistics.median(times),
        "stdev_s": statistics.stdev(times) if len(times) > 1 else 0.0,
        "min_s": min(times),
        "max_s": max(times),
        "runs_s": times,
    }


def bench_method(method: str, graph, k: int, *, warmup: int = 1,
                 repeats: int = 5, **kwargs) -> dict[str, Any]:
    """Bench one heuristic fast-vs-seed on ``graph``; returns a record.

    ``kwargs`` are forwarded to the partitioner factory (e.g.
    ``num_shards=1`` to pin SPN/SPNL to the dense Γ store).
    """
    from ..graph.stream import GraphStream
    from ..partitioning.registry import make_partitioner

    def factory():
        return make_partitioner(method, k, **kwargs)

    def stream_factory():
        return GraphStream(graph)

    fast_times, seed_times, identical, parse_times = _paired_runs(
        factory, stream_factory, warmup=warmup, repeats=repeats)
    fast = _summary(fast_times)
    seed = _summary(seed_times)
    return {
        "method": method,
        "kwargs": {key: val for key, val in kwargs.items()},
        "fast": fast,
        "seed": seed,
        "parse_phase": _summary(parse_times),
        "speedup_median": seed["median_s"] / fast["median_s"],
        "identical": identical,
        "records_per_s_fast": graph.num_vertices / fast["median_s"],
        "records_per_s_seed": graph.num_vertices / seed["median_s"],
    }


def run_streaming_microbench(
        *, n: int = 20000, k: int = 32, warmup: int = 1, repeats: int = 5,
        seed: int = 11, methods: tuple[str, ...] = DEFAULT_METHODS,
        out_path: str | Path | None = "BENCH_streaming.json",
        profile=None) -> dict[str, Any]:
    """Full fast-vs-seed sweep on a synthetic web graph; optional JSON.

    Returns the artifact dict; when ``out_path`` is given it is also
    written there (UTF-8 JSON, trailing newline).  ``profile`` (a
    :class:`repro.bench.profile.BenchProfiler`) adds one *extra*
    profiled fast-path pass per method after the timed repeats — the
    timed samples above are untouched, and each profiled pass's route
    table is checked byte-identical against an unprofiled reference.
    """
    from ..graph.generators import community_web_graph

    graph = community_web_graph(n, seed=seed)
    results = []
    for method in methods:
        kwargs = {"num_shards": 1} if method in ("spn", "spnl") else {}
        results.append(bench_method(method, graph, k, warmup=warmup,
                                    repeats=repeats, **kwargs))
    if profile is not None:
        from ..graph.stream import GraphStream
        from ..partitioning.registry import make_partitioner
        for rec in results:
            method, kwargs = rec["method"], rec["kwargs"]
            reference = make_partitioner(method, k, **kwargs).partition(
                GraphStream(graph), fast=True).assignment.route
            profile.profile_stage(
                f"{method}/fast",
                lambda m=method, kw=kwargs: make_partitioner(
                    m, k, **kw).partition(GraphStream(graph), fast=True),
                reference_s=rec["fast"]["median_s"],
                check=lambda res, ref=reference: bool(np.array_equal(
                    res.assignment.route, ref)))
    artifact = {
        "benchmark": "streaming-hot-path",
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": {
            "graph": "community_web",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "k": k,
            "warmup": warmup,
            "repeats": repeats,
            "seed": seed,
        },
        "results": results,
    }
    if profile is not None:
        artifact["profile"] = profile.entry()
    if out_path is not None:
        # Atomic write: never leave a truncated artifact where a prior
        # complete one stood (CI diffs these files across runs).
        atomic_write_text(
            Path(out_path),
            json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return artifact
