"""Parallel-scaling benchmark: sequential vs process-sharded wall clock.

Measures the paper's Fig. 12 question on real cores: how does the
process-sharded executor's ``PT`` compare to the sequential pass at a
given ``parallelism`` (M) and worker count (N)?  The artifact
(``BENCH_parallel.json`` by default) records per-repeat times for both
sides plus the two correctness invariants that hold on *any* machine:

* ``identical`` — the process-sharded route table is byte-identical to
  the deterministic :class:`~repro.parallel.executor
  .SimulatedParallelPartitioner` at the same M (the executor's parity
  contract), and stable across repeats;
* ``ecr_delta_pct`` — the relative ECR drift of the RCT-delayed
  parallel placement versus the sequential one (the paper caps this
  at ~6%).

The *speedup* side is honest by construction: the machine fingerprint
embeds the usable CPU count, so a single-core container's numbers are
gated only against a single-core baseline (``bench compare`` refuses to
trust cross-affinity baselines silently), and the artifact carries a
``scaling_expected`` flag stating whether the host could have sped up
at all.  The ≥2.5x acceptance bar applies on hosts with ≥4 usable
cores, never here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

import numpy as np

from ..recovery.atomic import atomic_write_text
from .micro import _summary, machine_fingerprint

__all__ = ["bench_parallel_method", "run_parallel_scaling_bench"]


def bench_parallel_method(method: str, graph, k: int, *,
                          parallelism: int = 4,
                          num_workers: int | None = None,
                          warmup: int = 1, repeats: int = 5,
                          **kwargs) -> dict[str, Any]:
    """Bench one heuristic sequential-vs-process-sharded; returns a record.

    ``kwargs`` go to the partitioner factory (e.g. ``num_shards=1`` to
    pin SPN/SPNL to the dense Γ store, which the sharded executor
    requires anyway).
    """
    from ..graph.stream import GraphStream
    from ..parallel import (ProcessShardedPartitioner,
                            SimulatedParallelPartitioner)
    from ..partitioning.metrics import evaluate
    from ..partitioning.registry import make_partitioner

    def seq_factory():
        return make_partitioner(method, k, **kwargs)

    def par_factory():
        return ProcessShardedPartitioner(
            make_partitioner(method, k, **kwargs),
            parallelism=parallelism, num_workers=num_workers)

    for _ in range(warmup):
        seq_factory().partition(GraphStream(graph))
        par_factory().partition(GraphStream(graph))

    seq_times: list[float] = []
    par_times: list[float] = []
    seq_result = par_result = None
    identical = True
    for _ in range(repeats):
        # Interleaved pairs: frequency/cache drift hits both sides alike.
        prev_route = (None if par_result is None
                      else par_result.assignment.route)
        seq_result = seq_factory().partition(GraphStream(graph))
        par_result = par_factory().partition(GraphStream(graph))
        seq_times.append(seq_result.elapsed_seconds)
        par_times.append(par_result.elapsed_seconds)
        if prev_route is not None:
            # Determinism across repeats is part of the identity claim.
            identical = identical and np.array_equal(
                prev_route, par_result.assignment.route)

    # The parity contract: byte-identical to the simulated executor at
    # the same M.  One untimed reference run settles it.
    sim = SimulatedParallelPartitioner(
        make_partitioner(method, k, **kwargs),
        parallelism=parallelism).partition(GraphStream(graph))
    identical = identical and np.array_equal(
        par_result.assignment.route, sim.assignment.route)

    ecr_seq = evaluate(graph, seq_result.assignment).ecr
    ecr_par = evaluate(graph, par_result.assignment).ecr
    seq = _summary(seq_times)
    par = _summary(par_times)
    return {
        "method": method,
        "kwargs": {key: val for key, val in kwargs.items()},
        "parallelism": parallelism,
        "num_workers": num_workers,
        "sequential": seq,
        "parallel": par,
        "speedup_median": seq["median_s"] / par["median_s"],
        "identical": identical,
        "ecr_sequential": ecr_seq,
        "ecr_parallel": ecr_par,
        "ecr_delta_pct": ((ecr_par - ecr_seq) / ecr_seq * 100.0
                          if ecr_seq else 0.0),
        "records_per_s_sequential": graph.num_vertices / seq["median_s"],
        "records_per_s_parallel": graph.num_vertices / par["median_s"],
    }


def run_parallel_scaling_bench(
        *, n: int = 20000, k: int = 32, parallelism: int = 4,
        num_workers: int | None = None, warmup: int = 1, repeats: int = 5,
        seed: int = 11, methods: tuple[str, ...] = ("spnl",),
        out_path: str | Path | None = "BENCH_parallel.json",
        profile=None) -> dict[str, Any]:
    """Sequential-vs-sharded sweep on a synthetic web graph.

    Returns the artifact dict; when ``out_path`` is given it is also
    written there atomically (UTF-8 JSON, trailing newline).
    ``profile`` adds one extra profiled pass per timed side after the
    repeats.  The sharded side's profile covers the *coordinator*
    (dispatch, group assembly, merge) — cProfile cannot see into the
    worker processes — and its route is checked against the simulated
    executor, the same parity reference the timed runs use.
    """
    import os

    from ..graph.generators import community_web_graph

    if num_workers is None:
        cpus = os.cpu_count() or 1
        num_workers = max(1, min(parallelism, cpus))
    machine = machine_fingerprint()
    graph = community_web_graph(n, seed=seed)
    results = []
    for method in methods:
        kwargs = {"num_shards": 1} if method in ("spn", "spnl") else {}
        results.append(bench_parallel_method(
            method, graph, k, parallelism=parallelism,
            num_workers=num_workers, warmup=warmup, repeats=repeats,
            **kwargs))
    if profile is not None:
        from ..graph.stream import GraphStream
        from ..parallel import (ProcessShardedPartitioner,
                                SimulatedParallelPartitioner)
        from ..partitioning.registry import make_partitioner
        for rec in results:
            method, kwargs = rec["method"], rec["kwargs"]
            seq_ref = make_partitioner(method, k, **kwargs).partition(
                GraphStream(graph)).assignment.route
            profile.profile_stage(
                f"{method}/sequential",
                lambda m=method, kw=kwargs: make_partitioner(
                    m, k, **kw).partition(GraphStream(graph)),
                reference_s=rec["sequential"]["median_s"],
                check=lambda res, ref=seq_ref: bool(np.array_equal(
                    res.assignment.route, ref)))
            par_ref = SimulatedParallelPartitioner(
                make_partitioner(method, k, **kwargs),
                parallelism=parallelism).partition(
                    GraphStream(graph)).assignment.route
            profile.profile_stage(
                f"{method}/parallel",
                lambda m=method, kw=kwargs: ProcessShardedPartitioner(
                    make_partitioner(m, k, **kw),
                    parallelism=parallelism,
                    num_workers=num_workers).partition(
                        GraphStream(graph)),
                reference_s=rec["parallel"]["median_s"],
                check=lambda res, ref=par_ref: bool(np.array_equal(
                    res.assignment.route, ref)))
    artifact = {
        "benchmark": "parallel-scaling",
        "created_unix": time.time(),
        "machine": machine,
        "config": {
            "graph": "community_web",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "k": k,
            "parallelism": parallelism,
            "num_workers": num_workers,
            "warmup": warmup,
            "repeats": repeats,
            "seed": seed,
            # Honesty marker: workers can only overlap on real cores.
            # On a 1-CPU container the parallel side *cannot* beat the
            # sequential one; the gate compares against a same-
            # fingerprint baseline, never against a multicore bar.
            "scaling_expected": machine["cpu_count"] >= num_workers > 1,
        },
        "results": results,
    }
    if profile is not None:
        artifact["profile"] = profile.entry()
    if out_path is not None:
        atomic_write_text(
            Path(out_path),
            json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return artifact
