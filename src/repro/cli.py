"""Command-line interface: ``repro-partition`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Build a synthetic graph (or a named benchmark stand-in) and write it
    as an adjacency-list file.
``partition``
    Stream a graph file through a chosen partitioner and write the
    vertex-assignment route table.
``evaluate``
    Score an existing route table against its graph (ECR, δ_v, δ_e).
``bench``
    Regenerate one of the paper's tables/figures on the stand-ins, run
    a microbench (optionally under ``--profile``), compare/promote
    artifacts, or ``export``/``dashboard`` the perf history.
``info``
    Print dataset statistics for a graph file or named stand-in.
``serve``
    Run the long-lived placement service (partition-as-a-service) in
    the foreground; SIGTERM/SIGINT drain gracefully.
``serve-bench``
    Load-test a freshly-booted service and write ``BENCH_service.json``
    for the compare/promote gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _load_graph(path_or_name: str, *, policy=None, cache=None):
    """Resolve a CLI graph argument: a file path or a stand-in name.

    ``cache`` mirrors ``--graph-cache``: ``None`` parses the text file
    every time, ``True`` reads/writes the sidecar ``.reprocsr`` cache,
    and a path string uses that cache file.
    """
    from .bench.datasets import DATASETS, load
    from .graph.io import read_adjacency, read_edge_list

    if path_or_name in DATASETS:
        return load(path_or_name)
    path = Path(path_or_name)
    if not path.exists():
        raise SystemExit(
            f"error: {path_or_name!r} is neither a file nor one of the "
            f"named datasets {sorted(DATASETS)}")
    first_data_line = ""
    import gzip
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        for line in fh:
            if line.strip() and not line.lstrip().startswith(("#", "%")):
                first_data_line = line
                break
    # Adjacency rows have >= 1 column, edge lists exactly 2; rows of 2 are
    # ambiguous, so default to edge list only for .edges files.
    if path.suffixes[:1] in ([".edges"], [".el"]) \
            or len(first_data_line.split()) == 2:
        reader = read_edge_list
    else:
        reader = read_adjacency
    if cache is not None:
        from .ingest.cache import load_or_parse
        return load_or_parse(path, cache=cache, policy=policy,
                             reader=reader)
    return reader(path, policy=policy)


def _config_from_args(args: argparse.Namespace, *, method: str | None = None,
                      k: int | None = None):
    """Bundle the CLI's shared heuristic flags into a PartitionConfig.

    The flags default to ``None`` on subcommands that omit them, so the
    config only pins knobs the parser actually exposes — registry and
    constructor defaults stay in charge of the rest.
    """
    from .partitioning.config import PartitionConfig

    try:
        return PartitionConfig(
            method=method if method is not None else args.method,
            num_partitions=k if k is not None else args.k,
            slack=getattr(args, "slack", None),
            lam=getattr(args, "lam", None),
            num_shards=getattr(args, "shards", None),
            gamma_store=getattr(args, "gamma_store", None),
            gamma_buckets=getattr(args, "gamma_buckets", None))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _make_partitioner(method: str, k: int, args: argparse.Namespace):
    """Build the chosen method through one :class:`PartitionConfig`.

    Every method shares the CLI's one flag namespace
    (``--slack/--lam/--shards``); the config's build path drops knobs a
    method doesn't take, so each factory binds only the parameters it
    understands.
    """
    try:
        return _config_from_args(args, method=method, k=k).make()
    except ValueError as exc:  # unknown name: exit with the full list
        raise SystemExit(f"error: {exc}")


def _make_instrumentation(args: argparse.Namespace):
    """Build the trace hub from ``--trace``/``--probe-every`` (or None).

    ``--trace out.jsonl`` writes the windowed JSONL trace;
    ``--probe-every N`` sets the window (and, given without ``--trace``,
    streams human-readable probe lines to stderr instead).
    """
    trace = getattr(args, "trace", None)
    probe_every = getattr(args, "probe_every", None)
    if trace is None and probe_every is None:
        return None
    if probe_every is not None and probe_every < 1:
        raise SystemExit("error: --probe-every must be >= 1")
    from .observability import Instrumentation, JsonlSink, ProgressSink

    sinks = []
    if trace is not None:
        sinks.append(JsonlSink(trace))
    else:
        sinks.append(ProgressSink())
    return Instrumentation(sinks,
                           probe_every=probe_every
                           if probe_every is not None else 1000)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    from .bench.datasets import DATASETS
    from .graph.generators import community_web_graph
    from .graph.io import write_adjacency

    if args.dataset:
        spec = DATASETS[args.dataset]
        graph = spec.build()
    else:
        graph = community_web_graph(args.vertices,
                                    avg_degree=args.avg_degree,
                                    seed=args.seed)
    write_adjacency(graph, args.output)
    print(f"wrote {graph.name}: |V|={graph.num_vertices} "
          f"|E|={graph.num_edges} -> {args.output}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .graph.stream import GraphStream
    from .partitioning.metrics import evaluate
    from .partitioning.registry import resolve

    policy = None
    if args.lenient:
        from .recovery.lenient import IngestionPolicy
        policy = IngestionPolicy(
            mode="lenient",
            quarantine=str(args.output) + ".quarantine",
            max_errors=args.error_budget)
    graph = _load_graph(args.graph, policy=policy,
                        cache=getattr(args, "graph_cache", None))
    if policy is not None:
        policy.close()
        if policy.errors_total:
            print(f"warning: quarantined {policy.errors_total} malformed "
                  f"records -> {args.output}.quarantine", file=sys.stderr)
    partitioner = _make_partitioner(args.method, args.k, args)
    is_offline = not resolve(args.method).is_streaming
    checkpointing = (args.checkpoint_every is not None
                     or args.resume_from is not None)
    if checkpointing and is_offline:
        raise SystemExit(
            f"error: {args.method} is offline; checkpoint/resume applies "
            "to streaming passes only")
    processes = getattr(args, "processes", 1)
    if processes > 1 and is_offline:
        raise SystemExit(
            f"error: {args.method} is offline; --processes applies to "
            "streaming passes only")
    if processes > 1:
        # The sharded executor snapshots at drained group boundaries,
        # so checkpoint/resume stays available.
        from .parallel.process import ProcessShardedPartitioner
        try:
            partitioner = ProcessShardedPartitioner(
                partitioner, parallelism=processes)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    instrumentation = _make_instrumentation(args)
    ckpt_dir = args.checkpoint_dir or str(args.output) + ".ckpt"

    def _run():
        if is_offline:
            if instrumentation is not None:
                print(f"note: {args.method} is offline; streaming trace "
                      "flags are ignored", file=sys.stderr)
            return partitioner.partition(graph)
        stream = GraphStream(graph)
        if checkpointing and processes > 1:
            every = args.checkpoint_every
            if args.resume_from is not None:
                return partitioner.resume_partition(
                    stream, args.resume_from, config=ckpt_dir,
                    every=every, instrumentation=instrumentation)
            return partitioner.partition_with_checkpoints(
                stream, ckpt_dir, every=every,
                instrumentation=instrumentation)
        if checkpointing:
            from .recovery.checkpoint import (
                partition_with_checkpoints,
                resume_partition,
            )
            every = args.checkpoint_every
            if args.resume_from is not None:
                return resume_partition(
                    partitioner, stream, args.resume_from,
                    config=ckpt_dir, every=every,
                    instrumentation=instrumentation)
            return partition_with_checkpoints(
                partitioner, stream, ckpt_dir, every=every,
                instrumentation=instrumentation)
        return partitioner.partition(stream,
                                     instrumentation=instrumentation)

    try:
        if instrumentation is not None and not is_offline:
            with instrumentation:
                result = _run()
        else:
            result = _run()
    except ValueError as exc:
        if processes > 1:
            # e.g. the heuristic declares no shared score lanes; the
            # sharded executor only finds out once the pass starts.
            raise SystemExit(f"error: {exc}")
        raise
    quality = evaluate(graph, result.assignment)
    from .partitioning.persistence import save_assignment
    save_assignment(result.assignment, args.output, graph=graph,
                    partitioner=result.partitioner)
    print(f"{result.partitioner}: {quality} PT={result.elapsed_seconds:.3f}s")
    print(f"route table -> {args.output}")
    if checkpointing:
        written = result.stats.get("checkpoints_written", 0)
        resumed = result.stats.get("resumed_from")
        if resumed:
            print(f"resumed from {resumed}")
        print(f"checkpoints ({written} written) -> {ckpt_dir}")
    if instrumentation is not None and not is_offline:
        for sink, exc in instrumentation.sink_errors:
            print(f"warning: trace sink {type(sink).__name__} failed: "
                  f"{exc}", file=sys.stderr)
        if args.trace is not None and not instrumentation.sink_errors:
            print(f"trace -> {args.trace}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .partitioning.metrics import evaluate

    graph = _load_graph(args.graph)
    from .partitioning.persistence import load_assignment
    assignment, header = load_assignment(args.routes)
    if header.get("partitioner"):
        print(f"(saved by {header['partitioner']})")
    print(evaluate(graph, assignment))
    return 0


def _cmd_edgepartition(args: argparse.Namespace) -> int:
    from .edgepart import evaluate_edges

    graph = _load_graph(args.graph)
    try:
        partitioner = _config_from_args(args).make(kind="edge")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    result = partitioner.partition(graph)
    report = evaluate_edges(graph, result.assignment)
    np.savetxt(args.output, result.assignment.edge_pids, fmt="%d")
    print(f"{result.partitioner}: {report} "
          f"PT={result.elapsed_seconds:.3f}s")
    print(f"edge assignment -> {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .bench.report import format_table
    from .graph.stats import describe

    graph = _load_graph(args.graph,
                        cache=getattr(args, "graph_cache", None))
    print(format_table([describe(graph).as_row()], title=graph.name))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .bench.report import format_table
    from .partitioning.analysis import (
        boundary_profile,
        cut_distance_histogram,
        partition_connectivity,
    )
    from .partitioning.metrics import evaluate
    from .partitioning.persistence import load_assignment

    graph = _load_graph(args.graph)
    assignment, header = load_assignment(args.routes)
    print(evaluate(graph, assignment))
    if header.get("partitioner"):
        print(f"(saved by {header['partitioner']})")
    print()
    print(format_table(cut_distance_histogram(graph, assignment,
                                              bins=args.bins),
                       title="cut fraction by id-distance decile"))
    print()
    print(format_table(boundary_profile(graph, assignment),
                       title="boundary vertices per partition"))
    print()
    print(format_table(
        [c.as_row() for c in partition_connectivity(graph, assignment)],
        title="partition connectivity"))
    return 0


def _load_bench_artifact(path: str) -> dict:
    """Read a bench artifact file, unwrapping a baseline envelope."""
    import json

    from .bench.baseline import BASELINE_FORMAT, validate_baseline

    p = Path(path)
    if not p.is_file():
        raise SystemExit(f"error: no bench artifact at {path}")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    if isinstance(obj, dict) and obj.get("format") == BASELINE_FORMAT:
        from .bench.baseline import BaselineError
        try:
            validate_baseline(obj)
        except BaselineError as exc:
            raise SystemExit(f"error: {exc}")
        return obj["artifact"]
    return obj


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """``bench compare``: statistical baseline-vs-candidate verdicts."""
    import json

    from .bench.baseline import BASELINE_FORMAT, BaselineError, \
        resolve_baseline
    from .bench.compare import CompareError, compare_artifacts
    from .bench.report import format_compare_report

    if args.candidate is None:
        raise SystemExit("error: bench compare requires --candidate")
    candidate = _load_bench_artifact(args.candidate)
    baseline_spec = args.baseline or args.baselines_dir
    try:
        baseline_obj, baseline_path, exact = resolve_baseline(
            baseline_spec, candidate)
    except BaselineError as exc:
        raise SystemExit(f"error: {exc}")
    if baseline_obj.get("format") == BASELINE_FORMAT:
        baseline_artifact = baseline_obj["artifact"]
    else:
        baseline_artifact = baseline_obj
    if not exact:
        base_cpus = (baseline_artifact.get("machine") or {}).get(
            "cpu_count")
        cand_cpus = (candidate.get("machine") or {}).get("cpu_count")
        if base_cpus is not None and cand_cpus is not None \
                and base_cpus != cand_cpus:
            print(f"warning: CROSS-AFFINITY FALLBACK — no baseline for "
                  f"this machine fingerprint; fell back to "
                  f"{baseline_path} recorded at cpu_count={base_cpus}, "
                  f"but this runner sees cpu_count={cand_cpus}. An "
                  "affinity-throttled runner resolves a different "
                  "baseline and the gate may pass vacuously.",
                  file=sys.stderr)
        else:
            print(f"warning: no baseline for this machine fingerprint; "
                  f"fell back to {baseline_path} (cross-host timings "
                  "compare loosely)", file=sys.stderr)

    instrumentation = None
    if args.trace is not None:
        from .observability import Instrumentation, JsonlSink
        instrumentation = Instrumentation([JsonlSink(args.trace)])
    try:
        result = compare_artifacts(
            baseline_artifact, candidate,
            noise_floor=args.noise_floor, min_effect=args.min_effect,
            confidence=args.confidence,
            baseline_path=str(baseline_path),
            candidate_path=str(args.candidate),
            instrumentation=instrumentation)
    except CompareError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        if instrumentation is not None:
            instrumentation.close()

    print(format_compare_report(result))
    if args.report is not None:
        from .recovery.atomic import atomic_write_text
        atomic_write_text(Path(args.report),
                          format_compare_report(result, markdown=True)
                          + "\n")
        print(f"report -> {args.report}")
    if args.json is not None:
        from .recovery.atomic import atomic_write_text
        atomic_write_text(Path(args.json),
                          json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"verdict json -> {args.json}")
    if args.gate:
        code = result.gate_exit_code()
        if code:
            regressed = ", ".join(m.metric for m in result.regressions)
            print(f"gate: FAIL — regressed metrics: {regressed}",
                  file=sys.stderr)
        return code
    return 0


def _cmd_bench_promote(args: argparse.Namespace) -> int:
    """``bench promote``: bless a candidate artifact as the baseline."""
    from .bench.baseline import BaselineError, promote

    if args.candidate is None:
        raise SystemExit("error: bench promote requires --candidate")
    artifact = _load_bench_artifact(args.candidate)
    try:
        path = promote(artifact, args.baselines_dir)
    except BaselineError as exc:
        raise SystemExit(f"error: {exc}")
    machine = artifact.get("machine", {})
    commit = machine.get("commit") or "unknown-commit"
    if machine.get("dirty"):
        commit += "+dirty"
    print(f"promoted {args.candidate} ({artifact.get('benchmark')}, "
          f"{commit}) -> {path}")
    return 0


def _cmd_bench_export(args: argparse.Namespace) -> int:
    """``bench export``: artifacts + baselines -> tidy time series."""
    import json

    from .bench.export import export_history, rows_to_csv
    from .recovery.atomic import atomic_write_text

    history = export_history(
        args.artifacts if args.artifacts else None,
        args.baselines_dir,
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
    payload = json.dumps(history, indent=2) + "\n"
    out = args.out or "-"
    if out == "-":
        sys.stdout.write(payload)
    else:
        atomic_write_text(Path(out), payload)
        print(f"history -> {out} ({len(history['rows'])} rows, "
              f"{len(history['skipped'])} skipped)")
    if args.csv is not None:
        atomic_write_text(Path(args.csv), rows_to_csv(history["rows"]))
        print(f"csv -> {args.csv}")
    return 0


def _cmd_bench_dashboard(args: argparse.Namespace) -> int:
    """``bench dashboard``: render the history export as static HTML."""
    import json

    from .bench.dashboard import build_dashboard
    from .bench.export import HISTORY_FORMAT, export_history

    if args.history is not None:
        path = Path(args.history)
        if not path.is_file():
            raise SystemExit(f"error: no history export at {args.history}")
        try:
            history = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"error: {args.history} is not valid JSON: {exc}")
        if not isinstance(history, dict) \
                or history.get("format") != HISTORY_FORMAT:
            raise SystemExit(
                f"error: {args.history} is not a bench-history export "
                f"(expected format {HISTORY_FORMAT!r}; run "
                "'bench export' first)")
    else:
        history = export_history(
            args.artifacts if args.artifacts else None,
            args.baselines_dir,
            warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
    out = args.out or "dashboard.html"
    written = build_dashboard(history, out)
    series = {(r["bench"], r["metric"], r["fingerprint_key"])
              for r in history.get("rows", [])}
    print(f"dashboard -> {written} ({len(series)} series, "
          f"{len(history.get('rows', []))} rows, "
          f"{len(history.get('skipped', []))} skipped inputs)")
    return 0


def _simple_bench_targets(args: argparse.Namespace) -> dict:
    """String-returning thunks for the table/figure regenerations.

    Returning the rendered text (instead of printing inline) lets
    ``--profile`` wrap any of these targets as a single profiled stage.
    """
    from .bench import figures, report, tables

    def _multi(bundles) -> str:
        return "\n".join(report.format_table(fig.as_rows(), title=title)
                         for title, fig in bundles)

    return {
        "table2": lambda: report.format_table(
            tables.table2_datasets(), title="Table II — datasets"),
        "table3": lambda: report.format_table(
            [r.as_row() for r in tables.table3_streaming(args.k)],
            title="Table III — streaming"),
        "table4": lambda: report.format_table(
            tables.table4_memory(k=args.k), title="Table IV — memory"),
        "table5": lambda: report.format_table(
            [r.as_row() for r in tables.table5_offline(args.k)],
            title="Table V — offline"),
        "fig3": lambda: report.format_table(
            figures.fig3_lambda_sweep(k=args.k).as_rows(),
            title="Fig. 3 — λ sweep"),
        "fig7": lambda: _multi(
            (f"Fig. 7 — window sweep (K={k})", fig)
            for k, fig in figures.fig7_window_sweep(
                ks=(args.k,)).items()),
        "fig8": lambda: _multi(
            (f"Fig. 8 — {metric} vs K (uk2002)", fig)
            for metric, fig in figures.fig8_9_k_sweep_streaming(
                "uk2002").items()),
        "fig9": lambda: _multi(
            (f"Fig. 9 — {metric} vs K (indo2004)", fig)
            for metric, fig in figures.fig8_9_k_sweep_streaming(
                "indo2004").items()),
        "fig10": lambda: _multi(
            (f"Fig. 10 — {metric} vs K (indo2004)", fig)
            for metric, fig in figures.fig10_11_k_sweep_offline(
                "indo2004").items()),
        "fig11": lambda: _multi(
            (f"Fig. 11 — {metric} vs K (eu2015)", fig)
            for metric, fig in figures.fig10_11_k_sweep_offline(
                "eu2015").items()),
        "fig12": lambda: report.format_table(
            figures.fig12_worker_sweep(k=args.k).as_rows(),
            title="Fig. 12 — worker sweep"),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import report

    target = args.target
    if target == "compare":
        return _cmd_bench_compare(args)
    if target == "promote":
        return _cmd_bench_promote(args)
    if target == "export":
        return _cmd_bench_export(args)
    if target == "dashboard":
        return _cmd_bench_dashboard(args)

    out = args.bench_out
    if out == "BENCH_streaming.json":  # targeted defaults
        out = {"ingest": "BENCH_ingest.json",
               "parallel-scaling": "BENCH_parallel.json"}.get(target, out)

    instrumentation = None
    profiler = None
    if getattr(args, "profile", None):
        from .bench.profile import BenchProfiler, default_profile_dir
        if args.trace is not None:
            from .observability import Instrumentation, JsonlSink
            instrumentation = Instrumentation([JsonlSink(args.trace)])
        profile_dir = args.profile_dir
        if profile_dir is None:
            if target in ("streaming", "ingest", "parallel-scaling"):
                profile_dir = default_profile_dir(out)
            elif target == "all":
                profile_dir = Path(args.output) / "suite.profile"
            else:
                profile_dir = Path(f"BENCH_{target}.profile")
        profiler = BenchProfiler(args.profile, profile_dir, bench=target,
                                 instrumentation=instrumentation)

    try:
        if target == "all":
            from .bench.suite import run_full_suite
            run_full_suite(args.output, k=args.k, quick=args.quick,
                           profile=profiler)
        elif target == "streaming":
            from .bench.micro import run_streaming_microbench
            if args.quick:
                artifact = run_streaming_microbench(
                    n=4000, k=args.k, warmup=1, repeats=3,
                    out_path=out, profile=profiler)
            else:
                artifact = run_streaming_microbench(
                    k=args.k, out_path=out, profile=profiler)
            rows = [{
                "method": r["method"],
                "fast median (s)": f"{r['fast']['median_s']:.4f}",
                "seed median (s)": f"{r['seed']['median_s']:.4f}",
                "speedup": f"{r['speedup_median']:.2f}x",
                "identical": r["identical"],
            } for r in artifact["results"]]
            print(report.format_table(
                rows, title="Streaming hot path — fast vs seed"))
            print(f"artifact written to {out}")
        elif target == "ingest":
            from .bench.ingest import run_ingest_microbench
            if args.quick:
                artifact = run_ingest_microbench(
                    n=4000, k=args.k, warmup=0, repeats=2, out_path=out,
                    profile=profiler)
            else:
                artifact = run_ingest_microbench(k=args.k, out_path=out,
                                                 profile=profiler)
            rows = [{
                "stage": r["stage"],
                "baseline median (s)": f"{r['baseline']['median_s']:.4f}",
                "optimized median (s)":
                    f"{r['optimized']['median_s']:.4f}",
                "speedup": f"{r['speedup_median']:.2f}x",
                "identical": r["identical"],
            } for r in artifact["results"]]
            print(report.format_table(
                rows, title="Ingest pipeline — optimized vs baseline"))
            print(f"artifact written to {out}")
        elif target == "parallel-scaling":
            from .bench.parallel import run_parallel_scaling_bench
            if args.quick:
                artifact = run_parallel_scaling_bench(
                    n=4000, k=args.k, warmup=1, repeats=3, out_path=out,
                    profile=profiler)
            else:
                artifact = run_parallel_scaling_bench(
                    k=args.k, out_path=out, profile=profiler)
            rows = [{
                "method": r["method"],
                "sequential median (s)":
                    f"{r['sequential']['median_s']:.4f}",
                "parallel median (s)": f"{r['parallel']['median_s']:.4f}",
                "speedup": f"{r['speedup_median']:.2f}x",
                "ECR delta": f"{r['ecr_delta_pct']:+.2f}%",
                "identical": r["identical"],
            } for r in artifact["results"]]
            cfg = artifact["config"]
            print(report.format_table(
                rows, title=f"Parallel scaling — sequential vs "
                            f"{cfg['num_workers']}-worker sharded "
                            f"(M={cfg['parallelism']})"))
            if not cfg["scaling_expected"]:
                print(f"note: only {artifact['machine']['cpu_count']} "
                      f"usable CPU(s) for {cfg['num_workers']} "
                      "worker(s); no speedup expected on this host",
                      file=sys.stderr)
            print(f"artifact written to {out}")
        else:
            thunk = _simple_bench_targets(args).get(target)
            if thunk is None:
                raise SystemExit(f"unknown bench target {target!r}")
            # Table/figure regenerations have no per-stage harness, so
            # --profile wraps the whole target as one stage.
            if profiler is not None:
                print(profiler.profile_stage(target, thunk))
            else:
                print(thunk())
        if profiler is not None:
            profiler.finalize(
                echo=lambda line: print(line, file=sys.stderr))
    finally:
        if instrumentation is not None:
            instrumentation.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the placement service in the foreground.

    Prints a parseable ``listening on HOST:PORT`` line to stdout once
    the socket is bound (supervisors and the chaos tests key on it),
    then blocks until SIGTERM/SIGINT triggers a graceful drain.
    """
    import signal

    from .service import PlacementService

    graph = _load_graph(args.graph,
                        cache=getattr(args, "graph_cache", None))
    config = _config_from_args(args)
    instrumentation = _make_instrumentation(args)
    try:
        service = PlacementService.start(
            graph, config=config, host=args.host, port=args.port,
            snapshot_dir=args.snapshot_dir,
            resume_from=args.resume_from,
            snapshot_every=args.snapshot_every,
            snapshot_keep=args.snapshot_keep,
            wal_fsync=not args.no_fsync,
            queue_depth=args.queue_depth, batch_max=args.batch_max,
            shed_watermark=args.shed_watermark,
            max_lag_seconds=args.max_lag_seconds,
            recovery_probe_interval=args.recovery_probe_interval,
            wal_pipeline=not args.no_wal_pipeline,
            instrumentation=instrumentation)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"error: {exc}")
    host, port = service.address
    print(f"listening on {host}:{port}", flush=True)
    durability = (f"snapshots -> {args.snapshot_dir}"
                  if args.snapshot_dir else "volatile (no --snapshot-dir)")
    print(f"serving {graph.name}: |V|={graph.num_vertices} "
          f"|E|={graph.num_edges} method={config.method} "
          f"K={config.num_partitions} [{durability}]",
          file=sys.stderr, flush=True)

    def _on_signal(signum: int, frame: object) -> None:
        service.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        # Poll so signals keep getting delivered to the main thread.
        while not service.wait(0.5):
            pass
    finally:
        service.close()
        if instrumentation is not None:
            instrumentation.close()
    stats = service.stats()
    fast = stats["fast_path"]
    print(f"drained: {stats['placements']} placements "
          f"({fast['fused_placements']} fused), "
          f"{stats['groups_processed']} engine groups, "
          f"position {stats['position']}", file=sys.stderr)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """``serve-bench``: load-generate against a fresh service."""
    from .bench.report import format_table
    from .service import run_service_bench

    graph = None
    if args.graph is not None:
        graph = _load_graph(args.graph,
                            cache=getattr(args, "graph_cache", None))
    config = _config_from_args(args)
    num_vertices = args.vertices
    repeats, warmup, lookups = args.repeats, args.warmup, args.lookups
    if args.quick:
        num_vertices = min(num_vertices, 4000)
        repeats, warmup, lookups = min(repeats, 2), min(warmup, 1), 200
    profiler = None
    if getattr(args, "profile", None):
        from .bench.profile import BenchProfiler, default_profile_dir
        profiler = BenchProfiler(
            args.profile,
            args.profile_dir or default_profile_dir(args.bench_out),
            bench="service-bench")
    try:
        artifact = run_service_bench(
            graph, num_vertices=num_vertices, seed=args.seed,
            config=config, clients=args.clients,
            batch_size=args.batch_size, window=args.window,
            lookups_per_client=lookups,
            repeats=repeats, warmup=warmup, target_rps=args.target_rps,
            durable=not args.volatile, queue_depth=args.queue_depth,
            batch_max=args.batch_max,
            overload=not args.no_overload,
            overload_queue_depth=args.overload_queue_depth,
            overload_throttle=args.overload_throttle,
            out_path=args.bench_out,
            verbose=True, profile=profiler)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if profiler is not None:
        profiler.finalize(echo=lambda line: print(line, file=sys.stderr))
    rows = []
    for rec in artifact["results"]:
        row = {
            "endpoint": rec["endpoint"],
            "p50 (ms)": f"{rec['p50']['median_s'] * 1e3:.2f}",
            "p99 (ms)": f"{rec['p99']['median_s'] * 1e3:.2f}",
        }
        if "placements_per_s" in rec:
            row["placements/s"] = \
                f"{rec['placements_per_s']['median']:,.0f}"
            row["fused"] = f"{rec['fused_fraction_median']:.0%}"
            if "identical" in rec:
                row["identical"] = rec["identical"]
        if "shed_rate" in rec:
            row["shed rate"] = f"{rec['shed_rate']['median']:.0%}"
        rows.append(row)
    print(format_table(rows, title="service bench"))
    print(f"artifact written to {args.bench_out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: replay a fault schedule, check the invariants.

    Exit code 0 means every resilience invariant held (acked
    placements durable across the crash, route parity after revival,
    shed rate bounded; with ``--replay-check``, also that a second run
    of the same schedule produced the identical fault/health trace).
    Nonzero means the report (printed as JSON) names the violation —
    this is what the CI ``service-chaos`` step runs.
    """
    import json
    import tempfile

    from .resilience.schedule import (
        SCENARIOS,
        ChaosSchedule,
        run_executor_schedule,
        run_schedule,
    )

    if args.schedule is not None:
        schedule = ChaosSchedule.from_json(args.schedule)
    else:
        schedule = SCENARIOS[args.scenario]()
    if args.graph is not None:
        graph = _load_graph(args.graph,
                            cache=getattr(args, "graph_cache", None))
    else:
        from .graph.generators import community_web_graph
        graph = community_web_graph(args.vertices, seed=args.seed)
    config = _config_from_args(args)

    def run_once(tag: str):
        if args.executor:
            return run_executor_schedule(
                schedule, graph, method=config.method,
                parallelism=args.parallelism, num_workers=args.workers,
                max_worker_restarts=args.max_worker_restarts)
        with tempfile.TemporaryDirectory(
                prefix=f"repro-chaos-{tag}-") as tmp:
            return run_schedule(schedule, graph, workdir=tmp,
                                config=config)

    try:
        report = run_once("a")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.replay_check and not args.executor:
        replay = run_once("b")
        report.check(
            "replay_deterministic",
            report.replay_key() == replay.replay_key(),
            "second run reproduced the identical fault/health trace")
    payload = report.to_dict()
    if args.out is not None:
        from .recovery.atomic import atomic_write_text
        atomic_write_text(Path(args.out),
                          json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    verdict = "ok" if report.ok else "FAILED"
    bad = [inv["name"] for inv in report.invariants if not inv["ok"]]
    print(f"chaos schedule '{schedule.name}': {verdict}"
          + (f" ({', '.join(bad)})" if bad else ""),
          file=sys.stderr)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_heuristic_flags(p: argparse.ArgumentParser, *,
                         methods: list[str],
                         default_method: str = "spnl") -> None:
    """The shared partitioner-tuning flag set (one namespace, one
    :func:`_config_from_args`)."""
    p.add_argument("--method", choices=methods, default=default_method)
    p.add_argument("-k", type=int, default=32, help="number of partitions")
    p.add_argument("--slack", type=float, default=1.1,
                   help="balance threshold δ")
    p.add_argument("--lam", type=float, default=0.5,
                   help="λ weighting in/out neighbors (SPN/SPNL)")
    p.add_argument("--shards", default="auto",
                   help="sliding-window X (int or 'auto')")
    p.add_argument("--gamma-store", default="auto",
                   choices=["auto", "dense", "window", "hashed"],
                   help="Γ expectation store backend for SPN/SPNL "
                        "(default auto: dense or sliding window by "
                        "--shards; 'hashed' caps memory at "
                        "--gamma-buckets rows)")
    p.add_argument("--gamma-buckets", type=int, default=None, metavar="B",
                   help="row count for --gamma-store hashed "
                        "(default: num_vertices // 16, min 1024)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="SPNL streaming graph partitioning (ICDCS 2023 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic graph file")
    p.add_argument("output", help="adjacency-list output path")
    p.add_argument("--dataset", default=None,
                   help="named benchmark stand-in to build")
    p.add_argument("--vertices", type=int, default=10_000)
    p.add_argument("--avg-degree", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    from .partitioning.registry import available_partitioners

    p = sub.add_parser("partition", help="partition a graph")
    p.add_argument("graph", help="graph file or named dataset")
    p.add_argument("output", help="route-table output path")
    _add_heuristic_flags(p, methods=available_partitioners())
    p.add_argument("--processes", type=int, default=1, metavar="M",
                   help="score M records per group across worker "
                        "processes (sharded executor; deterministic, "
                        "checkpoint/resume capable)")
    p.add_argument("--trace", default=None, metavar="OUT.JSONL",
                   help="write a windowed JSONL stream trace")
    p.add_argument("--probe-every", type=int, default=None, metavar="N",
                   help="probe window size in placements (default 1000; "
                        "without --trace, prints progress to stderr)")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N",
                   help="snapshot partitioner state every N records "
                        "(resumable with --resume-from)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="snapshot directory (default: <output>.ckpt)")
    p.add_argument("--resume-from", default=None, metavar="SNAP",
                   help="resume a crashed pass from a snapshot file or "
                        "its checkpoint directory")
    p.add_argument("--lenient", action="store_true",
                   help="quarantine malformed graph lines to "
                        "<output>.quarantine instead of aborting")
    p.add_argument("--error-budget", type=int, default=100, metavar="N",
                   help="max malformed lines tolerated under --lenient "
                        "(default 100)")
    p.add_argument("--graph-cache", nargs="?", const=True, default=None,
                   metavar="PATH",
                   help="load the graph through a binary .reprocsr cache "
                        "(sidecar next to the input, or an explicit PATH); "
                        "written on first use, mmap-loaded afterwards")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("edgepartition",
                       help="streaming edge partitioning (extension)")
    p.add_argument("graph", help="graph file or named dataset")
    p.add_argument("output", help="per-edge partition-id output path")
    p.add_argument("--method", choices=available_partitioners("edge"),
                   default="spnl-e")
    p.add_argument("-k", type=int, default=32)
    p.add_argument("--slack", type=float, default=1.1)
    p.set_defaults(func=_cmd_edgepartition)

    p = sub.add_parser("evaluate", help="evaluate a route table")
    p.add_argument("graph", help="graph file or named dataset")
    p.add_argument("routes", help="route-table file (one pid per line)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("info", help="describe a graph")
    p.add_argument("graph", help="graph file or named dataset")
    p.add_argument("--graph-cache", nargs="?", const=True, default=None,
                   metavar="PATH",
                   help="load through a binary .reprocsr cache")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("analyze",
                       help="introspect a partitioning (cut structure)")
    p.add_argument("graph", help="graph file or named dataset")
    p.add_argument("routes", help="route-table file")
    p.add_argument("--bins", type=int, default=10,
                   help="distance-histogram bins")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bench",
                       help="regenerate a paper table/figure, run a "
                            "microbench, or compare/promote artifacts")
    p.add_argument("target",
                   choices=["table2", "table3", "table4", "table5", "fig3",
                            "fig7", "fig8", "fig9", "fig10", "fig11",
                            "fig12", "streaming", "ingest",
                            "parallel-scaling", "all", "compare",
                            "promote", "export", "dashboard"])
    p.add_argument("-k", type=int, default=32)
    p.add_argument("--output", default="reports",
                   help="output directory for 'all'")
    p.add_argument("--quick", action="store_true",
                   help="shrunken sweeps for 'all'/'streaming'")
    p.add_argument("--bench-out", default="BENCH_streaming.json",
                   help="artifact path for the 'streaming' / 'ingest' / "
                        "'parallel-scaling' microbenches (each defaults "
                        "to its own BENCH_*.json)")
    p.add_argument("--baseline", default=None, metavar="FILE|DIR",
                   help="[compare] baseline artifact/envelope file, or a "
                        "baselines directory (default: --baselines-dir, "
                        "resolved by bench name + machine fingerprint)")
    p.add_argument("--candidate", default=None, metavar="FILE",
                   help="[compare/promote] candidate BENCH_*.json")
    p.add_argument("--baselines-dir", default="benchmarks/baselines",
                   metavar="DIR",
                   help="[compare/promote] committed baseline store "
                        "(default: benchmarks/baselines)")
    p.add_argument("--gate", action="store_true",
                   help="[compare] exit nonzero when any metric regressed")
    p.add_argument("--noise-floor", type=float, default=0.05, metavar="F",
                   help="[compare] relative delta below which a metric is "
                        "never flagged (default 0.05 = 5%%)")
    p.add_argument("--min-effect", type=float, default=0.10, metavar="F",
                   help="[compare] smallest relative change worth "
                        "reporting (default 0.10)")
    p.add_argument("--confidence", type=float, default=0.95, metavar="C",
                   help="[compare] bootstrap/test confidence (default "
                        "0.95)")
    p.add_argument("--report", default=None, metavar="OUT.MD",
                   help="[compare] also write the markdown report here")
    p.add_argument("--json", default=None, metavar="OUT.JSON",
                   help="[compare] also write the machine-readable "
                        "verdict here")
    p.add_argument("--trace", default=None, metavar="OUT.JSONL",
                   help="[compare] emit the bench_compare trace record; "
                        "with --profile, emit bench_profile records")
    p.add_argument("--profile", default=None,
                   choices=["cprofile", "pyspy"],
                   help="run each bench stage once more under a profiler "
                        "after the timed repeats; writes per-stage pstats "
                        "(+ collapsed stacks when py-spy is installed) "
                        "and records the profile in the artifact")
    p.add_argument("--profile-dir", default=None, metavar="DIR",
                   help="profile artifact directory (default: "
                        "<bench-out stem>.profile/ next to the BENCH "
                        "json)")
    p.add_argument("--artifacts", nargs="*", default=None, metavar="FILE",
                   help="[export/dashboard] BENCH_*.json files to walk "
                        "(default: ./BENCH_*.json plus --baselines-dir)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="[export/dashboard] output path; '-' streams the "
                        "history JSON to stdout (export default: -, "
                        "dashboard default: dashboard.html)")
    p.add_argument("--csv", default=None, metavar="OUT.CSV",
                   help="[export] also write the rows as tidy CSV")
    p.add_argument("--history", default=None, metavar="FILE",
                   help="[dashboard] render an existing 'bench export' "
                        "JSON instead of re-walking artifacts")
    p.set_defaults(func=_cmd_bench)

    from .partitioning.registry import resolve
    streaming_methods = [m for m in available_partitioners()
                         if resolve(m).is_streaming]

    p = sub.add_parser("serve",
                       help="run the long-lived placement service "
                            "(partition-as-a-service)")
    p.add_argument("graph", help="graph file or named dataset")
    _add_heuristic_flags(p, methods=streaming_methods)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0: pick an ephemeral port, "
                        "reported on the 'listening on' line)")
    p.add_argument("--snapshot-dir", default=None, metavar="DIR",
                   help="durability directory (snapshots + placement "
                        "WAL); omit for a volatile server")
    p.add_argument("--resume-from", default=None, metavar="DIR|SNAP",
                   help="warm-restart from a snapshot directory (or one "
                        "snapshot file): restores state, replays the "
                        "WAL tail, keeps every acked placement")
    p.add_argument("--snapshot-every", type=int, default=100_000,
                   metavar="N",
                   help="auto-snapshot every N placements (default "
                        "100000)")
    p.add_argument("--snapshot-keep", type=int, default=3, metavar="N",
                   help="snapshots retained (default 3)")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip the per-group WAL fsync (faster, loses "
                        "the crash-durability guarantee)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="engine queue bound before backpressure "
                        "(default 64)")
    p.add_argument("--batch-max", type=int, default=256,
                   help="max requests coalesced per engine step "
                        "(default 256)")
    p.add_argument("--shed-watermark", type=float, default=0.85,
                   metavar="F",
                   help="admission control sheds new placements once "
                        "the queue passes this fraction of "
                        "--queue-depth (default 0.85)")
    p.add_argument("--max-lag-seconds", type=float, default=None,
                   metavar="S",
                   help="also shed when the predicted queue wait "
                        "exceeds S seconds (default: queue bound only)")
    p.add_argument("--recovery-probe-interval", type=float, default=0.0,
                   metavar="S",
                   help="while read-only, retry recovery every S "
                        "seconds (default 0: recover only on demand)")
    p.add_argument("--no-wal-pipeline", action="store_true",
                   help="hold the engine's state lock through each "
                        "group's WAL fsync (no scoring/fsync overlap)")
    p.add_argument("--graph-cache", nargs="?", const=True, default=None,
                   metavar="PATH",
                   help="load through a binary .reprocsr cache")
    p.add_argument("--trace", default=None, metavar="OUT.JSONL",
                   help="write service_request trace records")
    p.add_argument("--probe-every", type=int, default=None, metavar="N",
                   help="trace window size (see 'partition')")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("serve-bench",
                       help="load-test the placement service and write "
                            "BENCH_service.json")
    p.add_argument("graph", nargs="?", default=None,
                   help="graph file or named dataset (default: a "
                        "synthetic community web graph)")
    _add_heuristic_flags(p, methods=streaming_methods)
    p.add_argument("--vertices", type=int, default=20_000,
                   help="synthetic graph size when no graph is given")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent client connections (default 4)")
    p.add_argument("--batch-size", type=int, default=64,
                   help="vertices per place_batch request (default 64)")
    p.add_argument("--window", type=int, default=4, metavar="W",
                   help="pipelined requests in flight per connection "
                        "(open-loop depth, default 4; 1 = closed loop)")
    p.add_argument("--lookups", type=int, default=500, metavar="N",
                   help="lookups per client after the place phase")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--target-rps", type=float, default=None,
                   metavar="RPS",
                   help="pace placement requests per second across all "
                        "clients (default: full speed)")
    p.add_argument("--volatile", action="store_true",
                   help="bench without snapshots/WAL (isolates protocol "
                        "+ engine cost)")
    p.add_argument("--queue-depth", type=int, default=64)
    p.add_argument("--batch-max", type=int, default=256)
    p.add_argument("--no-overload", action="store_true",
                   help="skip the overload phase (shed rate + "
                        "p99-under-overload against a throttled server)")
    p.add_argument("--overload-queue-depth", type=int, default=4,
                   metavar="N",
                   help="queue bound for the overload-phase server "
                        "(default 4)")
    p.add_argument("--overload-throttle", type=float, default=0.002,
                   metavar="S",
                   help="seconds per engine group in the overload "
                        "phase (default 0.002)")
    p.add_argument("--quick", action="store_true",
                   help="small graph, 2 repeats (CI smoke)")
    p.add_argument("--profile", default=None,
                   choices=["cprofile", "pyspy"],
                   help="profile extra single-connection driver passes "
                        "after the timed phases; writes per-stage pstats "
                        "next to the artifact")
    p.add_argument("--profile-dir", default=None, metavar="DIR",
                   help="profile artifact directory (default: "
                        "<bench-out stem>.profile/)")
    p.add_argument("--bench-out", default="BENCH_service.json",
                   help="artifact path (default BENCH_service.json)")
    p.add_argument("--graph-cache", nargs="?", const=True, default=None,
                   metavar="PATH",
                   help="load through a binary .reprocsr cache")
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser(
        "chaos",
        help="replay a deterministic fault schedule against the live "
             "service (or the process executor) and check the "
             "resilience invariants")
    p.add_argument("graph", nargs="?", default=None,
                   help="graph file or named dataset (default: a "
                        "synthetic community web graph)")
    _add_heuristic_flags(p, methods=streaming_methods)
    source = p.add_mutually_exclusive_group()
    # Names mirror repro.resilience.schedule.SCENARIOS (re-validated at
    # run time); kept literal here so `--help` stays import-light.
    source.add_argument("--scenario", default="wal-outage",
                        choices=("wal-outage", "slow-engine", "wal-flap",
                                 "worker-kill"),
                        help="named built-in schedule (default "
                             "wal-outage; worker-kill runs with "
                             "--executor)")
    source.add_argument("--schedule", default=None, metavar="FILE.json",
                        help="load a ChaosSchedule from JSON instead "
                             "(the to_dict format)")
    p.add_argument("--executor", action="store_true",
                   help="replay kill_worker events against the "
                        "process-sharded executor instead of the "
                        "placement service")
    p.add_argument("--replay-check", action="store_true",
                   help="run the schedule twice and require identical "
                        "fault/health traces (service mode)")
    p.add_argument("--vertices", type=int, default=600,
                   help="synthetic graph size when no graph is given")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--parallelism", type=int, default=4,
                   help="--executor: records scored per group M "
                        "(default 4)")
    p.add_argument("--workers", type=int, default=2,
                   help="--executor: worker processes (default 2)")
    p.add_argument("--max-worker-restarts", type=int, default=4,
                   help="--executor: supervision budget (default 4)")
    p.add_argument("--out", default=None, metavar="REPORT.json",
                   help="also write the report JSON here")
    p.add_argument("--graph-cache", nargs="?", const=True, default=None,
                   metavar="PATH",
                   help="load through a binary .reprocsr cache")
    p.set_defaults(func=_cmd_chaos, k=8)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    # normalize shards argument
    if hasattr(args, "shards") and args.shards != "auto":
        args.shards = int(args.shards)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
