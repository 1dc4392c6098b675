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
    Regenerate one of the paper's tables/figures on the stand-ins, or
    the whole evaluation report (``all``).
``info``
    Print dataset statistics for a graph file or named stand-in.
``serve``
    Run the long-lived placement service (partition-as-a-service) in
    the foreground; SIGTERM/SIGINT drain gracefully.
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
            num_shards=getattr(args, "shards", None))
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
    # Refuse an incomplete route before writing it; the save evaluates
    # the complete one, once, for its header and for this line.
    result.assignment.validate(graph.num_vertices)
    from .partitioning.persistence import save_assignment
    quality = save_assignment(result.assignment, args.output, graph=graph,
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


def _cmd_bench(args: argparse.Namespace) -> int:
    """``bench``: print one of the paper's tables or figures."""
    from .bench import figures, tables
    from .bench.report import format_table

    target, k = args.target, args.k
    if target == "all":
        from .bench.suite import run_full_suite
        run_full_suite(args.output, k=k, quick=args.quick)
    elif target == "table2":
        print(format_table(tables.table2_datasets(),
                           title="Table II — datasets"))
    elif target == "table3":
        print(format_table([r.as_row() for r in tables.table3_streaming(k)],
                           title="Table III — streaming"))
    elif target == "table4":
        print(format_table(tables.table4_memory(k=k),
                           title="Table IV — memory"))
    elif target == "table5":
        print(format_table([r.as_row() for r in tables.table5_offline(k)],
                           title="Table V — offline"))
    elif target == "fig3":
        print(format_table(figures.fig3_lambda_sweep(k=k).as_rows(),
                           title="Fig. 3 — λ sweep"))
    elif target == "fig7":
        for window_k, fig in figures.fig7_window_sweep(ks=(k,)).items():
            title = f"Fig. 7 — window sweep (K={window_k})"
            print(format_table(fig.as_rows(), title=title))
    elif target == "fig12":
        print(format_table(figures.fig12_worker_sweep(k=k).as_rows(),
                           title="Fig. 12 — worker sweep"))
    else:  # fig8–fig11: one table per metric of a K sweep
        sweep, dataset = {
            "fig8": (figures.fig8_9_k_sweep_streaming, "uk2002"),
            "fig9": (figures.fig8_9_k_sweep_streaming, "indo2004"),
            "fig10": (figures.fig10_11_k_sweep_offline, "indo2004"),
            "fig11": (figures.fig10_11_k_sweep_offline, "eu2015"),
        }[target]
        for metric, fig in sweep(dataset).items():
            title = f"Fig. {target[3:]} — {metric} vs K ({dataset})"
            print(format_table(fig.as_rows(), title=title))
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
class _RegisteredNames:
    """``--method`` choices: the registry's names of one kind, looked up
    lazily.

    Membership resolves one name (:func:`~repro.partitioning.registry.
    resolve` imports only the family that registers it), so building the
    parser and accepting a valid name load no other partitioner;
    iterating — argparse does so to list the choices after an invalid
    name, or for ``--help`` — loads them all.
    """

    def __init__(self, kind: str | None = None, *,
                 streaming_only: bool = False) -> None:
        self.kind = kind
        self.streaming_only = streaming_only

    def __contains__(self, name: object) -> bool:
        from .partitioning.registry import resolve

        try:
            entry = resolve(name, kind=self.kind)
        except ValueError:
            return False
        return entry.is_streaming or not self.streaming_only

    def __iter__(self):
        from .partitioning.registry import available_partitioners

        return iter([name for name in available_partitioners(self.kind)
                     if name in self])


def _add_method_flag(p: argparse.ArgumentParser,
                     methods: _RegisteredNames, default: str) -> None:
    # An explicit metavar: without one, add_argument iterates the
    # choices to format it, which loads every family.
    p.add_argument("--method", choices=methods, default=default,
                   metavar="METHOD",
                   help="registered partitioner (%(choices)s; default "
                        "%(default)s)")


def _int_or_auto(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an int or 'auto', got {text!r}") from None


def _add_heuristic_flags(p: argparse.ArgumentParser, *,
                         methods: _RegisteredNames,
                         default_method: str = "spnl") -> None:
    """The shared partitioner-tuning flag set (one namespace, one
    :func:`_config_from_args`)."""
    _add_method_flag(p, methods, default_method)
    p.add_argument("-k", type=int, default=32, help="number of partitions")
    p.add_argument("--slack", type=float, default=1.1,
                   help="balance threshold δ")
    p.add_argument("--lam", type=float, default=0.5,
                   help="λ weighting in/out neighbors (SPN/SPNL)")
    p.add_argument("--shards", type=_int_or_auto, default="auto",
                   help="sliding-window X (int or 'auto'); Γ is dense "
                        "when it resolves to 1, windowed above")


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

    p = sub.add_parser("partition", help="partition a graph")
    p.add_argument("graph", help="graph file or named dataset")
    p.add_argument("output", help="route-table output path")
    _add_heuristic_flags(p, methods=_RegisteredNames())
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
    _add_method_flag(p, _RegisteredNames("edge"), "spnl-e")
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

    p = sub.add_parser("bench",
                       help="regenerate a paper table/figure, or the "
                            "whole evaluation report ('all')")
    p.add_argument("target",
                   choices=["table2", "table3", "table4", "table5", "fig3",
                            "fig7", "fig8", "fig9", "fig10", "fig11",
                            "fig12", "all"])
    p.add_argument("-k", type=int, default=32)
    p.add_argument("--output", default="reports",
                   help="output directory for 'all'")
    p.add_argument("--quick", action="store_true",
                   help="shrunken sweeps for 'all'")
    p.set_defaults(func=_cmd_bench)

    streaming_methods = _RegisteredNames(streaming_only=True)

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
    p.add_argument("--graph-cache", nargs="?", const=True, default=None,
                   metavar="PATH",
                   help="load through a binary .reprocsr cache")
    p.add_argument("--trace", default=None, metavar="OUT.JSONL",
                   help="write service_request trace records")
    p.add_argument("--probe-every", type=int, default=None, metavar="N",
                   help="trace window size (see 'partition')")
    p.set_defaults(func=_cmd_serve)

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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
