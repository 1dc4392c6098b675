"""Command line of the benchmark (see ``run.py``)."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import spec

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="The repo benchmark: end-to-end and per-layer metrics "
                    "of four workloads.  With no --workload every "
                    "workload runs; with no --trace both the timed and "
                    "the traced run are made.")
    p.add_argument("--workload", choices=spec.WORKLOAD_NAMES, default=None)
    p.add_argument("--seed", type=int, default=7,
                   help="seed of the generated inputs (default 7)")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                   help="how long one run of one workload takes, set-up "
                        f"and all (default {spec.RUN_SECONDS})")
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                   const=1, default=None,
                   help="1: traced run, per-layer metrics; 0: timed run, "
                        "end-to-end metrics")
    p.add_argument("--quick", action="store_true",
                   help=f"{spec.QUICK_PASSES} passes per run whatever "
                        "--seconds says (harness tests; not comparable)")
    p.add_argument("--trace-out", type=Path, default=None, metavar="DIR",
                   help="keep the spans of traced runs as "
                        "DIR/<workload>.spans.jsonl")
    p.add_argument("--repeatability", action="store_true",
                   help="three full sets of timed runs; rewrites "
                        "REPEATABILITY.md next to run.py")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="render BENCHMARK.json from e2ebench/spec.py")
    p.add_argument("--child-pass", nargs=2, metavar=("WORKLOAD", "DIR"),
                   help=argparse.SUPPRESS)
    return p


def _print_result(result) -> None:
    kind = "per-layer (traced run)" if result.traced else "end-to-end"
    print(f"== {result.workload}  seed={result.seed}  {kind}  "
          f"passes={result.passes}")
    width = max(len(name) for name in result.metrics)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<{width}}  {value:>16.6f}  {unit}")
    for line in result.tables:
        print(line)
    print(f"  ops_attempted {result.attempted}  ops_failed {result.failed}"
          f"  route_sha256 {result.digest}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result.payload()), flush=True)


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    if args.child_pass:
        from .workloads import child_pass
        rss, digest = child_pass(args.child_pass[0], Path(args.child_pass[1]))
        print(rss, digest)
        return 0
    if args.write_benchmark_json:
        from .procs import ROOT
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.repeatability:
        from .repeatability import write_report
        return write_report(args.seed, args.seconds)
    from .runner import run_workload
    names = [args.workload] if args.workload else spec.WORKLOAD_NAMES
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    ok = True
    for name in names:
        for traced in modes:
            result = run_workload(name, args.seed, args.seconds,
                                  traced=traced, quick=args.quick,
                                  trace_out=args.trace_out)
            _print_result(result)
            ok = ok and result.correct
    return 0 if ok else 1
