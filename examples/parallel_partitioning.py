"""Parallel streaming placement and the RCT dependency detector.

Paper Sec. V-B: scoring M records concurrently loses the serial
heuristic's guidance whenever in-flight records are adjacent; the
Reversed-Counting-Table detects those conflicts and delays the
heavily-depended-on vertex.  This example sweeps the parallelism M on
the deterministic executor with the RCT on and off, then runs the
process executor once: real worker processes, the same placements.

Run:  python examples/parallel_partitioning.py
"""

from repro.bench.report import format_table
from repro.graph import GraphStream, community_web_graph
from repro.parallel import (
    ProcessShardedPartitioner,
    SimulatedParallelPartitioner,
)
from repro.partitioning import SPNLPartitioner, evaluate

K = 16


def main() -> None:
    graph = community_web_graph(15_000, avg_community_size=60, seed=33,
                                name="par-demo")
    serial = SPNLPartitioner(K, num_shards="auto").partition(
        GraphStream(graph))
    serial_ecr = evaluate(graph, serial.assignment).ecr
    print(f"serial SPNL: ECR={serial_ecr:.4f} "
          f"PT={serial.elapsed_seconds:.2f}s\n")

    rows = []
    for m in (2, 4, 8, 16, 32):
        for use_rct in (True, False):
            partitioner = SimulatedParallelPartitioner(
                SPNLPartitioner(K, num_shards="auto"),
                parallelism=m, use_rct=use_rct)
            result = partitioner.partition(GraphStream(graph))
            ecr = evaluate(graph, result.assignment).ecr
            rows.append({
                "M": m,
                "RCT": "on" if use_rct else "off",
                "ECR": round(ecr, 4),
                "degradation": f"{ecr / serial_ecr - 1:+.1%}",
                "delayed": result.stats["delayed"],
                "conflicts": result.stats["conflicts"],
            })
    print(format_table(
        rows, title="concurrent placement quality (deterministic model)"))

    # Worker processes share Γ through shared memory, so SPNL is pinned
    # to the dense store (num_shards=1); the sliding window is refused.
    print("\nworker processes (M=4 over 2 processes, shared memory):")
    sharded = ProcessShardedPartitioner(
        SPNLPartitioner(K, num_shards=1), parallelism=4, num_workers=2)
    result = sharded.partition(GraphStream(graph))
    model = SimulatedParallelPartitioner(
        SPNLPartitioner(K, num_shards=1), parallelism=4).partition(
            GraphStream(graph))
    ecr = evaluate(graph, result.assignment).ecr
    print(f"  ECR={ecr:.4f} ({ecr / serial_ecr - 1:+.1%} vs serial) "
          f"PT={result.elapsed_seconds:.2f}s "
          f"delayed={result.stats['delayed']} "
          f"identical to the model: {result.assignment == model.assignment}")


if __name__ == "__main__":
    main()
