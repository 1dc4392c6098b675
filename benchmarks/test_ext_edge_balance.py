"""Extension bench: the δ_e report the paper omitted.

Table III's discussion: "all of them can support δ_e if necessary, by
measuring capacity with the number of edges. Here we omit the report due
to the length limitation of the manuscript."  We supply it: the same
streaming comparison on the two δ_e-skewed graphs with the capacity
measured in **edges** (BalanceMode.EDGE).

Expected shape: δ_e collapses to ≈ the slack for every method (that is
what the mode is for), δ_v opens up instead (dense regions hold fewer
vertices per edge), and the ECR ordering SPNL < SPN < LDG survives the
constraint change.
"""

import pytest

from repro.bench import format_table, load
from repro.bench.harness import run_partitioner
from repro.partitioning import (
    FennelPartitioner,
    LDGPartitioner,
    SPNLPartitioner,
    SPNPartitioner,
)

DATASETS = ("eu2015", "indo2004")
K = 32


@pytest.fixture(scope="module")
def rows():
    out = []
    for name in DATASETS:
        graph = load(name)
        for partitioner, label in [
            (LDGPartitioner(K, balance="edge"), None),
            (FennelPartitioner(K, balance="edge"), None),
            (SPNPartitioner(K, balance="edge", num_shards="auto"), None),
            (SPNLPartitioner(K, balance="edge", num_shards="auto"), None),
            (SPNLPartitioner(K, balance="both", edge_slack=1.5,
                             num_shards="auto"), "SPNL(both)"),
        ]:
            record = run_partitioner(partitioner, graph)
            out.append({
                "graph": name,
                "method": label or record.partitioner,
                "ECR": round(record.ecr, 4),
                "delta_v": round(record.delta_v, 2),
                "delta_e": round(record.delta_e, 2),
            })
    return out


def test_edge_balance_mode(rows, emit):
    emit("ext_edge_balance", format_table(
        rows, title=f"Extension — edge-balanced capacity "
                    f"(the paper's omitted δ_e report, K={K})"))
    by_key = {(r["graph"], r["method"]): r for r in rows}
    for graph in DATASETS:
        for method in ("LDG", "FENNEL", "SPN", "SPNL"):
            row = by_key[(graph, method)]
            # the constraint now binds δ_e instead of δ_v
            assert row["delta_e"] <= 1.15, (graph, method)
        # quality ordering survives the constraint change
        assert by_key[(graph, "SPNL")]["ECR"] < \
            by_key[(graph, "LDG")]["ECR"], graph
        assert by_key[(graph, "SPN")]["ECR"] < \
            by_key[(graph, "LDG")]["ECR"], graph


def test_vertex_balance_opens_up(rows):
    """Under edge capacity, δ_v on the skewed graphs exceeds 1.1 — the
    mirror image of Table III's skewed δ_e."""
    by_key = {(r["graph"], r["method"]): r for r in rows}
    assert any(by_key[(g, "SPNL")]["delta_v"] > 1.1 for g in DATASETS)


def test_multiconstraint_bounds_both(rows):
    """BalanceMode.BOTH holds δ_v and δ_e simultaneously — the
    multi-constraint regime the paper cites XtraPuLP for, available on
    every streaming heuristic here."""
    by_key = {(r["graph"], r["method"]): r for r in rows}
    for g in DATASETS:
        row = by_key[(g, "SPNL(both)")]
        assert row["delta_v"] <= 1.11, g
        # the edge cap can overshoot by one adjacency list (a single
        # high-degree arrival cannot be split) plus the all-full
        # fallback; eu2015's max out-degree is ~12% of a partition's
        # ideal edge load, hence the headroom over edge_slack=1.5
        assert row["delta_e"] <= 1.8, g
