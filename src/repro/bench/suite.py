"""One-command full reproduction: every table, figure, and ablation.

``run_full_suite`` executes the entire evaluation of the paper (plus the
extensions) and writes a self-contained markdown report; it is what
``repro-partition bench all`` runs.  ``quick=True`` shrinks K-sweeps and
dataset lists for smoke-testing the pipeline in ~1 minute.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

from . import figures, tables
from .report import format_markdown

__all__ = ["run_full_suite"]


def _figure_sections(quick: bool) -> list[tuple[str, Callable[[], Any]]]:
    ks = (2, 8, 32) if quick else (2, 4, 8, 16, 32)
    shards = (1, 16, 256) if quick else (1, 4, 16, 64, 256)
    return [
        ("Fig. 3 — ECR vs λ (SPN)",
         lambda: figures.fig3_lambda_sweep(
             lambdas=(0.0, 0.5, 1.0) if quick
             else (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0))),
        ("Fig. 7 — sliding-window X sweep (SPNL, web2001)",
         lambda: figures.fig7_window_sweep(
             shards=shards, ks=(32,) if quick else (8, 32))),
        ("Fig. 8 — metrics vs K, streaming (uk2002)",
         lambda: figures.fig8_9_k_sweep_streaming("uk2002", ks=ks)),
        ("Fig. 9 — metrics vs K, streaming (indo2004)",
         lambda: figures.fig8_9_k_sweep_streaming("indo2004", ks=ks)),
        ("Fig. 10 — metrics vs K, offline (indo2004)",
         lambda: figures.fig10_11_k_sweep_offline("indo2004", ks=ks)),
        ("Fig. 11 — metrics vs K, offline (eu2015)",
         lambda: figures.fig10_11_k_sweep_offline("eu2015", ks=ks)),
        ("Fig. 12 — PT vs worker processes (SPNL)",
         lambda: figures.fig12_worker_sweep(
             workers=(1, 2) if quick else (1, 2, 4, 8))),
        ("Ablation — RCT", lambda: figures.ablation_rct(
            parallelisms=(1, 4) if quick else (1, 2, 4, 8, 16))),
        ("Ablation — locality", figures.ablation_locality),
        ("Ablation — η decay", figures.ablation_decay),
        ("Ablation — restreaming", figures.ablation_restreaming),
        ("Extension — edge partitioning (Sec. VII future work)",
         lambda: _edge_partitioning_rows(
             ("uk2005",) if quick else ("uk2005", "stanford"))),
        ("Extension — buffered hybrid framework",
         lambda: _hybrid_rows("uk2005" if quick else "uk2002")),
    ]


def _edge_partitioning_rows(datasets) -> list[dict]:
    from ..edgepart import evaluate_edges
    from ..partitioning.registry import (
        available_partitioners,
        make_partitioner,
    )
    from .datasets import load

    rows = []
    for name in datasets:
        graph = load(name)
        # Every registered edge heuristic, baselines first (registration
        # order is definition order in the modules, which already runs
        # random → dbh → greedy → hdrf → spnl-e).
        for method in ("random", "dbh", "greedy", "hdrf", "spnl-e"):
            assert method in available_partitioners("edge")
            partitioner = make_partitioner(method, 32, kind="edge")
            result = partitioner.partition(graph)
            report = evaluate_edges(graph, result.assignment)
            rows.append({"graph": name, "method": result.partitioner,
                         "RF": round(report.replication_factor, 3),
                         "balance": round(report.load_balance, 3)})
    return rows


def _hybrid_rows(dataset: str) -> list[dict]:
    from ..partitioning import BufferedHybridPartitioner, make_partitioner
    from .datasets import load
    from .harness import run_partitioner

    graph = load(dataset)
    rows = []
    for partitioner in [
        make_partitioner("ldg", 32),
        BufferedHybridPartitioner(lambda: make_partitioner("ldg", 32),
                                  buffer_size=2048),
        make_partitioner("spnl", 32, num_shards="auto"),
        BufferedHybridPartitioner(
            lambda: make_partitioner("spnl", 32, num_shards="auto"),
            buffer_size=2048),
    ]:
        record = run_partitioner(partitioner, graph)
        rows.append({"method": record.partitioner,
                     "ECR": round(record.ecr, 4),
                     "delta_v": round(record.delta_v, 2)})
    return rows


def _render(result: Any) -> str:
    """Render whatever a section function returned as markdown."""
    if isinstance(result, figures.FigureData):
        return format_markdown(result.as_rows())
    if isinstance(result, dict):  # metric/K keyed FigureData bundles
        parts = []
        for key, fig in result.items():
            parts.append(f"*{key}*\n\n" + format_markdown(fig.as_rows()))
        return "\n\n".join(parts)
    if isinstance(result, list):
        rows = [r.as_row() if hasattr(r, "as_row") else r for r in result]
        return format_markdown(rows)
    return str(result)


def run_full_suite(output_dir: str | Path, *, k: int = 32,
                   quick: bool = False,
                   echo: Callable[[str], None] = print) -> Path:
    """Run everything; returns the path of the written REPORT.md."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    sections: list[tuple[str, str, float]] = []

    table_sections: list[tuple[str, Callable[[], Any]]] = [
        ("Table II — datasets", tables.table2_datasets),
        ("Table III — vs streaming partitioners",
         lambda: tables.table3_streaming(k)),
        ("Table IV — memory", lambda: tables.table4_memory(k=k)),
        ("Table V — vs offline partitioners",
         lambda: tables.table5_offline(k)),
    ]
    for title, fn in table_sections + _figure_sections(quick):
        echo(f"[suite] {title} ...")
        start = time.perf_counter()
        body = _render(fn())
        elapsed = time.perf_counter() - start
        sections.append((title, body, elapsed))
        echo(f"[suite]   done in {elapsed:.1f}s")

    lines = [
        "# SPNL reproduction — full evaluation report",
        "",
        f"Generated by `repro.bench.suite.run_full_suite` "
        f"(K={k}, quick={quick}).",
        "Shape expectations and paper-vs-measured commentary: "
        "see EXPERIMENTS.md.",
        "",
    ]
    for title, body, elapsed in sections:
        lines.append(f"## {title}")
        lines.append("")
        lines.append(body)
        lines.append("")
        lines.append(f"_({elapsed:.1f}s)_")
        lines.append("")
    report = output_dir / "REPORT.md"
    report.write_text("\n".join(lines))
    echo(f"[suite] report -> {report}")
    return report
