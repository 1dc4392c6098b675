"""Benchmark harness: datasets, runners, and the regeneration of the
paper's tables and figures on the stand-in graphs.

Performance is measured in one place only: ``BENCHMARK.json`` and
``benchmarks/e2e/`` (see ``docs/benchmarks.md``)."""

from .datasets import DATASETS, DatasetSpec, clear_cache, load, load_all
from .figures import (
    FigureData,
    ablation_decay,
    ablation_locality,
    ablation_rct,
    ablation_restreaming,
    fig3_lambda_sweep,
    fig7_window_sweep,
    fig8_9_k_sweep_streaming,
    fig10_11_k_sweep_offline,
    fig12_worker_sweep,
)
from .harness import BenchRecord, run_many, run_partitioner
from .report import format_markdown, format_series, format_table
from .suite import run_full_suite
from .sweep import SweepResult, sweep
from .tables import (
    PAPER_MEMORY_BUDGET_BYTES,
    paper_scale_oom,
    table2_datasets,
    table3_streaming,
    table4_memory,
    table5_offline,
)

__all__ = [
    "BenchRecord",
    "DATASETS",
    "DatasetSpec",
    "FigureData",
    "PAPER_MEMORY_BUDGET_BYTES",
    "SweepResult",
    "ablation_decay",
    "ablation_locality",
    "ablation_rct",
    "ablation_restreaming",
    "clear_cache",
    "fig3_lambda_sweep",
    "fig7_window_sweep",
    "fig8_9_k_sweep_streaming",
    "fig10_11_k_sweep_offline",
    "fig12_worker_sweep",
    "format_markdown",
    "format_series",
    "format_table",
    "load",
    "load_all",
    "paper_scale_oom",
    "run_full_suite",
    "run_many",
    "run_partitioner",
    "sweep",
    "table2_datasets",
    "table3_streaming",
    "table4_memory",
    "table5_offline",
]
