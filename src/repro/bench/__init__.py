"""Benchmark harness: datasets, runners, and the regeneration of the
paper's tables and figures on the stand-in graphs.

Performance is measured in one place only: ``BENCHMARK.json`` and
``benchmarks/e2e/`` (see ``docs/benchmarks.md``)."""

from .._lazy import lazy_exports

# Submodule each public name lives in, imported on first use.
_EXPORTS = {
    "DATASETS": "datasets",
    "DatasetSpec": "datasets",
    "clear_cache": "datasets",
    "load": "datasets",
    "load_all": "datasets",
    "FigureData": "figures",
    "ablation_decay": "figures",
    "ablation_locality": "figures",
    "ablation_rct": "figures",
    "ablation_restreaming": "figures",
    "fig3_lambda_sweep": "figures",
    "fig7_window_sweep": "figures",
    "fig8_9_k_sweep_streaming": "figures",
    "fig10_11_k_sweep_offline": "figures",
    "fig12_worker_sweep": "figures",
    "BenchRecord": "harness",
    "run_partitioner": "harness",
    "format_series": "report",
    "format_table": "report",
    "SweepResult": "sweep",
    "sweep": "sweep",
    "PAPER_MEMORY_BUDGET_BYTES": "tables",
    "paper_scale_oom": "tables",
    "table2_datasets": "tables",
    "table3_streaming": "tables",
    "table4_memory": "tables",
    "table5_offline": "tables",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
    "format_series",
    "format_table",
    "load",
    "load_all",
    "paper_scale_oom",
    "run_partitioner",
    "sweep",
    "table2_datasets",
    "table3_streaming",
    "table4_memory",
    "table5_offline",
]
