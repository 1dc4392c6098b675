"""Benchmark harness: datasets, runners, table/figure regeneration, the
baseline-store / statistical-compare regression gate, and the perf
history pipeline (per-stage profiling, tidy export, static dashboard)."""

from .baseline import (
    BaselineError,
    fingerprint_key,
    load_baseline,
    make_baseline,
    promote,
    resolve_baseline,
    save_baseline,
    validate_baseline,
)
from .compare import (
    CompareError,
    ComparisonResult,
    MetricDelta,
    compare_artifacts,
    compare_samples,
)
from .dashboard import build_dashboard, render_dashboard
from .datasets import DATASETS, DatasetSpec, clear_cache, load, load_all
from .export import (
    CSV_COLUMNS,
    HISTORY_FORMAT,
    HISTORY_VERSION,
    export_history,
    rows_to_csv,
)
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
from .micro import (
    DEFAULT_METHODS,
    bench_method,
    git_revision,
    machine_fingerprint,
    run_streaming_microbench,
)
from .parallel import bench_parallel_method, run_parallel_scaling_bench
from .profile import PROFILE_MODES, BenchProfiler, default_profile_dir
from .report import (
    format_compare_report,
    format_markdown,
    format_series,
    format_table,
)
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
    "BaselineError",
    "BenchProfiler",
    "BenchRecord",
    "CSV_COLUMNS",
    "CompareError",
    "ComparisonResult",
    "DATASETS",
    "DEFAULT_METHODS",
    "HISTORY_FORMAT",
    "HISTORY_VERSION",
    "MetricDelta",
    "PROFILE_MODES",
    "build_dashboard",
    "default_profile_dir",
    "export_history",
    "render_dashboard",
    "rows_to_csv",
    "bench_method",
    "bench_parallel_method",
    "compare_artifacts",
    "compare_samples",
    "fingerprint_key",
    "git_revision",
    "load_baseline",
    "machine_fingerprint",
    "make_baseline",
    "promote",
    "resolve_baseline",
    "run_parallel_scaling_bench",
    "run_streaming_microbench",
    "save_baseline",
    "validate_baseline",
    "format_compare_report",
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
