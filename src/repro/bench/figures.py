"""Regeneration of every figure in the paper's evaluation (Sec. VI).

Each function returns the figure's data as ``{series name: values}`` over
an explicit x-axis, ready for :func:`repro.bench.report.format_series`.
Assertable *shape* expectations (who wins, where the curve bends) live in
``benchmarks/``; this module only produces the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..graph.relabel import random_relabel
from ..graph.stream import GraphStream
from ..offline.label_propagation import LabelPropagationPartitioner
from ..offline.multilevel import MultilevelPartitioner
from ..parallel.executor import SimulatedParallelPartitioner
from ..parallel.process import ProcessShardedPartitioner
from ..partitioning.fennel import FennelPartitioner
from ..partitioning.ldg import LDGPartitioner
from ..partitioning.metrics import evaluate
from ..partitioning.restreaming import RestreamingPartitioner
from ..partitioning.spn import SPNPartitioner
from ..partitioning.spnl import SPNLPartitioner
from .datasets import load
from .harness import run_partitioner

__all__ = [
    "FigureData",
    "fig3_lambda_sweep",
    "fig7_window_sweep",
    "fig8_9_k_sweep_streaming",
    "fig10_11_k_sweep_offline",
    "fig12_worker_sweep",
    "ablation_rct",
    "ablation_locality",
    "ablation_decay",
    "ablation_restreaming",
]


@dataclass
class FigureData:
    """One figure: an x-axis plus named series (all equal length)."""

    name: str
    x_label: str
    x_values: list
    series: dict[str, list] = field(default_factory=dict)

    def add(self, series_name: str, values: Sequence) -> None:
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {series_name!r} has {len(values)} points, "
                f"x-axis has {len(self.x_values)}")
        self.series[series_name] = values

    def as_rows(self) -> list[dict]:
        rows = []
        for i, x in enumerate(self.x_values):
            row = {self.x_label: x}
            for name, values in self.series.items():
                value = values[i]
                row[name] = round(value, 4) if isinstance(value, float) \
                    else value
            rows.append(row)
        return rows


# ----------------------------------------------------------------------
# Fig. 3 — ECR vs λ
# ----------------------------------------------------------------------
def fig3_lambda_sweep(datasets: Iterable[str] = ("eu2015", "indo2004"),
                      lambdas: Sequence[float] = (
                          0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
                      k: int = 32) -> FigureData:
    """SPN's ECR as a function of λ (paper Fig. 3).

    The paper finds both extremes suboptimal: λ=1 ignores in-neighbors
    (degrading to LDG), λ=0 ignores out-neighbors; the default 0.5 sits
    in the flat interior of the curve.

    The sweep runs with ``in_estimator="self"`` — the paper's λ weighs
    *pure* in-knowledge against *pure* out-knowledge, and only the
    ``Γ_i(v)`` estimator keeps the two ends of the dial pure (the
    default "combined" estimator folds out-neighborhood expectations
    into the in-term, which flattens the λ=0 end of the curve).
    """
    fig = FigureData("fig3", "lambda", list(lambdas))
    for name in datasets:
        graph = load(name)
        values = []
        for lam in lambdas:
            result = SPNPartitioner(k, lam=lam,
                                    in_estimator="self").partition(
                GraphStream(graph))
            values.append(evaluate(graph, result.assignment).ecr)
        fig.add(f"ECR({name})", values)
    return fig


# ----------------------------------------------------------------------
# Fig. 7 — sliding window sweep
# ----------------------------------------------------------------------
def fig7_window_sweep(dataset: str = "web2001",
                      shards: Sequence[int] = (1, 4, 16, 64, 256, 1024),
                      ks: Sequence[int] = (8, 16, 32)) -> dict[int,
                                                               FigureData]:
    """MC / ECR / δ_v / PT as functions of X for several K (paper Fig. 7).

    Returns one :class:`FigureData` per K with four series each.  MC is
    the measured tracemalloc peak (tracing overhead applies equally to
    every X, so the *trend* is clean); PT comes from a separate untraced
    run.
    """
    graph = load(dataset)
    figures: dict[int, FigureData] = {}
    for k in ks:
        fig = FigureData(f"fig7_k{k}", "X", list(shards))
        mc, ecr, dv, pt = [], [], [], []
        for x in shards:
            timed = run_partitioner(
                SPNLPartitioner(k, num_shards=int(x)), graph)
            measured = run_partitioner(
                SPNLPartitioner(k, num_shards=int(x)), graph,
                measure_memory=True)
            mc.append((measured.mc_bytes or 0) / 1e6)
            ecr.append(timed.ecr)
            dv.append(timed.delta_v)
            pt.append(timed.pt_seconds)
        fig.add("MC(MB)", mc)
        fig.add("ECR", ecr)
        fig.add("delta_v", dv)
        fig.add("PT(s)", pt)
        figures[k] = fig
    return figures


# ----------------------------------------------------------------------
# Figs. 8/9 — K sweep vs streaming partitioners
# ----------------------------------------------------------------------
def fig8_9_k_sweep_streaming(dataset: str,
                             ks: Sequence[int] = (2, 4, 8, 16, 32)
                             ) -> dict[str, FigureData]:
    """All metrics vs K for LDG/FENNEL/SPN/SPNL (paper Figs. 8 & 9).

    ``dataset='uk2002'`` reproduces Fig. 8, ``'indo2004'`` Fig. 9.
    Returns one FigureData per metric with one series per partitioner.
    """
    graph = load(dataset)
    metrics = {m: FigureData(f"fig8_9_{m}", "K", list(ks))
               for m in ("ECR", "delta_v", "delta_e", "PT")}
    factories = {
        "LDG": lambda k: LDGPartitioner(k),
        "FENNEL": lambda k: FennelPartitioner(k),
        "SPN": lambda k: SPNPartitioner(k, num_shards="auto"),
        "SPNL": lambda k: SPNLPartitioner(k, num_shards="auto"),
    }
    for name, factory in factories.items():
        rows = [run_partitioner(factory(k), graph) for k in ks]
        metrics["ECR"].add(name, [r.ecr for r in rows])
        metrics["delta_v"].add(name, [r.delta_v for r in rows])
        metrics["delta_e"].add(name, [r.delta_e for r in rows])
        metrics["PT"].add(name, [r.pt_seconds for r in rows])
    return metrics


# ----------------------------------------------------------------------
# Figs. 10/11 — K sweep vs offline partitioners
# ----------------------------------------------------------------------
def fig10_11_k_sweep_offline(dataset: str,
                             ks: Sequence[int] = (2, 4, 8, 16, 32)
                             ) -> dict[str, FigureData]:
    """All metrics vs K for METIS-like/XtraPuLP-like/SPNL (Figs. 10 & 11).

    ``dataset='indo2004'`` reproduces Fig. 10, ``'eu2015'`` Fig. 11.
    """
    graph = load(dataset)
    metrics = {m: FigureData(f"fig10_11_{m}", "K", list(ks))
               for m in ("ECR", "delta_v", "delta_e", "PT")}
    factories = {
        "METIS-like": lambda k: MultilevelPartitioner(k),
        "XtraPuLP-like": lambda k: LabelPropagationPartitioner(k),
        "SPNL": lambda k: SPNLPartitioner(k, num_shards="auto"),
    }
    for name, factory in factories.items():
        rows = [run_partitioner(factory(k), graph) for k in ks]
        metrics["ECR"].add(name, [r.ecr for r in rows])
        metrics["delta_v"].add(name, [r.delta_v for r in rows])
        metrics["delta_e"].add(name, [r.delta_e for r in rows])
        metrics["PT"].add(name, [r.pt_seconds for r in rows])
    return metrics


# ----------------------------------------------------------------------
# Fig. 12 — parallel granularity sweet spot
# ----------------------------------------------------------------------
def fig12_worker_sweep(datasets: Iterable[str] = ("uk2002", "sk2005"),
                       workers: Sequence[int] = (1, 2, 4, 8, 16),
                       k: int = 32) -> FigureData:
    """SPNL wall-clock PT vs worker count (paper Fig. 12).

    Runs the process executor with one record per worker, as in the
    paper: ``m`` workers score groups of ``m`` records.  SPNL is pinned
    to the dense Γ store (``num_shards=1``) because the process executor
    refuses the sliding-window store that ``"auto"`` can pick.  The
    ``PT(<dataset>, sequential)`` series repeats the plain sequential
    pass at every x, so the figure shows where the curve stands against
    it; EXPERIMENTS.md records what a given host measures.  The quality
    column of the same sweep (ECR vs M) is :func:`ablation_rct`.
    """
    fig = FigureData("fig12", "workers", list(workers))
    for name in datasets:
        graph = load(name)
        pts = []
        for m in workers:
            partitioner = ProcessShardedPartitioner(
                SPNLPartitioner(k, num_shards=1), parallelism=m,
                num_workers=m)
            pts.append(run_partitioner(partitioner, graph).pt_seconds)
        fig.add(f"PT({name})", pts)
        sequential = run_partitioner(SPNLPartitioner(k, num_shards=1),
                                     graph)
        fig.add(f"PT({name}, sequential)",
                [sequential.pt_seconds] * len(pts))
    return fig


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def ablation_rct(dataset: str = "uk2002",
                 parallelisms: Sequence[int] = (1, 2, 4, 8, 16),
                 k: int = 32) -> FigureData:
    """Parallel ECR degradation with and without the RCT (paper's ≤6% vs
    XtraPuLP's up to 47% claim, on the deterministic simulated executor).
    """
    graph = load(dataset)
    serial = run_partitioner(SPNLPartitioner(k, num_shards="auto"), graph)
    fig = FigureData("ablation_rct", "M", list(parallelisms))
    for use_rct in (True, False):
        values = []
        for m in parallelisms:
            if m == 1:
                values.append(serial.ecr)
                continue
            partitioner = SimulatedParallelPartitioner(
                SPNLPartitioner(k, num_shards="auto"),
                parallelism=m, use_rct=use_rct)
            values.append(run_partitioner(partitioner, graph).ecr)
        fig.add("ECR(with RCT)" if use_rct else "ECR(no RCT)", values)
    fig.series["ECR(serial)"] = [serial.ecr] * len(fig.x_values)
    return fig


def ablation_locality(dataset: str = "uk2002", k: int = 32) -> list[dict]:
    """SPNL on BFS-ordered vs randomly relabeled ids.

    Destroying id locality should collapse the SPNL-over-SPN advantage
    (the Range pre-assignment becomes noise) while LDG barely moves —
    direct evidence for the paper's topology-locality premise.
    """
    graph = load(dataset)
    shuffled_graph = random_relabel(graph, seed=13)
    rows = []
    for label, g in [("bfs-ordered", graph), ("shuffled", shuffled_graph)]:
        for partitioner in [LDGPartitioner(k),
                            SPNPartitioner(k),
                            SPNLPartitioner(k)]:
            record = run_partitioner(partitioner, g)
            rows.append({"ids": label, "method": record.partitioner,
                         "ECR": round(record.ecr, 4)})
    return rows


def ablation_decay(dataset: str = "indo2004", k: int = 32) -> list[dict]:
    """η-schedule sweep for SPNL's Eq. 6 — the paper's declared future
    work, explored.

    Besides the paper's formula and the frozen η=1 extreme, the sweep
    covers the ``linear``/``sqrt`` schedules (decay over the *whole*
    range instead of its first half) and a constant mid-point.  Column
    ``decay`` keeps the original boolean semantics for the first two
    rows so older readers of the output stay valid.
    """
    graph = load(dataset)
    rows = []
    for schedule, decay_flag in [("paper", True), ("frozen", False),
                                 ("linear", None), ("sqrt", None),
                                 (0.5, None)]:
        record = run_partitioner(
            SPNLPartitioner(k, eta_schedule=schedule), graph)
        rows.append({
            "schedule": str(schedule),
            "decay": decay_flag if decay_flag is not None else "-",
            "ECR": round(record.ecr, 4),
            "delta_v": round(record.delta_v, 2),
        })
    return rows


def ablation_restreaming(dataset: str = "uk2005", k: int = 32,
                         passes: Sequence[int] = (1, 2, 3, 4)) -> FigureData:
    """Quality-vs-passes for restreamed LDG against single-pass SPNL.

    The related-work tradeoff: restreaming buys LDG quality linearly in
    scans; SPNL reaches comparable territory in one scan.
    """
    graph = load(dataset)
    fig = FigureData("ablation_restreaming", "passes", list(passes))
    ldg_values = []
    for p in passes:
        partitioner = RestreamingPartitioner(
            lambda: LDGPartitioner(k), num_passes=p)
        ldg_values.append(run_partitioner(partitioner, graph).ecr)
    fig.add("ECR(ReLDG)", ldg_values)
    spnl = run_partitioner(SPNLPartitioner(k, num_shards="auto"), graph)
    fig.series["ECR(SPNL, 1 pass)"] = [spnl.ecr] * len(fig.x_values)
    return fig
