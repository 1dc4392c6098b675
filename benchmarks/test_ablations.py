"""Ablations of the design choices DESIGN.md calls out.

Not in the paper's tables, but each pins one mechanism the paper argues
for: the RCT, topology locality, the η decay, restreaming-vs-SPNL, and
our in-neighbor estimator variants.
"""

import pytest

from repro.bench import (
    ablation_decay,
    ablation_locality,
    ablation_rct,
    ablation_restreaming,
    format_table,
)
from repro.bench.datasets import load
from repro.bench.harness import run_partitioner
from repro.partitioning import SPNLPartitioner


class TestRctAblation:
    @pytest.fixture(scope="class")
    def fig(self):
        return ablation_rct(dataset="uk2002",
                            parallelisms=(1, 4, 16), k=32)

    def test_rct(self, fig, emit):
        emit("ablation_rct", format_table(
            fig.as_rows(), title="Ablation — parallel ECR with/without "
                                 "RCT (uk2002, K=32)"))
        with_rct = fig.series["ECR(with RCT)"]
        without_rct = fig.series["ECR(no RCT)"]
        serial = fig.series["ECR(serial)"][0]
        # At the widest parallelism, the RCT recovers a real share of the
        # concurrency-induced quality loss (the paper's ≤6% vs 47% story).
        loss_with = with_rct[-1] - serial
        loss_without = without_rct[-1] - serial
        assert loss_without > 0, "no degradation to mitigate"
        assert loss_with <= loss_without


class TestLocalityAblation:
    def test_locality(self, emit):
        rows = ablation_locality(dataset="uk2002", k=32)
        emit("ablation_locality", format_table(
            rows, title="Ablation — BFS-ordered vs shuffled ids "
                        "(uk2002, K=32)"))
        table = {(r["ids"], r["method"]): r["ECR"] for r in rows}
        # Every method suffers when ids are shuffled, but SPNL suffers
        # the most in absolute terms — its Range table turns to noise.
        spnl_gap = table[("shuffled", "SPNL")] - table[("bfs-ordered",
                                                        "SPNL")]
        ldg_gap = table[("shuffled", "LDG")] - table[("bfs-ordered",
                                                      "LDG")]
        assert spnl_gap > 0
        assert spnl_gap > ldg_gap
        # And with locality intact, SPNL < SPN < LDG.
        assert table[("bfs-ordered", "SPNL")] <= \
            table[("bfs-ordered", "SPN")]
        assert table[("bfs-ordered", "SPN")] < \
            table[("bfs-ordered", "LDG")]


class TestDecayAblation:
    """η-decay schedule ablation — and a finding the paper anticipated.

    The paper's η_i^t = max(0, (|V_i^lt|-|V_i^pt|)/|V_i^lt|) hits zero
    once a range is half consumed, i.e. it abandons the logical table
    very early; the authors explicitly defer "more interesting yet
    effective settings" to future work.  Our measurement: with the
    combined in-estimator carrying most of the physical knowledge, the
    *frozen* η=1 variant actually beats the decaying schedule on
    high-locality graphs (e.g. indo2004 0.083 vs 0.130) — the decay
    forfeits locality knowledge faster than physical knowledge replaces
    it.  The bench records both and pins only soundness plus the fact
    that the two variants stay in the same quality regime.
    """

    def test_decay(self, emit):
        rows = ablation_decay(dataset="indo2004", k=32)
        emit("ablation_decay", format_table(
            rows, title="Ablation — η schedules (indo2004, K=32) "
                        "[linear/frozen beat the paper's formula]"))
        by_name = {r["schedule"]: r["ECR"] for r in rows}
        # Same regime: no schedule degenerates.
        worst, best = max(by_name.values()), min(by_name.values())
        assert worst <= 2.5 * best + 0.01
        # The slower schedules dominate the paper's fast decay here.
        assert by_name["linear"] <= by_name["paper"] + 0.01
        assert by_name["frozen"] <= by_name["paper"] + 0.01
        for r in rows:
            assert r["delta_v"] <= 1.11


class TestRestreamingAblation:
    def test_restreaming(self, emit):
        fig = ablation_restreaming(dataset="uk2005", k=32,
                                   passes=(1, 2, 3))
        emit("ablation_restreaming", format_table(
            fig.as_rows(), title="Ablation — ReLDG passes vs single-pass "
                                 "SPNL (uk2005, K=32)"))
        ldg = fig.series["ECR(ReLDG)"]
        # Restreaming monotonically (weakly) improves LDG...
        assert ldg[-1] <= ldg[0] + 0.01
        # ...but even 3 passes do not open a large gap over 1-pass SPNL.
        spnl = fig.series["ECR(SPNL, 1 pass)"][0]
        assert spnl <= ldg[-1] * 1.2 + 0.02


class TestEstimatorAblation:
    def test_in_estimators(self, emit):
        graph = load("uk2002")

        rows = []
        for estimator in ("self", "neighborhood", "combined"):
            record = run_partitioner(
                SPNLPartitioner(32, in_estimator=estimator), graph)
            rows.append({"estimator": estimator,
                         "ECR": round(record.ecr, 4)})
        emit("ablation_estimator", format_table(
            rows, title="Ablation — in-neighbor estimator (uk2002, "
                        "K=32): Eq. 5 vs worked-example vs combined"))
        by_name = {r["estimator"]: r["ECR"] for r in rows}
        # The default must dominate (this justified choosing it).
        assert by_name["combined"] <= by_name["neighborhood"] + 0.01
        assert by_name["combined"] <= by_name["self"] + 0.01
