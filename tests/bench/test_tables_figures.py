"""Unit tests for table/figure regeneration (on small subsets for speed).

The full-scale assertions about *shapes* (who wins, by what factor) live
in benchmarks/; here we verify the machinery itself: row structure, OOM
gating, series alignment.
"""

import pytest

from repro.bench import (
    FigureData,
    ablation_decay,
    ablation_locality,
    fig3_lambda_sweep,
    format_series,
    format_table,
    paper_scale_oom,
    table2_datasets,
    table3_streaming,
    table4_memory,
    table5_offline,
)


class TestOOMGate:
    def test_paper_failure_pattern(self):
        """Exactly the paper's Table V 'F' entries."""
        assert not paper_scale_oom("web2001", "METIS")
        assert paper_scale_oom("sk2005", "METIS")
        assert paper_scale_oom("uk2007", "METIS")
        assert not paper_scale_oom("sk2005", "XtraPuLP")
        assert paper_scale_oom("uk2007", "XtraPuLP")

    def test_small_graphs_never_oom(self):
        for name in ("stanford", "uk2005", "eu2015", "indo2004",
                     "uk2002"):
            assert not paper_scale_oom(name, "METIS"), name
            assert not paper_scale_oom(name, "XtraPuLP"), name


class TestTable2:
    def test_rows_for_all_datasets(self):
        rows = table2_datasets(names=["uk2005"])
        assert len(rows) == 1
        assert rows[0]["paper |V|"] == 100_000
        assert rows[0]["standin |V|"] > 0


class TestTable3:
    def test_subset_structure(self):
        records = table3_streaming(k=8, names=["uk2005"])
        assert [r.partitioner for r in records] == [
            "LDG", "FENNEL", "SPN", "SPNL"]
        assert all(not r.failed for r in records)

    def test_spnl_wins_on_subset(self):
        records = table3_streaming(k=8, names=["uk2005"])
        by_name = {r.partitioner: r for r in records}
        assert by_name["SPNL"].ecr < by_name["LDG"].ecr


class TestTable4:
    def test_structure(self):
        rows = table4_memory(dataset="uk2005", k=8)
        methods = [r["method"] for r in rows]
        assert methods[0] == "LDG"
        assert any("SPNL" in m for m in methods)
        for row in rows:
            assert row["measured MC(MB)"] > 0

    def test_windowed_model_below_full(self):
        rows = table4_memory(dataset="uk2005", k=8)
        spnl_rows = [r for r in rows if "SPNL" in r["method"]]
        full, windowed = spnl_rows[0], spnl_rows[1]
        assert windowed["model MC(MB)"] < full["model MC(MB)"]
        assert windowed["paper-scale MC(GB)"] < full["paper-scale MC(GB)"]


class TestTable5:
    def test_oom_rows_marked_failed(self):
        records = table5_offline(k=8, names=["uk2007"])
        failed = {r.partitioner for r in records if r.failed}
        assert "METIS-like" in failed
        assert any("XtraPuLP" in name for name in failed)
        spnl = [r for r in records if r.partitioner.startswith("SPNL")]
        assert all(not r.failed for r in spnl)

    def test_all_methods_present(self):
        records = table5_offline(k=8, names=["uk2005"])
        assert len(records) == 5
        assert all(not r.failed for r in records)


class TestFigures:
    def test_fig3_shape(self):
        fig = fig3_lambda_sweep(datasets=["uk2005"],
                                lambdas=(0.0, 0.5, 1.0), k=8)
        assert fig.x_values == [0.0, 0.5, 1.0]
        assert len(fig.series["ECR(uk2005)"]) == 3

    def test_figure_data_validates_length(self):
        fig = FigureData("f", "x", [1, 2, 3])
        with pytest.raises(ValueError, match="points"):
            fig.add("bad", [1, 2])

    def test_figure_as_rows(self):
        fig = FigureData("f", "x", [1, 2])
        fig.add("y", [0.5, 0.25])
        rows = fig.as_rows()
        assert rows[0] == {"x": 1, "y": 0.5}

    def test_ablation_locality_rows(self):
        rows = ablation_locality(dataset="uk2005", k=8)
        assert {r["ids"] for r in rows} == {"bfs-ordered", "shuffled"}
        assert len(rows) == 6

    def test_ablation_decay_rows(self):
        rows = ablation_decay(dataset="uk2005", k=8)
        assert {"paper", "frozen", "linear"} <= {r["schedule"]
                                                 for r in rows}


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}],
                            title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_series(self):
        text = format_series("x", [1, 2], {"y": [3, 4]})
        assert "x" in text and "y" in text

    def test_heterogeneous_rows_merge_columns(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text
