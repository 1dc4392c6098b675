"""Unit tests for the full-suite runner's plumbing (rendering, layout).

The end-to-end quick run lives in benchmarks/test_suite_all.py; here we
only pin the pure pieces so failures localize.
"""

import pytest

from repro.bench.figures import FigureData
from repro.bench.harness import BenchRecord
from repro.bench.suite import _figure_sections, _render


class TestRender:
    def test_figure_data(self):
        fig = FigureData("f", "x", [1, 2])
        fig.add("y", [0.1, 0.2])
        text = _render(fig)
        assert "| x | y |" in text

    def test_dict_of_figures(self):
        fig = FigureData("f", "x", [1])
        fig.add("y", [3])
        text = _render({"ECR": fig, "PT": fig})
        assert "*ECR*" in text and "*PT*" in text

    def test_list_of_records(self):
        record = BenchRecord(graph="g", partitioner="LDG",
                             num_partitions=4, ecr=0.5, delta_v=1.0,
                             delta_e=1.2, pt_seconds=0.1)
        text = _render([record])
        assert "LDG" in text

    def test_list_of_dicts(self):
        assert "| a |" in _render([{"a": 1}])


class TestSections:
    def test_quick_mode_shrinks_sweeps(self):
        quick = _figure_sections(quick=True)
        full = _figure_sections(quick=False)
        assert len(quick) == len(full)
        titles = [t for t, _ in full]
        assert any("Fig. 3" in t for t in titles)
        assert any("Ablation" in t for t in titles)
        assert any("Extension" in t for t in titles)


class TestExtensionRowHelpers:
    def test_edge_partitioning_rows(self):
        from repro.bench.suite import _edge_partitioning_rows
        rows = _edge_partitioning_rows(("uk2005",))
        assert [r["method"] for r in rows] == ["HDRF", "SPNL-E"]
        by_method = {r["method"]: r["RF"] for r in rows}
        assert by_method["SPNL-E"] < by_method["HDRF"]
