"""Tests for the perf-history export (``bench export``).

Pinned behaviors: exporting the repo's committed artifacts + baselines
is deterministic and yields one row per (bench kind, metric, source
file); the CSV agrees losslessly with the JSON rows; malformed inputs
(torn JSON, pre-PR-5 layouts, hand-edited envelopes) are quarantined
with a reason instead of crashing; fingerprint keys ride on every row.
"""

import csv
import io
import json
import shutil
from pathlib import Path

import pytest

from repro.bench.export import (
    CSV_COLUMNS,
    HISTORY_FORMAT,
    HISTORY_VERSION,
    default_artifact_paths,
    export_history,
    rows_to_csv,
)
from tests.bench.test_compare import make_streaming_artifact

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def committed_history():
    """Export over the repo's committed artifacts + baseline store."""
    return export_history(
        default_artifact_paths(REPO),
        REPO / "benchmarks" / "baselines")


class TestCommittedExport:
    def test_payload_envelope(self, committed_history):
        history = committed_history
        assert history["format"] == HISTORY_FORMAT
        assert history["version"] == HISTORY_VERSION
        assert history["rows"] and not history["skipped"]

    def test_one_row_per_kind_metric_and_source_file(
            self, committed_history):
        keys = [(r["bench"], r["metric"], r["commit"], r["path"])
                for r in committed_history["rows"]]
        assert len(keys) == len(set(keys))
        kinds = {r["bench"] for r in committed_history["rows"]}
        assert kinds == {"streaming-hot-path", "ingest-pipeline",
                         "parallel-scaling", "service-bench"}

    def test_both_sources_present_with_fingerprint_keys(
            self, committed_history):
        rows = committed_history["rows"]
        assert {r["source"] for r in rows} == {"artifact", "baseline"}
        assert all(len(r["fingerprint_key"]) == 12 for r in rows)

    def test_identity_flags_exported_as_bool_rows(self,
                                                  committed_history):
        flags = [r for r in committed_history["rows"]
                 if r["unit"] == "bool"]
        assert flags
        assert all(r["value"] in (0.0, 1.0) for r in flags)

    def test_export_is_deterministic(self, committed_history):
        again = export_history(default_artifact_paths(REPO),
                               REPO / "benchmarks" / "baselines")
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(committed_history, sort_keys=True)

    def test_csv_agrees_losslessly_with_json(self, committed_history):
        rows = committed_history["rows"]
        text = rows_to_csv(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert tuple(parsed[0]) == CSV_COLUMNS
        assert len(parsed) == len(rows) + 1
        for cells, row in zip(parsed[1:], rows):
            for col, cell in zip(CSV_COLUMNS, cells):
                value = row[col]
                if value is None:
                    assert cell == ""
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                elif isinstance(value, float):
                    assert float(cell) == value  # repr round-trips
                else:
                    assert cell == str(value)


class TestQuarantine:
    def _export(self, tmp_path, warn=None):
        return export_history(
            sorted(tmp_path.glob("BENCH_*.json")),
            tmp_path / "baselines", warn=warn)

    def test_torn_json_fixture_is_skipped_with_reason(self, tmp_path):
        shutil.copy(FIXTURES / "BENCH_torn.json",
                    tmp_path / "BENCH_torn.json")
        warnings = []
        history = self._export(tmp_path, warn=warnings.append)
        (skip,) = history["skipped"]
        assert "torn or partial write" in skip["reason"]
        assert warnings and "BENCH_torn.json" in warnings[0]
        assert history["rows"] == []

    def test_pre_pr5_layout_is_skipped_not_fatal(self, tmp_path):
        shutil.copy(FIXTURES / "BENCH_pre_pr5.json",
                    tmp_path / "BENCH_pre_pr5.json")
        history = self._export(tmp_path)
        (skip,) = history["skipped"]
        assert "unrecognized or partial artifact layout" in skip["reason"]

    def test_unknown_bench_kind_is_quarantined(self, tmp_path):
        artifact = make_streaming_artifact()
        artifact["benchmark"] = "never-heard-of-it"
        (tmp_path / "BENCH_x.json").write_text(json.dumps(artifact))
        history = self._export(tmp_path)
        assert len(history["skipped"]) == 1
        assert history["rows"] == []

    def test_non_object_json_is_skipped(self, tmp_path):
        (tmp_path / "BENCH_list.json").write_text("[1, 2, 3]")
        history = self._export(tmp_path)
        (skip,) = history["skipped"]
        assert skip["reason"] == "not a JSON object"

    def test_hand_edited_baseline_envelope_is_quarantined(self, tmp_path):
        from repro.bench.baseline import make_baseline

        envelope = make_baseline(make_streaming_artifact())
        envelope["fingerprint_key"] = "deadbeef0000"  # tampered
        bdir = tmp_path / "baselines"
        bdir.mkdir()
        (bdir / "streaming-hot-path-deadbeef0000.json").write_text(
            json.dumps(envelope))
        history = self._export(tmp_path)
        (skip,) = history["skipped"]
        assert "invalid baseline envelope" in skip["reason"]

    def test_good_rows_survive_next_to_quarantined_ones(self, tmp_path):
        (tmp_path / "BENCH_good.json").write_text(
            json.dumps(make_streaming_artifact()))
        shutil.copy(FIXTURES / "BENCH_torn.json",
                    tmp_path / "BENCH_torn.json")
        history = self._export(tmp_path)
        assert len(history["skipped"]) == 1
        assert {r["bench"] for r in history["rows"]} == \
            {"streaming-hot-path"}

    def test_missing_inputs_yield_empty_history(self, tmp_path):
        history = export_history([], tmp_path / "nonexistent")
        assert history["rows"] == [] and history["skipped"] == []


class TestProfileProvenance:
    def test_profile_entry_rides_into_the_export(self, tmp_path):
        artifact = make_streaming_artifact()
        artifact["profile"] = {
            "mode": "cprofile", "requested_mode": "cprofile",
            "out_dir": "BENCH_streaming.profile", "top_n": 10,
            "warnings": [],
            "stages": [{"stage": "ldg/fast", "mode": "cprofile",
                        "pstats_path": "BENCH_streaming.profile/"
                                       "ldg-fast.pstats",
                        "top_path": "BENCH_streaming.profile/"
                                    "ldg-fast.top.txt",
                        "collapsed_path": None,
                        "profiled_s": 0.3, "reference_median_s": 0.2,
                        "overhead_pct": 50.0, "top_functions": []}],
        }
        (tmp_path / "BENCH_streaming.json").write_text(
            json.dumps(artifact))
        history = export_history(
            sorted(tmp_path.glob("BENCH_*.json")), None)
        (prof,) = history["profiles"]
        assert prof["bench"] == "streaming-hot-path"
        (stage,) = prof["stages"]
        assert stage["stage"] == "ldg/fast"
        assert stage["overhead_pct"] == 50.0
