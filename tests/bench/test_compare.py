"""Tests for the statistical benchmark comparator (the regression gate).

The acceptance bar from the issue: identical artifacts compare as
``no-change`` on every metric, and a synthetic 30% slowdown is flagged
``regressed``.  Beyond that, the statistics themselves are pinned:
exact Mann–Whitney p-values against hand-computed values, bootstrap CI
behavior on degenerate inputs, and the noise-floor / min-effect /
attainability rules that keep tiny noisy deltas from gating a PR.
"""

import copy

import numpy as np
import pytest

from repro.bench.compare import (
    CompareError,
    VERDICT_IMPROVED,
    VERDICT_NO_CHANGE,
    VERDICT_REGRESSED,
    bootstrap_ratio_ci,
    compare_artifacts,
    compare_samples,
    extract_identity_flags,
    extract_metrics,
    mann_whitney_u,
    smallest_attainable_p,
)


def _summary(runs):
    runs = list(runs)
    return {"median_s": float(np.median(runs)), "stdev_s": 0.0,
            "min_s": min(runs), "max_s": max(runs), "runs_s": runs}


def make_streaming_artifact(scale=1.0, *, identical=True, methods=("ldg",),
                            repeats=5, machine=None):
    """A minimal but schema-complete streaming-hot-path artifact.

    Samples are tightly clustered around ``0.2*scale`` (fast) and
    ``0.4*scale`` (seed) so a scaled copy separates cleanly.
    """
    results = []
    for method in methods:
        fast = [0.2 * scale * (1 + 0.01 * i) for i in range(repeats)]
        seed = [0.4 * scale * (1 + 0.01 * i) for i in range(repeats)]
        results.append({"method": method, "kwargs": {},
                        "fast": _summary(fast), "seed": _summary(seed),
                        "speedup_median": 2.0, "identical": identical,
                        "records_per_s_fast": 1.0,
                        "records_per_s_seed": 1.0})
    return {
        "benchmark": "streaming-hot-path",
        "created_unix": 1700000000.0,
        "machine": machine or {"platform": "test", "machine": "x86_64",
                               "processor": "", "python": "3.11.7",
                               "numpy": "2.4.6", "cpu_count": 1,
                               "cpu_count_logical": 1,
                               "commit": "abc1234", "dirty": False},
        "config": {"graph": "community_web", "num_vertices": 100,
                   "num_edges": 400, "k": 4, "warmup": 0,
                   "repeats": repeats, "seed": 11},
        "results": results,
    }


def make_ingest_artifact():
    return {
        "benchmark": "ingest-pipeline",
        "created_unix": 1700000000.0,
        "machine": {"platform": "test", "machine": "x86_64",
                    "python": "3.11.7", "numpy": "2.4.6", "cpu_count": 1},
        "config": {"k": 4},
        "results": [{"stage": "parse",
                     "baseline": _summary([0.2, 0.21, 0.22]),
                     "optimized": _summary([0.1, 0.11, 0.12]),
                     "speedup_median": 2.0, "identical": True}],
        "identity": {"ldg": {"fast_path": True, "record_path": False}},
    }


class TestMannWhitney:
    def test_exact_p_fully_separated_5v5(self):
        # U = 0; two-sided exact p = 2 / C(10,5) = 2/252.
        _, p = mann_whitney_u([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
        assert p == pytest.approx(2 / 252)

    def test_symmetry(self):
        a, b = [1.0, 2.0, 3.0], [2.5, 3.5, 4.5]
        assert mann_whitney_u(a, b)[1] == pytest.approx(
            mann_whitney_u(b, a)[1])

    def test_identical_samples_p_is_one(self):
        _, p = mann_whitney_u([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert p == 1.0

    def test_interleaved_samples_not_significant(self):
        _, p = mann_whitney_u([1, 3, 5, 7, 9], [2, 4, 6, 8, 10])
        assert p > 0.2

    def test_empty_side_degenerates(self):
        assert mann_whitney_u([], [1.0])[1] == 1.0

    def test_large_samples_use_normal_approximation(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 40)
        b = rng.normal(2.0, 1.0, 40)
        _, p = mann_whitney_u(a, b)
        assert p < 1e-6

    def test_attainability_floor(self):
        assert smallest_attainable_p(3, 3) == pytest.approx(0.1)
        assert smallest_attainable_p(5, 5) == pytest.approx(2 / 252)
        assert smallest_attainable_p(2, 2) == pytest.approx(1 / 3)


class TestBootstrap:
    def test_identical_samples_collapse_to_unit_ci(self):
        lo, hi = bootstrap_ratio_ci([1.0] * 5, [1.0] * 5)
        assert lo == hi == 1.0

    def test_separated_samples_exclude_one(self):
        base = [1.0, 1.01, 1.02, 0.99, 0.98]
        cand = [1.5, 1.51, 1.52, 1.49, 1.48]
        lo, hi = bootstrap_ratio_ci(base, cand,
                                    rng=np.random.default_rng(7))
        assert lo > 1.0
        assert lo < 1.5 < hi * 1.1

    def test_deterministic_given_rng_seed(self):
        base, cand = [1.0, 1.1, 0.9], [1.2, 1.3, 1.25]
        one = bootstrap_ratio_ci(base, cand, rng=np.random.default_rng(3))
        two = bootstrap_ratio_ci(base, cand, rng=np.random.default_rng(3))
        assert one == two


class TestVerdicts:
    def test_identical_is_no_change(self):
        d = compare_samples("m", [1.0, 1.01, 0.99], [1.0, 1.01, 0.99])
        assert d.verdict == VERDICT_NO_CHANGE

    def test_large_separated_slowdown_regresses(self):
        base = [1.0 + 0.01 * i for i in range(5)]
        cand = [1.3 * t for t in base]
        d = compare_samples("m", base, cand)
        assert d.verdict == VERDICT_REGRESSED
        assert d.ratio == pytest.approx(1.3)

    def test_large_separated_speedup_improves(self):
        base = [1.0 + 0.01 * i for i in range(5)]
        cand = [0.5 * t for t in base]
        assert compare_samples("m", base, cand).verdict == VERDICT_IMPROVED

    def test_delta_below_noise_floor_never_flagged(self):
        # 3% clean shift, perfectly significant — still under the floor.
        base = [1.0, 1.001, 1.002, 1.003, 1.004]
        cand = [1.03 * t for t in base]
        d = compare_samples("m", base, cand, noise_floor=0.05)
        assert d.verdict == VERDICT_NO_CHANGE

    def test_large_but_noisy_delta_not_flagged(self):
        # medians differ 30% but samples interleave: no rank evidence.
        base = [1.0, 2.0, 0.5, 1.8, 0.7]
        cand = [1.3, 0.6, 2.2, 0.9, 1.9]
        d = compare_samples("m", base, cand)
        assert d.verdict == VERDICT_NO_CHANGE

    def test_tiny_samples_rely_on_ci(self):
        # 2 repeats: exact MW can never clear 0.05, CI must carry it.
        d = compare_samples("m", [1.0, 1.01], [1.4, 1.41])
        assert d.verdict == VERDICT_REGRESSED


class TestExtraction:
    def test_streaming_metrics_and_flags(self):
        art = make_streaming_artifact(methods=("ldg", "spnl"))
        metrics = extract_metrics(art)
        assert set(metrics) == {"ldg/fast", "ldg/seed",
                                "spnl/fast", "spnl/seed"}
        assert len(metrics["ldg/fast"]) == 5
        flags = extract_identity_flags(art)
        assert flags == {"ldg/identical": True, "spnl/identical": True}

    def test_ingest_metrics_and_nested_identity(self):
        art = make_ingest_artifact()
        metrics = extract_metrics(art)
        assert set(metrics) == {"parse/baseline", "parse/optimized"}
        flags = extract_identity_flags(art)
        assert flags["identity/ldg/fast_path"] is True
        assert flags["identity/ldg/record_path"] is False

    def test_unknown_benchmark_kind_raises(self):
        with pytest.raises(CompareError, match="unknown benchmark kind"):
            extract_metrics({"benchmark": "mystery", "results": [{}]})


class TestCompareArtifacts:
    def test_identical_artifacts_all_no_change(self):
        art = make_streaming_artifact(methods=("ldg", "fennel"))
        result = compare_artifacts(art, art)
        assert result.verdict == VERDICT_NO_CHANGE
        assert all(m.verdict == VERDICT_NO_CHANGE for m in result.metrics)
        assert result.gate_exit_code() == 0

    def test_thirty_percent_slowdown_regresses_and_gates(self):
        base = make_streaming_artifact()
        slow = copy.deepcopy(base)
        for rec in slow["results"]:
            rec["fast"]["runs_s"] = [t * 1.3 for t in
                                     rec["fast"]["runs_s"]]
        result = compare_artifacts(base, slow)
        assert result.verdict == VERDICT_REGRESSED
        assert "ldg/fast" in [m.metric for m in result.regressions]
        assert result.gate_exit_code() == 1

    def test_lost_identity_regresses_even_with_equal_timings(self):
        base = make_streaming_artifact()
        broken = make_streaming_artifact(identical=False)
        result = compare_artifacts(base, broken)
        assert result.verdict == VERDICT_REGRESSED
        (delta,) = [m for m in result.metrics
                    if m.metric == "ldg/identical"]
        assert delta.verdict == VERDICT_REGRESSED
        assert "identity" in delta.note

    def test_mismatched_benchmark_kinds_raise(self):
        with pytest.raises(CompareError, match="kinds differ"):
            compare_artifacts(make_streaming_artifact(),
                              make_ingest_artifact())

    def test_config_mismatch_warns(self):
        base = make_streaming_artifact()
        cand = copy.deepcopy(base)
        cand["config"]["k"] = 8
        result = compare_artifacts(base, cand)
        assert any("config mismatch on 'k'" in w for w in result.warnings)

    def test_fingerprint_mismatch_warns(self):
        base = make_streaming_artifact()
        cand = copy.deepcopy(base)
        cand["machine"]["cpu_count"] = 64
        result = compare_artifacts(base, cand)
        assert any("fingerprints differ" in w for w in result.warnings)
        assert result.params["fingerprint_match"] is False

    def test_metric_present_on_one_side_warns_and_skips(self):
        base = make_streaming_artifact(methods=("ldg", "spnl"))
        cand = make_streaming_artifact(methods=("ldg",))
        result = compare_artifacts(base, cand)
        assert any("only in baseline" in w for w in result.warnings)
        assert "spnl/fast" not in [m.metric for m in result.metrics]

    def test_to_dict_round_trips_through_json(self):
        import json
        art = make_streaming_artifact()
        payload = compare_artifacts(art, art).to_dict()
        restored = json.loads(json.dumps(payload))
        assert restored["verdict"] == VERDICT_NO_CHANGE
        assert restored["counts"]["no-change"] == len(payload["metrics"])

    def test_emits_schema_valid_bench_compare_record(self):
        from repro.observability import Instrumentation, MemorySink
        from repro.observability.schema import validate_record

        art = make_streaming_artifact()
        sink = MemorySink()
        hub = Instrumentation([sink])
        compare_artifacts(art, art, baseline_path="a.json",
                          candidate_path="b.json", instrumentation=hub)
        hub.close()
        (record,) = [r for r in sink.records
                     if r["type"] == "bench_compare"]
        validate_record(record)
        assert record["verdict"] == VERDICT_NO_CHANGE
        assert record["unchanged"] == 3  # ldg fast + seed + identity


class TestCrossAffinityWarnings:
    """Regression: a runner throttled to fewer cores resolves (or falls
    back to) a baseline recorded under a different core budget, and the
    gate silently compared apples to oranges.  The comparator must call
    out CPU-affinity drift explicitly, not just 'fingerprints differ'."""

    def test_cpu_count_drift_warns_loudly(self):
        base = make_streaming_artifact()
        throttled = make_streaming_artifact(
            machine={"platform": "test", "machine": "x86_64",
                     "processor": "", "python": "3.11.7",
                     "numpy": "2.4.6", "cpu_count": 4,
                     "cpu_count_logical": 8, "commit": "abc1234",
                     "dirty": False})
        result = compare_artifacts(base, throttled)
        assert any("CROSS-AFFINITY COMPARISON" in w
                   for w in result.warnings)
        assert any("cpu_count=1" in w and "cpu_count=4" in w
                   for w in result.warnings)

    def test_cross_host_without_cpu_drift_stays_generic(self):
        base = make_streaming_artifact()
        other = make_streaming_artifact(
            machine={"platform": "test", "machine": "aarch64",
                     "processor": "", "python": "3.11.7",
                     "numpy": "2.4.6", "cpu_count": 1,
                     "cpu_count_logical": 1, "commit": "abc1234",
                     "dirty": False})
        result = compare_artifacts(base, other)
        assert any("fingerprints differ" in w for w in result.warnings)
        assert not any("CROSS-AFFINITY" in w for w in result.warnings)

    def test_matching_fingerprints_warn_nothing(self):
        art = make_streaming_artifact()
        assert compare_artifacts(art, art).warnings == []


class TestRegimeBoundaryWarnings:
    """A parallel-scaling bench recorded on a 1-CPU host
    (scaling_expected=false) must not gate silently against a multicore
    baseline: the delta measures the host's core budget, not the code."""

    def test_scaling_expected_flip_warns_loudly(self):
        base = make_streaming_artifact()
        base["config"]["scaling_expected"] = True
        cand = copy.deepcopy(base)
        cand["config"]["scaling_expected"] = False
        result = compare_artifacts(base, cand)
        assert any("REGIME BOUNDARY" in w for w in result.warnings)

    def test_matching_regime_stays_silent(self):
        art = make_streaming_artifact()
        art["config"]["scaling_expected"] = False
        result = compare_artifacts(art, copy.deepcopy(art))
        assert not any("REGIME BOUNDARY" in w for w in result.warnings)

    def test_absent_flag_is_not_a_boundary(self):
        # Pre-multicore artifacts have no scaling_expected at all;
        # comparing two of them must not invent a regime crossing.
        art = make_streaming_artifact()
        result = compare_artifacts(art, copy.deepcopy(art))
        assert not any("REGIME BOUNDARY" in w for w in result.warnings)


class TestReportRendering:
    def test_report_header_carries_commit_and_dirty(self):
        from repro.bench.report import format_compare_report

        art = make_streaming_artifact()
        dirty = copy.deepcopy(art)
        dirty["machine"]["commit"] = "def5678"
        dirty["machine"]["dirty"] = True
        result = compare_artifacts(art, dirty, baseline_path="base.json",
                                   candidate_path="cand.json")
        text = format_compare_report(result)
        assert "abc1234" in text
        assert "def5678+dirty" in text
        assert "base.json" in text and "cand.json" in text
        assert "verdict: no-change" in text

    def test_markdown_report_is_a_pipe_table(self):
        from repro.bench.report import format_compare_report

        art = make_streaming_artifact()
        text = format_compare_report(compare_artifacts(art, art),
                                     markdown=True)
        assert text.startswith("# bench compare")
        assert "| metric |" in text
