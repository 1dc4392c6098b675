"""Statistical comparison of two benchmark artifacts.

``BENCH_streaming.json`` / ``BENCH_ingest.json`` / ``BENCH_service.json``
record *per-repeat* samples (``runs_s``), not just medians — this module is the consumer
those samples were kept for.  Given a baseline artifact and a candidate
artifact of the same benchmark it decides, per metric, whether the
candidate **improved**, **regressed**, or is statistically
indistinguishable (**no-change**) from the baseline, in the spirit of
redisbench-admin's ``compare`` subcommand.

Two independent pieces of evidence must agree before a delta counts:

* a **Mann–Whitney U** rank test over the two sample sets (exact
  two-sided p-value for the small sample counts benches actually
  produce, normal approximation with tie correction beyond that), and
* a **bootstrap confidence interval** on the ratio of medians
  (candidate / baseline), resampling each side with replacement.

Even then, the effect has to clear two configurable thresholds: a
``noise_floor`` (relative deltas below it are never reported, however
significant — container timers jitter) and a ``min_effect`` (the
smallest relative change worth acting on).  Identical inputs therefore
always compare as ``no-change`` for every metric; that degenerate case
is pinned by tests and by the CI self-compare job.

Every metric here is a duration in seconds, so **lower is better**.
Byte-identity flags recorded by the harnesses ride along as boolean
pseudo-metrics: a candidate that lost ``identical: true`` is flagged
``regressed`` regardless of its timings — a speedup that changes
results is a correctness bug, not a perf win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "CompareError",
    "ComparisonResult",
    "MetricDelta",
    "bootstrap_ratio_ci",
    "compare_artifacts",
    "compare_samples",
    "extract_identity_flags",
    "extract_metrics",
    "mann_whitney_u",
    "smallest_attainable_p",
]

#: Fingerprint fields whose mismatch only warns (timings still compare);
#: anything else differing in ``config`` fails the comparison outright.
_VOLATILE_CONFIG_KEYS = frozenset({"text_bytes", "cache_bytes"})

VERDICT_IMPROVED = "improved"
VERDICT_NO_CHANGE = "no-change"
VERDICT_REGRESSED = "regressed"


class CompareError(ValueError):
    """The two artifacts cannot be meaningfully compared."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _exact_mw_p(n: int, m: int, u: float) -> float:
    """Exact two-sided p-value of Mann–Whitney U for tie-free samples.

    Builds the null distribution of U by the Mann & Whitney (1947)
    recurrence ``c[i][j](U) = c[i-1][j](U - j) + c[i][j-1](U)``: the
    largest of the pooled values comes either from the first sample
    (beating all ``j`` present values of the second) or from the second
    (beating none of the first, for this U convention).  Feasible
    because bench repeats are small (2–10 per side).
    """
    total = n * m
    # prev[j][k]: arrangements of (i, j) samples with U == k, for the
    # current i; i=0 has probability mass only at U=0.
    prev = [np.zeros(total + 1) for _ in range(m + 1)]
    for j in range(m + 1):
        prev[j][0] = 1.0
    for _i in range(1, n + 1):
        cur = [np.zeros(total + 1) for _ in range(m + 1)]
        cur[0][0] = 1.0
        for j in range(1, m + 1):
            shifted = np.zeros(total + 1)
            shifted[j:] = prev[j][:total + 1 - j]
            cur[j] = shifted + cur[j - 1]
        prev = cur
    dist = prev[m]
    dist = dist / dist.sum()
    lo = min(u, total - u)
    p = 2.0 * dist[: int(math.floor(lo)) + 1].sum()
    return float(min(1.0, p))


def smallest_attainable_p(n: int, m: int) -> float:
    """The minimum two-sided p the exact U test can produce at (n, m).

    With 3-vs-3 samples the most extreme arrangement still has
    ``p = 2/C(6,3) = 0.1`` — no 3-repeat bench can ever clear a 0.05
    bar on rank evidence alone.  The verdict logic uses this to decide
    whether the rank test is informative at the given sample sizes.
    """
    return 2.0 / math.comb(n + m, n)


def mann_whitney_u(a: Sequence[float], b: Sequence[float]
                   ) -> tuple[float, float]:
    """Two-sided Mann–Whitney U test; returns ``(U_a, p_value)``.

    ``U_a`` counts, over all cross pairs, how often a sample of ``a``
    beats (ranks above) one of ``b``, ties counting half.  The p-value
    is exact (DP over the rank-sum distribution) when both samples are
    small and tie-free; otherwise the normal approximation with tie
    correction and continuity correction is used.  Degenerate inputs
    (all values tied, or an empty side) return ``p = 1.0``.
    """
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0.0, 1.0
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(n + m, dtype=float)
    ranks[order] = np.arange(1, n + m + 1, dtype=float)
    # average ranks over tie groups
    sorted_vals = combined[order]
    i = 0
    while i < n + m:
        j = i
        while j + 1 < n + m and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = ranks[order[i:j + 1]].mean()
        i = j + 1
    rank_sum_a = float(ranks[:n].sum())
    u_a = rank_sum_a - n * (n + 1) / 2.0
    has_ties = len(np.unique(combined)) < n + m
    if not has_ties and n * m <= 400:
        return u_a, _exact_mw_p(n, m, u_a)
    # normal approximation with tie correction
    mu = n * m / 2.0
    tie_term = 0.0
    _, tie_counts = np.unique(combined, return_counts=True)
    tie_term = float(((tie_counts ** 3 - tie_counts)).sum())
    total = n + m
    var = (n * m / 12.0) * ((total + 1) - tie_term / (total * (total - 1)))
    if var <= 0.0:  # every value tied: no evidence of any difference
        return u_a, 1.0
    z = (abs(u_a - mu) - 0.5) / math.sqrt(var)
    p = math.erfc(max(z, 0.0) / math.sqrt(2.0))
    return u_a, float(min(1.0, p))


def bootstrap_ratio_ci(baseline: Sequence[float],
                       candidate: Sequence[float], *,
                       confidence: float = 0.95, n_boot: int = 4000,
                       rng: np.random.Generator | None = None
                       ) -> tuple[float, float]:
    """Percentile bootstrap CI of ``median(candidate)/median(baseline)``.

    Each side is resampled with replacement independently; the interval
    is the ``(1-confidence)/2`` percentile pair of the resampled ratio.
    Deterministic for a given ``rng`` seed.  Degenerate identical
    samples collapse to ``(1.0, 1.0)``.
    """
    base = np.asarray(list(baseline), dtype=float)
    cand = np.asarray(list(candidate), dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    b_idx = rng.integers(0, len(base), size=(n_boot, len(base)))
    c_idx = rng.integers(0, len(cand), size=(n_boot, len(cand)))
    b_med = np.median(base[b_idx], axis=1)
    c_med = np.median(cand[c_idx], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = c_med / b_med
    ratios = ratios[np.isfinite(ratios)]
    if len(ratios) == 0:
        return float("nan"), float("nan")
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(ratios, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


# ----------------------------------------------------------------------
# Metric extraction
# ----------------------------------------------------------------------
def extract_metrics(artifact: Mapping[str, Any]) -> dict[str, list[float]]:
    """Per-metric time samples (``runs_s``) from a bench artifact.

    * ``streaming-hot-path`` → ``<method>/fast`` and ``<method>/seed``;
    * ``ingest-pipeline`` → ``<stage>/optimized`` and
      ``<stage>/baseline``;
    * ``service-bench`` → ``<endpoint>/p50`` / ``/p95`` / ``/p99``
      (per-repeat latency percentiles of the placement service;
      throughput fields are informational and not gated);
    * ``parallel-scaling`` → ``<method>/sequential`` and
      ``<method>/parallel`` (speedup/ECR fields are informational —
      the gate compares wall clock against a same-fingerprint
      baseline, never against a multicore speedup bar).

    All metrics are durations in seconds: lower is better.  Unknown
    benchmark layouts raise :class:`CompareError` rather than guessing.
    """
    kind = artifact.get("benchmark")
    metrics: dict[str, list[float]] = {}
    if kind == "streaming-hot-path":
        for rec in artifact.get("results", []):
            name = rec["method"]
            metrics[f"{name}/fast"] = list(rec["fast"]["runs_s"])
            metrics[f"{name}/seed"] = list(rec["seed"]["runs_s"])
    elif kind == "ingest-pipeline":
        for rec in artifact.get("results", []):
            name = rec["stage"]
            metrics[f"{name}/optimized"] = list(rec["optimized"]["runs_s"])
            metrics[f"{name}/baseline"] = list(rec["baseline"]["runs_s"])
    elif kind == "service-bench":
        for rec in artifact.get("results", []):
            name = rec["endpoint"]
            for quantile in ("p50", "p95", "p99"):
                if quantile in rec:
                    metrics[f"{name}/{quantile}"] = \
                        list(rec[quantile]["runs_s"])
    elif kind == "parallel-scaling":
        for rec in artifact.get("results", []):
            name = rec["method"]
            metrics[f"{name}/sequential"] = \
                list(rec["sequential"]["runs_s"])
            metrics[f"{name}/parallel"] = list(rec["parallel"]["runs_s"])
    else:
        raise CompareError(
            f"unknown benchmark kind {kind!r}; expected "
            "'streaming-hot-path', 'ingest-pipeline', "
            "'service-bench', or 'parallel-scaling'")
    if not metrics:
        raise CompareError(f"artifact {kind!r} contains no results")
    return metrics


def extract_identity_flags(artifact: Mapping[str, Any]) -> dict[str, bool]:
    """Byte-identity booleans from an artifact, flattened to one level."""
    flags: dict[str, bool] = {}
    for rec in artifact.get("results", []):
        name = rec.get("method") or rec.get("stage") or rec.get("endpoint")
        if name is not None and "identical" in rec:
            flags[f"{name}/identical"] = bool(rec["identical"])
    for method, checks in (artifact.get("identity") or {}).items():
        for check, ok in checks.items():
            flags[f"identity/{method}/{check}"] = bool(ok)
    return flags


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
@dataclass
class MetricDelta:
    """One metric's baseline-vs-candidate comparison."""

    metric: str
    verdict: str
    baseline_median: float | None = None
    candidate_median: float | None = None
    ratio: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    p_value: float | None = None
    note: str = ""

    def as_row(self) -> dict[str, Any]:
        if self.ratio is None:  # boolean pseudo-metric
            return {"metric": self.metric, "baseline": "-",
                    "candidate": "-", "delta": "-", "CI95": "-",
                    "p": "-", "verdict": self.verdict}
        delta_pct = (self.ratio - 1.0) * 100.0
        return {
            "metric": self.metric,
            "baseline": f"{self.baseline_median:.4f}s",
            "candidate": f"{self.candidate_median:.4f}s",
            "delta": f"{delta_pct:+.1f}%",
            "CI95": f"[{self.ci_low:.3f}, {self.ci_high:.3f}]",
            "p": f"{self.p_value:.3g}",
            "verdict": self.verdict,
        }

    def to_dict(self) -> dict[str, Any]:
        out = {"metric": self.metric, "verdict": self.verdict}
        for key in ("baseline_median", "candidate_median", "ratio",
                    "ci_low", "ci_high", "p_value"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.note:
            out["note"] = self.note
        return out


def compare_samples(metric: str, baseline: Sequence[float],
                    candidate: Sequence[float], *,
                    noise_floor: float = 0.05, min_effect: float = 0.10,
                    confidence: float = 0.95, n_boot: int = 4000,
                    rng: np.random.Generator | None = None) -> MetricDelta:
    """Verdict for one lower-is-better duration metric.

    A delta is reported only when **all** hold:

    1. ``|ratio - 1| > max(noise_floor, min_effect)``,
    2. the bootstrap CI of the median ratio excludes 1.0,
    3. the Mann–Whitney two-sided p-value is below ``1 - confidence`` —
       required only when the sample sizes make that attainable at all
       (:func:`smallest_attainable_p`; a 2- or 3-repeat quick bench
       cannot produce rank evidence below 0.05, so there the CI and the
       effect thresholds carry the decision alone).

    Anything else — including identical inputs, tiny-but-significant
    deltas, and large-but-noisy deltas — is ``no-change``.
    """
    base = list(baseline)
    cand = list(candidate)
    base_med = float(np.median(np.asarray(base, dtype=float)))
    cand_med = float(np.median(np.asarray(cand, dtype=float)))
    ratio = cand_med / base_med if base_med else float("nan")
    _, p = mann_whitney_u(base, cand)
    ci_low, ci_high = bootstrap_ratio_ci(
        base, cand, confidence=confidence, n_boot=n_boot, rng=rng)
    verdict = VERDICT_NO_CHANGE
    threshold = max(noise_floor, min_effect)
    alpha = 1.0 - confidence
    rank_evidence = (p < alpha
                     or smallest_attainable_p(len(base), len(cand)) >= alpha)
    if math.isfinite(ratio) and abs(ratio - 1.0) > threshold \
            and rank_evidence and (ci_low > 1.0 or ci_high < 1.0):
        verdict = VERDICT_REGRESSED if ratio > 1.0 else VERDICT_IMPROVED
    return MetricDelta(metric=metric, verdict=verdict,
                       baseline_median=base_med, candidate_median=cand_med,
                       ratio=ratio, ci_low=ci_low, ci_high=ci_high,
                       p_value=p)


def _provenance(artifact: Mapping[str, Any], path: str | None
                ) -> dict[str, Any]:
    machine = artifact.get("machine", {}) or {}
    return {
        "path": path,
        "created_unix": artifact.get("created_unix"),
        "commit": machine.get("commit"),
        "dirty": machine.get("dirty"),
        "platform": machine.get("platform"),
        "python": machine.get("python"),
        "cpu_count": machine.get("cpu_count"),
    }


@dataclass
class ComparisonResult:
    """The full baseline-vs-candidate comparison, ready to render/gate."""

    bench: str
    metrics: list[MetricDelta]
    baseline: dict[str, Any] = field(default_factory=dict)
    candidate: dict[str, Any] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        verdicts = {m.verdict for m in self.metrics}
        if VERDICT_REGRESSED in verdicts:
            return VERDICT_REGRESSED
        if VERDICT_IMPROVED in verdicts:
            return VERDICT_IMPROVED
        return VERDICT_NO_CHANGE

    def counts(self) -> dict[str, int]:
        out = {VERDICT_IMPROVED: 0, VERDICT_NO_CHANGE: 0,
               VERDICT_REGRESSED: 0}
        for m in self.metrics:
            out[m.verdict] += 1
        return out

    @property
    def regressions(self) -> list[MetricDelta]:
        return [m for m in self.metrics if m.verdict == VERDICT_REGRESSED]

    def gate_exit_code(self) -> int:
        """0 when nothing regressed, 1 otherwise (the ``--gate`` code)."""
        return 1 if self.regressions else 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "verdict": self.verdict,
            "counts": self.counts(),
            "metrics": [m.to_dict() for m in self.metrics],
            "baseline": self.baseline,
            "candidate": self.candidate,
            "warnings": list(self.warnings),
            "params": dict(self.params),
        }


def compare_artifacts(baseline: Mapping[str, Any],
                      candidate: Mapping[str, Any], *,
                      noise_floor: float = 0.05, min_effect: float = 0.10,
                      confidence: float = 0.95, n_boot: int = 4000,
                      seed: int = 0,
                      baseline_path: str | None = None,
                      candidate_path: str | None = None,
                      instrumentation=None) -> ComparisonResult:
    """Compare two artifacts of the same benchmark, metric by metric.

    ``baseline``/``candidate`` are artifact dicts as written by
    :func:`repro.bench.micro.run_streaming_microbench` or
    :func:`repro.bench.ingest.run_ingest_microbench` (a baseline-store
    envelope's ``artifact`` payload also works — see
    :mod:`repro.bench.baseline`).  Mismatched benchmark kinds raise
    :class:`CompareError`; differing configs and metrics present on only
    one side are recorded as warnings.  When ``instrumentation`` is
    given, one ``bench_compare`` trace record is emitted through it.
    """
    bench = baseline.get("benchmark")
    if bench != candidate.get("benchmark"):
        raise CompareError(
            f"benchmark kinds differ: baseline is {bench!r}, candidate "
            f"is {candidate.get('benchmark')!r}")
    warnings: list[str] = []
    base_cfg = baseline.get("config", {}) or {}
    cand_cfg = candidate.get("config", {}) or {}
    for key in sorted(set(base_cfg) | set(cand_cfg)):
        if key in _VOLATILE_CONFIG_KEYS:
            continue
        if base_cfg.get(key) != cand_cfg.get(key):
            warnings.append(
                f"config mismatch on {key!r}: baseline "
                f"{base_cfg.get(key)!r} vs candidate {cand_cfg.get(key)!r}")
    base_machine = baseline.get("machine", {}) or {}
    cand_machine = candidate.get("machine", {}) or {}
    from .baseline import fingerprint_key
    base_key = fingerprint_key(base_machine)
    cand_key = fingerprint_key(cand_machine)
    fingerprint_match = base_key == cand_key
    if not fingerprint_match:
        warnings.append(
            f"machine fingerprints differ (baseline {base_key}, candidate "
            f"{cand_key}): absolute timings are not comparable across "
            "hosts; interpret deltas with care")
        base_cpus = base_machine.get("cpu_count")
        cand_cpus = cand_machine.get("cpu_count")
        if base_cpus != cand_cpus and cand_cpus is not None \
                and base_cpus is not None:
            # CPU affinity drift is the silent gate-killer: the
            # fingerprint key includes the *usable* CPU count, so a
            # runner throttled to fewer cores resolves a different
            # baseline file entirely and the gate compares against
            # whatever fell back — loudly call it out.
            warnings.append(
                f"CROSS-AFFINITY COMPARISON: baseline ran with "
                f"cpu_count={base_cpus} but candidate with "
                f"cpu_count={cand_cpus} (affinity-restricted runner?). "
                "The fingerprint key includes the usable CPU count, so "
                "this baseline was recorded under a different core "
                "budget — timing verdicts may be vacuous. Promote a "
                "baseline from a matching-affinity run, or pin the "
                "runner's affinity to match.")
    base_scaling = base_cfg.get("scaling_expected")
    cand_scaling = cand_cfg.get("scaling_expected")
    if (base_scaling is not None or cand_scaling is not None) \
            and bool(base_scaling) != bool(cand_scaling):
        # A parallel-scaling bench recorded on a single-core host
        # (scaling_expected=false) and one from a multicore host live
        # in different performance regimes: comparing them measures the
        # host, not the change.  The generic config-mismatch warning
        # above already fires, but this boundary deserves a shout — a
        # silent compare here is exactly how a real regression on the
        # multicore path would slip past a 1-CPU CI runner.
        warnings.append(
            f"REGIME BOUNDARY: baseline scaling_expected="
            f"{base_scaling!r} vs candidate {cand_scaling!r} — one side "
            "ran where multicore scaling is attainable and the other "
            "did not. Latency/throughput deltas across this boundary "
            "reflect the host's core budget, not the code; promote a "
            "baseline recorded in the matching regime before trusting "
            "the gate.")

    base_metrics = extract_metrics(baseline)
    cand_metrics = extract_metrics(candidate)
    for name in sorted(set(base_metrics) - set(cand_metrics)):
        warnings.append(f"metric {name!r} only in baseline; skipped")
    for name in sorted(set(cand_metrics) - set(base_metrics)):
        warnings.append(f"metric {name!r} only in candidate; skipped")

    rng = np.random.default_rng(seed)
    deltas: list[MetricDelta] = []
    for name in sorted(set(base_metrics) & set(cand_metrics)):
        deltas.append(compare_samples(
            name, base_metrics[name], cand_metrics[name],
            noise_floor=noise_floor, min_effect=min_effect,
            confidence=confidence, n_boot=n_boot, rng=rng))

    # Byte-identity pseudo-metrics: a candidate that lost identity
    # regressed, whatever its timings say.
    cand_flags = extract_identity_flags(candidate)
    for name in sorted(cand_flags):
        ok = cand_flags[name]
        deltas.append(MetricDelta(
            metric=name,
            verdict=VERDICT_NO_CHANGE if ok else VERDICT_REGRESSED,
            note="" if ok else "candidate lost byte-identity"))

    result = ComparisonResult(
        bench=bench,
        metrics=deltas,
        baseline=_provenance(baseline, baseline_path),
        candidate=_provenance(candidate, candidate_path),
        warnings=warnings,
        params={"noise_floor": noise_floor, "min_effect": min_effect,
                "confidence": confidence, "n_boot": n_boot, "seed": seed,
                "fingerprint_match": fingerprint_match},
    )
    if instrumentation is not None:
        counts = result.counts()
        instrumentation.emit({
            "type": "bench_compare",
            "bench": bench,
            "baseline": baseline_path or "<memory>",
            "candidate": candidate_path or "<memory>",
            "improved": counts[VERDICT_IMPROVED],
            "unchanged": counts[VERDICT_NO_CHANGE],
            "regressed": counts[VERDICT_REGRESSED],
            "verdict": result.verdict,
            "fingerprint_match": fingerprint_match,
        })
    return result
