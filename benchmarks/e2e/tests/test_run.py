"""run.py end to end: the quick mode, the printed names, the bare
directory the driver also runs it in."""

import json
import shutil
import subprocess
import sys
import time

import pytest

from e2ebench import spec
from e2ebench.procs import HERE, ROOT, WORK_ROOT, child_env

RUN = [sys.executable, str(HERE / "run.py")]


def _run(*args, timeout=300):
    start = time.perf_counter()
    proc = subprocess.run([*RUN, *args], env=child_env(), text=True,
                          capture_output=True, timeout=timeout)
    return proc, time.perf_counter() - start


def _payload(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] >= 1
    return payload


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_quick_timed_run_prints_the_end_to_end_metrics(workload):
    proc, seconds = _run("--workload", workload, "--trace", "0", "--quick")
    payload = _payload(proc)
    assert seconds < 20.0
    assert {name: m["unit"] for name, m in payload["metrics"].items()} == \
        {m.name: m.unit for m in spec.END_TO_END}
    assert all(m["value"] > 0 for m in payload["metrics"].values())
    assert "route_sha256" in proc.stdout
    assert not WORK_ROOT.exists() or not any(WORK_ROOT.iterdir())


def test_quick_traced_run_prints_every_per_layer_metric(tmp_path):
    proc, _ = _run("--workload", "stream-window", "--trace", "1", "--quick",
                   "--trace-out", str(tmp_path))
    payload = _payload(proc)
    assert {name: m["unit"] for name, m in payload["metrics"].items()} == \
        {m.name: m.unit for m in spec.PER_LAYER}
    spans = [json.loads(line) for line in
             (tmp_path / "stream-window.spans.jsonl").read_text().splitlines()]
    assert {"name", "start", "end", "parent", "pass"} <= set(spans[0])
    assert {s["pass"] for s in spans} == {1, 2}


def test_same_seed_gives_the_same_inputs_and_another_seed_other_bytes(
        tmp_path):
    from e2ebench.inputs import make_inputs
    import hashlib
    digests = []
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = make_inputs(seed, workdir)
        digests.append((
            hashlib.sha256(inputs.adjacency_path.read_bytes()).hexdigest(),
            inputs.lookup_targets.tobytes(),
            inputs.reference_route.tobytes()))
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[2][0] and digests[0][1] != digests[2][1]
    assert digests[0][2] == digests[2][2]  # the graph itself is fixed


def test_bare_directory_fails_without_printing_a_result(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    the benchmark's own files exist; it must refuse, quickly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(
                        "__pycache__", ".work", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "batch-file",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src/repro" in proc.stderr


def test_failed_check_exits_non_zero(monkeypatch, capsys):
    from e2ebench import cli, runner

    def broken(name, seed, seconds, **kwargs):
        return runner.RunResult(
            workload=name, seed=seed, traced=False,
            metrics={"records_per_s": (1.0, "1/s")}, attempted=10, failed=0,
            problems=["saved route differs from the facade's route"],
            digest="0" * 64, passes=1)

    monkeypatch.setattr(runner, "run_workload", broken)
    assert cli.main(["--workload", "batch-file", "--trace", "0"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAILED" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
