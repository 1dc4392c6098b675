"""BENCHMARK.json says what run.py prints, inside the contract's limits."""

import json
import re

from e2ebench import spec
from e2ebench.procs import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_rendered_from_spec():
    assert _declared() == spec.benchmark_json()


def test_declarations_stay_inside_the_contract():
    doc = _declared()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert all(not part.startswith("/") and ".." not in part
               for part in doc["command"])
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]] \
        + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    # 4 + 22 x workloads runs inside the driver's cap.  A run takes
    # --seconds from start to finish, set-up and all (runner.py), plus
    # the interpreter's start and at most a pass that ran over.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 4) <= 3420
