"""Integration tests: full pipelines across modules.

Each test exercises a realistic end-to-end flow: generate → (write/read)
→ stream → partition → evaluate.
"""

import pytest

from repro.graph import (
    FileStream,
    GraphStream,
    community_web_graph,
    random_relabel,
    write_adjacency,
)
from repro.offline import LabelPropagationPartitioner, MultilevelPartitioner
from repro.parallel import SimulatedParallelPartitioner
from repro.partitioning import (
    FennelPartitioner,
    HashPartitioner,
    LDGPartitioner,
    RestreamingPartitioner,
    SPNLPartitioner,
    SPNPartitioner,
    evaluate,
)


@pytest.fixture(scope="module")
def pipeline_graph():
    return community_web_graph(5000, avg_community_size=60, seed=77,
                               name="pipeline")


class TestFullQualityOrdering:
    """The paper's headline ordering must hold end-to-end on a fresh
    locality-rich graph: SPNL ≤ SPN < LDG ≈ FENNEL < Hash, with the
    METIS-like baseline at or near the front."""

    @pytest.fixture(scope="class")
    def ecrs(self, pipeline_graph):
        g = pipeline_graph
        out = {}
        for p in [HashPartitioner(16), LDGPartitioner(16),
                  FennelPartitioner(16), SPNPartitioner(16),
                  SPNLPartitioner(16, num_shards="auto")]:
            result = p.partition(GraphStream(g))
            out[p.name] = evaluate(g, result.assignment).ecr
        out["METIS-like"] = evaluate(
            g, MultilevelPartitioner(16).partition(g).assignment).ecr
        out["XtraPuLP-like"] = evaluate(
            g, LabelPropagationPartitioner(16).partition(g).assignment).ecr
        return out

    def test_spn_family_beats_ldg(self, ecrs):
        assert ecrs["SPN"] < ecrs["LDG"]
        assert ecrs["SPNL"] < ecrs["LDG"]

    def test_spnl_at_least_matches_spn(self, ecrs):
        assert ecrs["SPNL"] <= ecrs["SPN"] * 1.1

    def test_everything_beats_hash(self, ecrs):
        for name, value in ecrs.items():
            if name != "Hash":
                assert value < ecrs["Hash"], name

    def test_spnl_within_reach_of_metis(self, ecrs):
        """Table V: SPNL is comparable to the offline quality bar."""
        assert ecrs["SPNL"] <= 2.5 * ecrs["METIS-like"]

    def test_xtrapulp_worse_than_metis(self, ecrs):
        assert ecrs["XtraPuLP-like"] >= ecrs["METIS-like"]


class TestDiskPipeline:
    def test_file_stream_partition(self, pipeline_graph, tmp_path):
        """Graph written to disk, streamed back one pass, partitioned."""
        path = tmp_path / "g.adj"
        write_adjacency(pipeline_graph, path)
        stream = FileStream(path)
        result = SPNLPartitioner(8, num_shards="auto").partition(stream)
        result.assignment.validate(pipeline_graph.num_vertices)
        q = evaluate(pipeline_graph, result.assignment)
        assert q.ecr < 0.5

    def test_file_stream_matches_memory_stream(self, pipeline_graph,
                                               tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(pipeline_graph, path)
        from_file = SPNLPartitioner(8).partition(FileStream(path))
        from_memory = SPNLPartitioner(8).partition(
            GraphStream(pipeline_graph))
        assert from_file.assignment == from_memory.assignment


class TestAdvancedFlows:
    def test_parallel_pipeline(self, pipeline_graph):
        partitioner = SimulatedParallelPartitioner(
            SPNLPartitioner(8, num_shards="auto"), parallelism=4)
        result = partitioner.partition(GraphStream(pipeline_graph))
        q = evaluate(pipeline_graph, result.assignment)
        serial = evaluate(
            pipeline_graph,
            SPNLPartitioner(8, num_shards="auto").partition(
                GraphStream(pipeline_graph)).assignment)
        assert q.ecr <= serial.ecr * 1.35 + 0.02  # bounded degradation

    def test_restreaming_pipeline(self, pipeline_graph):
        restreamed = RestreamingPartitioner(
            lambda: LDGPartitioner(8), num_passes=3).partition(
            GraphStream(pipeline_graph))
        single = LDGPartitioner(8).partition(GraphStream(pipeline_graph))
        assert evaluate(pipeline_graph, restreamed.assignment).ecr <= \
            evaluate(pipeline_graph, single.assignment).ecr

    def test_shuffled_ids_collapse_locality_methods(self, pipeline_graph):
        """Destroying id order hurts SPNL more than LDG — the locality
        premise made falsifiable."""
        scrambled = random_relabel(pipeline_graph, seed=3)
        spnl_local = evaluate(
            pipeline_graph,
            SPNLPartitioner(8).partition(
                GraphStream(pipeline_graph)).assignment).ecr
        spnl_scrambled = evaluate(
            scrambled,
            SPNLPartitioner(8).partition(
                GraphStream(scrambled)).assignment).ecr
        assert spnl_scrambled > spnl_local


class TestModuleInvocation:
    """`python -m repro` end to end, as a real subprocess."""

    def test_partition_with_probe_every(self, tmp_path):
        import json
        import os
        import subprocess
        import sys

        from repro.observability import validate_record

        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(repo_src),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        routes = tmp_path / "routes.txt"
        trace = tmp_path / "trace.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "partition", "uk2005",
             str(routes), "--method", "spnl", "-k", "8",
             "--probe-every", "500", "--trace", str(trace)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "ECR=" in proc.stdout
        assert routes.exists()
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert records, "trace file is empty"
        for record in records:
            validate_record(record)
        assert records[-1]["type"] == "stream_summary"

    def test_probe_every_alone_streams_progress(self, tmp_path):
        import os
        import subprocess
        import sys

        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(repo_src),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "partition", "uk2005",
             str(tmp_path / "r.txt"), "--method", "ldg", "-k", "8",
             "--probe-every", "1000"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "[probe LDG]" in proc.stderr
