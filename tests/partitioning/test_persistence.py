"""Unit tests for assignment persistence."""

import json

import numpy as np
import pytest

from repro.graph import GraphStream, from_edges
from repro.partitioning import (
    LDGPartitioner,
    PartitionAssignment,
    load_assignment,
    save_assignment,
)


@pytest.fixture
def assignment():
    return PartitionAssignment([0, 1, 2, 0, 1], 3)


class TestRoundtrip:
    def test_plain(self, assignment, tmp_path):
        path = tmp_path / "routes.txt"
        save_assignment(assignment, path)
        loaded, header = load_assignment(path)
        assert loaded == assignment
        assert header["num_partitions"] == 3

    def test_gzip(self, assignment, tmp_path):
        path = tmp_path / "routes.txt.gz"
        save_assignment(assignment, path)
        loaded, _ = load_assignment(path)
        assert loaded == assignment

    def test_quality_in_header(self, tiny_graph, tmp_path):
        result = LDGPartitioner(2).partition(GraphStream(tiny_graph))
        path = tmp_path / "routes.txt"
        save_assignment(result.assignment, path, graph=tiny_graph,
                        partitioner="LDG")
        _, header = load_assignment(path)
        assert header["partitioner"] == "LDG"
        assert header["graph"] == "tiny"
        assert 0.0 <= header["ecr"] <= 1.0

    def test_extra_metadata(self, assignment, tmp_path):
        path = tmp_path / "routes.txt"
        save_assignment(assignment, path, extra={"seed": 7})
        _, header = load_assignment(path)
        assert header["seed"] == 7

    def test_header_is_valid_json_line(self, assignment, tmp_path):
        path = tmp_path / "routes.txt"
        save_assignment(assignment, path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# ")
        json.loads(first[2:])  # must parse

    @pytest.mark.parametrize("route", [[0, 1, 2, 0, 1], [2, -1, 0], [7], []])
    def test_body_is_one_pid_per_line(self, route, tmp_path):
        """The file format: every pid on its own newline-terminated
        line, unassigned (-1) included, nothing after an empty table."""
        path = tmp_path / "routes.txt"
        save_assignment(PartitionAssignment(route, 8), path)
        header, _, body = path.read_text().partition("\n")
        assert header.startswith("# ")
        assert body == "".join(f"{pid}\n" for pid in route)


class TestHeaderlessFiles:
    def test_numpy_dump_loads(self, tmp_path):
        path = tmp_path / "plain.txt"
        np.savetxt(path, np.array([0, 1, 1, 0]), fmt="%d")
        loaded, header = load_assignment(path)
        assert header == {}
        assert loaded.num_partitions == 2
        assert list(loaded.route) == [0, 1, 1, 0]

    def test_non_json_comments_skipped(self, tmp_path):
        path = tmp_path / "annotated.txt"
        path.write_text("# just a note\n0\n1\n")
        loaded, header = load_assignment(path)
        assert header == {}
        assert len(loaded) == 2


class TestValidation:
    def test_vertex_count_mismatch_rejected(self, assignment, tmp_path):
        path = tmp_path / "routes.txt"
        save_assignment(assignment, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one row
        with pytest.raises(ValueError, match="declares"):
            load_assignment(path)

    def test_incomplete_assignment_saves_without_quality(self, tiny_graph,
                                                         tmp_path):
        from repro.partitioning import UNASSIGNED
        partial = PartitionAssignment([0, 1, UNASSIGNED, 0, 1], 2)
        path = tmp_path / "routes.txt"
        save_assignment(partial, path, graph=tiny_graph)
        _, header = load_assignment(path)
        assert "ecr" not in header
