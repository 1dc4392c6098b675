"""Unit tests for PartitionAssignment."""

import numpy as np
import pytest

from repro.partitioning import UNASSIGNED, PartitionAssignment


class TestConstruction:
    def test_basic(self):
        a = PartitionAssignment([0, 1, 0, 1], 2)
        assert a.num_partitions == 2
        assert a.num_vertices == 4
        assert len(a) == 4

    def test_out_of_range_pid_rejected(self):
        with pytest.raises(ValueError, match=">= K"):
            PartitionAssignment([0, 3], 2)

    def test_invalid_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            PartitionAssignment([0, -2], 2)

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError, match="num_partitions"):
            PartitionAssignment([0], 0)

    def test_unassigned_sentinel_allowed(self):
        a = PartitionAssignment([0, UNASSIGNED], 2)
        assert not a.is_complete()


class TestAccess:
    def test_partition_of(self):
        a = PartitionAssignment([0, 1, 2], 3)
        assert a[1] == 1
        assert a[2] == 2

    def test_vertex_counts(self):
        a = PartitionAssignment([0, 1, 0, 2], 4)
        assert list(a.vertex_counts()) == [2, 1, 1, 0]

    def test_vertex_counts_skip_unassigned(self):
        a = PartitionAssignment([0, UNASSIGNED, 1], 2)
        assert list(a.vertex_counts()) == [1, 1]

    def test_edge_counts(self, tiny_graph):
        a = PartitionAssignment([0, 0, 1, 1, 1], 2)
        # out-degrees: [2,1,1,1,1] → P0 gets 3, P1 gets 3
        assert list(a.edge_counts(tiny_graph)) == [3, 3]

    def test_route_read_only(self):
        a = PartitionAssignment([0, 1], 2)
        with pytest.raises(ValueError):
            a.route[0] = 1


class TestValidation:
    def test_complete_passes(self):
        PartitionAssignment([0, 1], 2).validate(2)

    def test_incomplete_fails(self):
        with pytest.raises(ValueError, match="unassigned"):
            PartitionAssignment([0, UNASSIGNED], 2).validate()

    def test_wrong_size_fails(self):
        with pytest.raises(ValueError, match="covers"):
            PartitionAssignment([0, 1], 2).validate(5)


class TestUpdatesAndFactories:
    def test_equality(self):
        assert PartitionAssignment([0, 1], 2) == PartitionAssignment(
            [0, 1], 2)
        assert PartitionAssignment([0, 1], 2) != PartitionAssignment(
            [1, 0], 2)
