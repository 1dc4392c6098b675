"""PartitionConfig: validation, building, round-tripping, the facade."""

import dataclasses
import warnings

import numpy as np
import pytest

import repro
from repro import PartitionConfig, partition_stream
from repro.partitioning.registry import make_partitioner
from repro.partitioning.spnl import SPNLPartitioner


class TestValidation:
    def test_defaults(self):
        cfg = PartitionConfig()
        assert cfg.method == "spnl"
        assert cfg.num_partitions == 32
        assert cfg.kwargs() == {}

    def test_rejects_empty_method(self):
        with pytest.raises(ValueError, match="method"):
            PartitionConfig(method="")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="num_partitions"):
            PartitionConfig(num_partitions=0)

    def test_rejects_slack_below_one(self):
        with pytest.raises(ValueError, match="δ"):
            PartitionConfig(slack=0.9)

    def test_rejects_lam_outside_unit_interval(self):
        with pytest.raises(ValueError, match="λ"):
            PartitionConfig(lam=1.5)

    def test_extra_cannot_shadow_named_fields(self):
        with pytest.raises(ValueError, match="shadows"):
            PartitionConfig(extra={"slack": 1.2})

    def test_frozen(self):
        cfg = PartitionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.slack = 2.0

    def test_hashable(self):
        a = PartitionConfig(slack=1.2)
        b = PartitionConfig(slack=1.2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestBuilding:
    def test_kwargs_only_contains_set_knobs(self):
        cfg = PartitionConfig(slack=1.2, lam=0.7)
        assert cfg.kwargs() == {"slack": 1.2, "lam": 0.7}

    def test_extra_merges_into_kwargs(self):
        cfg = PartitionConfig(extra={"custom_knob": 3})
        assert cfg.kwargs() == {"custom_knob": 3}

    def test_make_builds_the_named_method(self):
        partitioner = PartitionConfig(method="spnl",
                                      num_partitions=8).make()
        assert isinstance(partitioner, SPNLPartitioner)
        assert partitioner.num_partitions == 8

    def test_make_drops_unknown_knobs_per_method(self):
        # lam means nothing to LDG; one config must still build it.
        partitioner = PartitionConfig(method="ldg", num_partitions=4,
                                      lam=0.7).make()
        assert partitioner.num_partitions == 4

    def test_make_unknown_method_lists_the_registry(self):
        with pytest.raises(ValueError, match="spnl"):
            PartitionConfig(method="nonesuch").make()

    def test_registry_accepts_a_config_directly(self):
        partitioner = make_partitioner(
            PartitionConfig(method="spnl", num_partitions=8, slack=1.3))
        assert isinstance(partitioner, SPNLPartitioner)
        assert partitioner.slack == pytest.approx(1.3)

    def test_registry_rejects_config_plus_loose_args(self):
        cfg = PartitionConfig()
        with pytest.raises(TypeError, match="not both"):
            make_partitioner(cfg, 16)
        with pytest.raises(TypeError, match="not both"):
            make_partitioner(cfg, slack=1.2)

    def test_replace_derives_without_mutating(self):
        base = PartitionConfig(slack=1.2)
        derived = base.replace(num_partitions=64)
        assert derived.num_partitions == 64
        assert derived.slack == 1.2
        assert base.num_partitions == 32


class TestRoundTrip:
    def test_to_from_dict(self):
        cfg = PartitionConfig(method="spn", num_partitions=16,
                              slack=1.2, num_shards=8)
        assert PartitionConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_puts_unknown_keys_in_extra(self):
        cfg = PartitionConfig.from_dict(
            {"method": "spnl", "num_partitions": 8, "future_knob": 1})
        assert dict(cfg.extra) == {"future_knob": 1}
        assert cfg.kwargs() == {"future_knob": 1}


class TestFacadeIntegration:
    @pytest.fixture(scope="class")
    def graph(self):
        return repro.community_web_graph(400, avg_degree=8, seed=4)

    def test_config_equals_kwargs_call(self, graph):
        cfg = PartitionConfig(method="spnl", num_partitions=8, slack=1.2)
        via_config = partition_stream(graph, config=cfg)
        via_kwargs = make_partitioner("spnl", 8, slack=1.2).partition(
            repro.GraphStream(graph))
        assert np.array_equal(via_config.assignment.route,
                              via_kwargs.assignment.route)

    def test_config_as_positional_method(self, graph):
        cfg = PartitionConfig(method="spnl", num_partitions=8)
        result = partition_stream(graph, cfg)
        assert result.assignment.num_partitions == 8

    def test_config_and_kwargs_are_mutually_exclusive(self, graph):
        cfg = PartitionConfig()
        with pytest.raises(TypeError, match="mutually"):
            partition_stream(graph, config=cfg, slack=1.2)
        with pytest.raises(TypeError, match="not both"):
            partition_stream(graph, cfg, config=cfg)

    def test_loose_kwargs_raise_naming_config(self, graph):
        with pytest.raises(TypeError, match="PartitionConfig"):
            partition_stream(graph, "spnl", 8, slack=1.2)

    def test_config_call_does_not_warn(self, graph):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            partition_stream(graph, config=PartitionConfig(
                method="spnl", num_partitions=8, slack=1.2))
        assert not [w for w in record
                    if issubclass(w.category, DeprecationWarning)]
