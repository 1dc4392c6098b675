"""The unified partitioner registry: lookup, factory, kwarg filtering."""

import pytest

from repro.graph import GraphStream
from repro.partitioning.registry import (
    RegistryEntry,
    available_partitioners,
    make_partitioner,
    register,
    resolve,
)


class TestAvailable:
    def test_vertex_and_offline_names(self):
        names = available_partitioners()
        for expected in ("ldg", "fennel", "spn", "spnl", "hash", "random",
                         "range", "chunked", "metis", "xtrapulp"):
            assert expected in names
        assert names == tuple(sorted(names))

    def test_edge_namespace(self):
        assert available_partitioners("edge") == ("hdrf", "spnl-e")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            available_partitioners("bogus")


class TestResolve:
    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError) as exc:
            resolve("nope")
        assert "nope" in str(exc.value)
        assert "spnl" in str(exc.value)  # the error lists what exists

    def test_kind_namespaces_do_not_collide(self):
        """A name resolves only in the namespace that registered it."""
        assert resolve("random").is_streaming
        with pytest.raises(ValueError):
            resolve("random", kind="edge")
        assert resolve("spnl-e", kind="edge").kind == "edge"
        with pytest.raises(ValueError):
            resolve("spnl-e")

    def test_offline_entries_not_streaming(self):
        assert not resolve("metis").is_streaming
        assert not resolve("xtrapulp").is_streaming


class TestRoundTrip:
    @pytest.mark.parametrize("name", available_partitioners())
    def test_every_vertex_and_offline_name_builds_and_runs(
            self, name, web_graph):
        partitioner = make_partitioner(name, 4)
        assert partitioner.num_partitions == 4
        if resolve(name).is_streaming:
            result = partitioner.partition(GraphStream(web_graph))
        else:
            result = partitioner.partition(web_graph)
        assert result.assignment.route.shape == (web_graph.num_vertices,)
        assert (result.assignment.route >= 0).all()

    @pytest.mark.parametrize("name", available_partitioners("edge"))
    def test_every_edge_name_builds_and_runs(self, name, tiny_graph):
        partitioner = make_partitioner(name, 2, kind="edge")
        assert partitioner.num_partitions == 2
        result = partitioner.partition(tiny_graph)
        assert len(result.assignment.edge_pids) == tiny_graph.num_edges

    def test_unknown_name_raises_with_list(self):
        with pytest.raises(ValueError, match="registered names"):
            make_partitioner("not-a-method", 4)


class TestKwargFiltering:
    def test_strict_mode_rejects_unknown_kwargs(self):
        with pytest.raises(TypeError):
            make_partitioner("fennel", 4, lam=0.5)

    def test_ignore_unknown_drops_per_factory(self):
        # One shared flag namespace across heterogeneous constructors:
        # fennel has no lam/num_shards, spnl has no gamma.
        f = make_partitioner("fennel", 4, ignore_unknown=True,
                             lam=0.5, num_shards=4, gamma=2.0, slack=1.2)
        assert f.gamma == 2.0
        assert f.slack == 1.2
        s = make_partitioner("spnl", 4, ignore_unknown=True,
                             lam=0.7, gamma=2.0)
        assert s.lam == 0.7

    def test_kwargs_reach_constructor(self):
        p = make_partitioner("spnl", 8, slack=1.3, num_shards=16)
        assert p.slack == 1.3


class TestRegisterDecorator:
    def test_third_party_registration_and_collision(self):
        @register("test-dummy", kind="vertex", summary="test only")
        class Dummy:
            def __init__(self, num_partitions):
                self.num_partitions = num_partitions

        try:
            entry = resolve("test-dummy")
            assert isinstance(entry, RegistryEntry)
            assert entry.summary == "test only"
            assert make_partitioner("test-dummy", 3).num_partitions == 3
            # Re-registering the same factory is idempotent ...
            register("test-dummy")(Dummy)
            # ... but a different factory under the same name is an error.
            with pytest.raises(ValueError, match="already registered"):
                @register("test-dummy")
                class Other:
                    pass
        finally:
            from repro.partitioning import registry
            registry._REGISTRY["vertex"].pop("test-dummy", None)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register("x", kind="nonsense")

    def test_extra_kwargs_are_defaults_not_overrides(self):
        @register("test-extra", extra_default=7)
        class WithExtra:
            def __init__(self, num_partitions, *, extra_default=0):
                self.num_partitions = num_partitions
                self.extra_default = extra_default

        try:
            assert make_partitioner("test-extra", 2).extra_default == 7
            assert make_partitioner("test-extra", 2,
                                    extra_default=9).extra_default == 9
        finally:
            from repro.partitioning import registry
            registry._REGISTRY["vertex"].pop("test-extra", None)
