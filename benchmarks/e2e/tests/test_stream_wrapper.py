"""The stamping stream wrapper must not change what the consumer sees."""

import numpy as np
import pytest

from repro import PartitionConfig, community_web_graph
from repro.graph.io import write_adjacency
from repro.graph.stream import FileStream

from e2ebench.tracing import Tracer
from e2ebench.workloads import StampedStream

N, EVERY = 3000, 512


@pytest.fixture(scope="module")
def adjacency(tmp_path_factory):
    path = tmp_path_factory.mktemp("wrapper") / "g.adj"
    write_adjacency(community_web_graph(N, seed=3), path)
    return path


def _route(stream):
    cfg = PartitionConfig(method="spnl", num_partitions=8, slack=1.1,
                          num_shards=4)
    result = cfg.make().partition(stream)
    assert result.fast_path is False
    return np.array(result.assignment.route)


def test_routes_are_byte_identical_to_a_bare_file_stream(adjacency):
    bare = _route(FileStream(adjacency))
    stamped = StampedStream(FileStream(adjacency), EVERY)
    assert _route(stamped).tobytes() == bare.tobytes()
    # One gap, with a calibration reading, at every interior multiple
    # of EVERY -> ceil(N / EVERY) windows once the pass's own start and
    # end are added.
    assert len(stamped.gaps) == len(stamped.readings) == (N - 1) // EVERY
    clock = [t for gap in stamped.gaps for t in gap]
    assert clock == sorted(clock)
    assert all(reading > 0.0 for reading in stamped.readings)


def test_traced_wrapper_is_identical_and_tiles_every_window(adjacency):
    tracer = Tracer()
    stamped = StampedStream(FileStream(adjacency), EVERY, tracer=tracer,
                            parent=None)
    assert _route(stamped).tobytes() == \
        _route(FileStream(adjacency)).tobytes()
    windows = (N - 1) // EVERY + 1
    names = [name for name, *_ in tracer.spans]
    assert names.count("stream.iterate") == windows
    assert names.count("partitioning.record_loop") == windows
    assert names.count("host.calibrate") == windows - 1 == len(stamped.gaps)
    # iterate + record_loop spans of a window abut, and the calibration
    # span between two windows abuts both.
    spans = sorted((start, end) for _, start, end, _, _ in tracer.spans)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end == pytest.approx(start, abs=1e-9)


def test_wrapper_forwards_the_stream_totals(adjacency):
    inner = FileStream(adjacency)
    stamped = StampedStream(inner, EVERY)
    assert (stamped.num_vertices, stamped.num_edges,
            stamped.is_id_ordered) == (inner.num_vertices, inner.num_edges,
                                       inner.is_id_ordered)
