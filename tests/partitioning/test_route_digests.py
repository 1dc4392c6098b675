"""Frozen route digests: the byte-identity gate for the placement loop.

One-pass greedy placement is order- and tie-sensitive, so any change to
how records are scored, chosen or committed shows up as a different
route table.  ``tests/fixtures/route_digests.json`` holds the sha256 of
the route (little-endian int32 bytes, the benchmark's digest) for every
registered vertex partitioner over three stream kinds, every
``test_fastpath.VARIANTS`` config, the benchmark's two in-process SPNL
configurations, and every registered vertex partitioner under the
Sec. V-B group discipline (:class:`SimulatedParallelPartitioner`, M in
{4, 16}, with and without the RCT).  A refactor of the placement path
must leave every digest unchanged; a deliberate algorithm change
regenerates the file with
``PYTHONPATH=src python -m tests.partitioning.test_route_digests``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.graph import GraphStream, shuffled
from repro.graph.generators import community_web_graph
from repro.graph.io import write_adjacency
from repro.graph.stream import FileStream
from repro.parallel import SimulatedParallelPartitioner
from repro.partitioning.registry import (
    available_partitioners,
    make_partitioner,
)
from tests.partitioning.test_fastpath import VARIANTS

FIXTURE = Path(__file__).parents[1] / "fixtures" / "route_digests.json"


def _digest(result) -> str:
    route = np.ascontiguousarray(result.assignment.route, dtype="<i4")
    return hashlib.sha256(route.tobytes()).hexdigest()


def _cases(workdir: Path):
    """Yield ``(key, thunk)``; each thunk runs one pass and digests it."""
    small = community_web_graph(1500, seed=9)
    small_path = workdir / "small.adj"
    write_adjacency(small, small_path)
    streams = {
        "graph": lambda: GraphStream(small),
        "shuffled": lambda: shuffled(small, seed=5),
        "file": lambda: FileStream(small_path),
    }
    for name in available_partitioners(kind="vertex"):
        for kind, factory in streams.items():
            yield (f"{name}/{kind}",
                   lambda n=name, f=factory: _digest(
                       make_partitioner(n, 8).partition(f())))
    for name, kwargs in VARIANTS:
        label = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
        yield (f"{name}/variant/{label}",
               lambda n=name, kw=kwargs: _digest(
                   make_partitioner(n, 8, **kw).partition(
                       GraphStream(small))))

    grouped = [(name, {}) for name in available_partitioners(kind="vertex")]
    grouped.append(("spnl", {"num_shards": 8}))
    for name, kwargs in grouped:
        label = "".join(f",{k}={v}" for k, v in sorted(kwargs.items()))
        for m in (4, 16):
            for use_rct in (False, True):
                yield (f"{name}/grouped/m={m},rct={int(use_rct)}{label}",
                       lambda n=name, kw=kwargs, m=m, r=use_rct: _digest(
                           SimulatedParallelPartitioner(
                               make_partitioner(n, 8, **kw), parallelism=m,
                               use_rct=r).partition(GraphStream(small))))

    def bench_dense():
        big = community_web_graph(20000, seed=7)
        return _digest(make_partitioner("spnl", 32).partition(
            GraphStream(big)))

    def bench_window():
        big = community_web_graph(20000, seed=7)
        big_path = workdir / "big.adj"
        write_adjacency(big, big_path)
        return _digest(make_partitioner("spnl", 32, num_shards=8).partition(
            FileStream(big_path)))

    yield "spnl/bench/dense-graph-k32", bench_dense
    yield "spnl/bench/window8-file-k32", bench_window


def test_route_digests_are_frozen(tmp_path):
    frozen = json.loads(FIXTURE.read_text())
    computed = {key: thunk() for key, thunk in _cases(tmp_path)}
    assert sorted(computed) == sorted(frozen)
    changed = sorted(k for k in frozen if computed[k] != frozen[k])
    assert not changed, f"routes changed for: {changed}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {key: thunk() for key, thunk in _cases(Path(tmp))}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
