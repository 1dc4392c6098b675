"""Unit tests for the parallel streaming executors."""

import pytest

from repro.graph import GraphStream, from_adjacency
from repro.parallel import (
    ReversedCountingTable,
    SimulatedParallelPartitioner,
)
from repro.partitioning import LDGPartitioner, SPNLPartitioner, evaluate


class TestSimulatedExecutor:
    def test_complete_assignment(self, web_graph):
        p = SimulatedParallelPartitioner(SPNLPartitioner(8), parallelism=4)
        result = p.partition(GraphStream(web_graph))
        result.assignment.validate(web_graph.num_vertices)

    def test_deterministic(self, web_graph):
        def run():
            p = SimulatedParallelPartitioner(SPNLPartitioner(8),
                                             parallelism=4)
            return p.partition(GraphStream(web_graph)).assignment
        assert run() == run()

    def test_m1_matches_serial(self, web_graph):
        """A one-wide batch is exactly the serial algorithm."""
        serial = SPNLPartitioner(8).partition(GraphStream(web_graph))
        par = SimulatedParallelPartitioner(
            SPNLPartitioner(8), parallelism=1,
            use_rct=False).partition(GraphStream(web_graph))
        assert serial.assignment == par.assignment

    def test_quality_degrades_with_parallelism(self, web_graph):
        """Stale in-batch scoring must cost quality as M grows (the
        paper's motivation for the RCT)."""
        serial = SPNLPartitioner(8).partition(GraphStream(web_graph))
        wide = SimulatedParallelPartitioner(
            SPNLPartitioner(8), parallelism=32,
            use_rct=False).partition(GraphStream(web_graph))
        assert evaluate(web_graph, wide.assignment).ecr >= evaluate(
            web_graph, serial.assignment).ecr

    def test_rct_limits_degradation(self, web_graph):
        """With the RCT, wide-parallel ECR must stay closer to serial
        than without it."""
        def ecr(use_rct):
            p = SimulatedParallelPartitioner(
                SPNLPartitioner(8), parallelism=16, use_rct=use_rct)
            return evaluate(
                web_graph,
                p.partition(GraphStream(web_graph)).assignment).ecr
        serial = evaluate(
            web_graph,
            SPNLPartitioner(8).partition(
                GraphStream(web_graph)).assignment).ecr
        with_rct, without_rct = ecr(True), ecr(False)
        assert abs(with_rct - serial) <= abs(without_rct - serial) + 0.01

    def test_delay_stats_reported(self, web_graph):
        p = SimulatedParallelPartitioner(SPNLPartitioner(8), parallelism=8)
        result = p.partition(GraphStream(web_graph))
        assert result.stats["parallelism"] == 8
        assert result.stats["conflicts"] > 0

    def test_works_with_ldg(self, web_graph):
        p = SimulatedParallelPartitioner(LDGPartitioner(8), parallelism=4)
        result = p.partition(GraphStream(web_graph))
        result.assignment.validate(web_graph.num_vertices)

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            SimulatedParallelPartitioner(LDGPartitioner(4), parallelism=0)

    def test_name_encodes_mode(self):
        p = SimulatedParallelPartitioner(SPNLPartitioner(8), parallelism=4)
        assert p.name == "SPNL-par4(sim)"


class _NoteCountingRCT(ReversedCountingTable):
    """Real RCT that additionally counts ``note_references`` *calls*.

    Exactly-once noting means one call per adjacency record — delays
    and carried batches must not call again for the same record.
    """

    instances: list["_NoteCountingRCT"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.note_calls = 0
        type(self).instances.append(self)

    def note_references(self, neighbors):
        self.note_calls += 1
        return super().note_references(neighbors)


@pytest.fixture
def counting_rct(monkeypatch):
    from repro.parallel import executor as executor_module

    _NoteCountingRCT.instances = []
    monkeypatch.setattr(executor_module, "ReversedCountingTable",
                        _NoteCountingRCT)
    return _NoteCountingRCT.instances


def star_graph(num_spokes: int):
    """Hub 0 referenced by every spoke — the RCT's worst case: while
    the hub is in flight, every concurrent spoke bumps its counter."""
    adjacency = {0: list(range(1, num_spokes + 1))}
    adjacency.update({v: [0] for v in range(1, num_spokes + 1)})
    return from_adjacency(adjacency, num_vertices=num_spokes + 1,
                          name="star")


class TestSimulatedCarriedRecords:
    """Regression (adversarial star graph): carried records used to
    re-note their references on every batch they were carried through,
    inflating neighbor counters without bound — the hub stayed above
    the delay threshold until every record burned its whole delay
    budget, and the ``conflicts`` stat lied."""

    def test_star_graph_terminates_and_places_exactly_once(self):
        graph = star_graph(64)
        p = SimulatedParallelPartitioner(LDGPartitioner(4), parallelism=8,
                                         max_delays=3)
        result = p.partition(GraphStream(graph))
        result.assignment.validate(graph.num_vertices)
        # Force-commit bound: nothing can be delayed more than
        # max_delays times, so the stat is hard-capped.
        assert result.stats["delayed"] <= 3 * graph.num_vertices

    def test_references_noted_exactly_once_per_record(self, counting_rct):
        graph = star_graph(64)
        p = SimulatedParallelPartitioner(LDGPartitioner(4), parallelism=8,
                                         max_delays=3)
        result = p.partition(GraphStream(graph))
        result.assignment.validate(graph.num_vertices)
        (rct,) = counting_rct
        assert rct.note_calls == graph.num_vertices
        assert len(rct) == 0  # fully drained: no ghost registrations

    def test_star_graph_deterministic(self):
        graph = star_graph(48)

        def run():
            p = SimulatedParallelPartitioner(SPNLPartitioner(4),
                                             parallelism=8)
            return p.partition(GraphStream(graph)).assignment

        assert run() == run()
