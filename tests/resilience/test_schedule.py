"""Chaos-schedule harness tests.

The light half pins the declarative surface (FaultEvent/ChaosSchedule
serialization and validation).  The ``chaos``-marked half runs real
schedules against a live server / the process executor and asserts the
tentpole acceptance criterion: a scripted WAL failure degrades the
server to read-only *without dropping an acked placement*, recovery
returns it to healthy, and a seeded replay is deterministic — two runs
produce the identical trace of faults and health transitions.
"""

import json

import pytest

from repro.graph import community_web_graph
from repro.partitioning.config import PartitionConfig
from repro.resilience.schedule import (
    SCENARIOS,
    ChaosSchedule,
    FaultEvent,
    run_executor_schedule,
    run_schedule,
)

K = 8


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(600, seed=7)


@pytest.fixture(scope="module")
def config():
    return PartitionConfig(method="spnl", num_partitions=K)


class TestDeclarativeSurface:
    def test_event_round_trip(self):
        event = FaultEvent(3, "slow_engine", {"throttle_seconds": 0.25})
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action"):
            FaultEvent(0, "set_on_fire")

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            FaultEvent(-1, "fail_wal")

    def test_schedule_round_trip(self):
        schedule = SCENARIOS["wal-outage"]()
        again = ChaosSchedule.from_dict(schedule.to_dict())
        assert again == schedule

    def test_schedule_loads_from_json_file(self, tmp_path):
        schedule = SCENARIOS["slow-engine"]()
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule.to_dict()))
        assert ChaosSchedule.from_json(path) == schedule

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="steps"):
            ChaosSchedule("bad", steps=0)
        with pytest.raises(ValueError, match="teardown"):
            ChaosSchedule("bad", steps=1, teardown="shrug")
        with pytest.raises(ValueError, match="max_shed_rate"):
            ChaosSchedule("bad", steps=1, max_shed_rate=1.5)

    def test_builtin_scenarios_build(self):
        for name, build in SCENARIOS.items():
            schedule = build()
            assert schedule.name == name
            assert schedule.steps >= 1


@pytest.mark.chaos
class TestServiceSchedules:
    def test_wal_outage_degrades_recovers_and_loses_nothing(
            self, graph, config, tmp_path):
        report = run_schedule(SCENARIOS["wal-outage"](), graph,
                              workdir=tmp_path, config=config)
        assert report.ok, report.invariants
        # The scripted outage really happened: read_only was entered
        # and left, and steps in between answered read_only.
        assert ("healthy", "read_only", "wal_append_failed") \
            in report.health_transitions
        assert ("read_only", "healthy", "recovered") \
            in report.health_transitions
        outcomes = [t["outcome"] for t in report.trace]
        assert "read_only" in outcomes
        assert outcomes[-1] == "ok"
        assert report.final_recovery["health_state"] == "healthy"
        assert report.acked  # placements survived the crash teardown

    def test_replay_is_deterministic(self, graph, config, tmp_path):
        rep1 = run_schedule(SCENARIOS["wal-outage"](), graph,
                            workdir=tmp_path / "a", config=config)
        rep2 = run_schedule(SCENARIOS["wal-outage"](), graph,
                            workdir=tmp_path / "b", config=config)
        assert rep1.replay_key() == rep2.replay_key()

    def test_slow_engine_sheds_on_deadline_then_recovers(
            self, graph, config, tmp_path):
        report = run_schedule(SCENARIOS["slow-engine"](), graph,
                              workdir=tmp_path, config=config)
        assert report.ok, report.invariants
        outcomes = [t["outcome"] for t in report.trace]
        # Throttled steps miss the 100 ms budget (whether shed at
        # admission or expired in queue); restoring the engine heals.
        assert outcomes.count("deadline_exceeded") >= 2
        assert outcomes[-1] == "ok"
        # A slow engine is overload, not damage: health stays healthy.
        assert all(t["health"] == "healthy" for t in report.trace)

    def test_wal_flap_walks_two_full_cycles(self, graph, config,
                                            tmp_path):
        report = run_schedule(SCENARIOS["wal-flap"](), graph,
                              workdir=tmp_path, config=config)
        assert report.ok, report.invariants
        entered = [t for t in report.health_transitions
                   if t[1] == "read_only"]
        recovered = [t for t in report.health_transitions
                     if t == ("read_only", "healthy", "recovered")]
        assert len(entered) == 2
        assert len(recovered) == 2

    @pytest.mark.parametrize("scenario", ["wal-outage", "wal-flap"])
    def test_wal_faults_on_the_grouped_engine(self, graph, config,
                                              tmp_path, scenario):
        """``parallelism=8`` without a pool: the same apply loop at
        M > 1, which the ``chaos`` CLI cannot reach (it forwards
        ``--parallelism`` only with ``--processes > 1``)."""
        report = run_schedule(SCENARIOS[scenario](), graph,
                              workdir=tmp_path, config=config,
                              server_kwargs={"parallelism": 8})
        assert report.ok, report.invariants
        assert ("healthy", "read_only", "wal_append_failed") \
            in report.health_transitions
        assert ("read_only", "healthy", "recovered") \
            in report.health_transitions

    def test_report_to_dict_is_json_serializable(self, graph, config,
                                                 tmp_path):
        report = run_schedule(SCENARIOS["wal-outage"](), graph,
                              workdir=tmp_path, config=config)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["schedule"]["name"] == "wal-outage"
        assert len(payload["trace"]) == report.schedule.steps


@pytest.mark.chaos
class TestExecutorSchedules:
    def test_kill_worker_keeps_assignment_parity(self, graph):
        schedule = ChaosSchedule(
            name="executor-kill", steps=1,
            events=[FaultEvent(1, "kill_worker", {"worker": 0})])
        report = run_executor_schedule(schedule, graph, method="spnl",
                                       parallelism=4, num_workers=2)
        assert report.ok, report.invariants

    def test_kill_worker_noop_on_single_process_service(self, graph,
                                                        config, tmp_path):
        # kill_worker is a documented no-op against an unsharded server:
        # the schedule runs to completion with every invariant intact.
        schedule = ChaosSchedule(
            name="kill-noop", steps=2,
            events=[FaultEvent(0, "kill_worker")])
        report = run_schedule(schedule, graph, workdir=tmp_path,
                              config=config)
        assert report.ok, report.invariants
