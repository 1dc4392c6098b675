"""Deterministic chaos schedules: declarative, replayable fault scripts.

PR 3/6/7 each shipped point fault injectors — torn snapshots, a flaky
scorer, SIGKILLed workers, and now a flaky WAL and a throttled engine.
This module composes them into *schedules*: "at step 2 the WAL dies, at
step 5 it comes back, recover at step 6" written as data, executed
against a real server over real sockets, with the outcome of every step
recorded.  Because every injector is positional or seeded (never
wall-clock) and the driver is a single synchronous client, running the
same schedule twice produces the *identical* trace — which turns "the
server survives WAL outages" from a flaky integration test into a
replayable, diffable contract.

Three registry-wide invariants are checked after every run:

* ``acked_durable`` — every placement the server acknowledged is served
  identically by a fresh process revived from the snapshot directory,
  even when the teardown is a simulated crash (no final snapshot, no
  graceful drain).  Acks failed during the outage are *expected* to be
  absent; acks given are never lost.
* ``route_parity`` — the revived route table byte-matches the live
  server's answers for every acked vertex (WAL replay re-scores every
  entry, so this also proves log and code still agree).
* ``shed_bounded`` — the admission controller's shed rate stayed within
  the schedule's declared budget: degrading is allowed, collapsing into
  reject-everything is not.

The executor variant (:func:`run_executor_schedule`) replays
``kill_worker`` events against the process-sharded executor and holds
it to byte-identical assignment parity with a clean run.

Schedules round-trip through JSON (:meth:`ChaosSchedule.to_dict` /
``from_dict``), which is what the ``repro-partition chaos`` CLI and the
executable docs consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["ChaosReport", "ChaosSchedule", "FaultEvent", "run_schedule",
           "run_executor_schedule", "SCENARIOS"]

#: Actions a service schedule understands, mapped to the injector each
#: drives.  ``kill_worker`` is executor-only: the server has no worker
#: processes (see :func:`run_executor_schedule`).
_SERVICE_ACTIONS = ("fail_wal", "restore_wal", "slow_engine",
                    "restore_engine", "try_recover", "snapshot")
_EXECUTOR_ACTIONS = ("kill_worker",)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: *at* ``step``, *do* ``action``.

    ``step`` counts the schedule's driver iterations (service mode) or
    the executor's dispatch group index (``kill_worker``).  ``params``
    carries the action's knobs (``throttle_seconds`` for
    ``slow_engine``, ``worker`` for ``kill_worker``).
    """

    step: int
    action: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.action not in _SERVICE_ACTIONS + _EXECUTOR_ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; known: "
                f"{list(_SERVICE_ACTIONS + _EXECUTOR_ACTIONS)}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"step": self.step, "action": self.action}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "FaultEvent":
        return cls(step=int(obj["step"]), action=str(obj["action"]),
                   params=dict(obj.get("params") or {}))


@dataclass
class ChaosSchedule:
    """A declarative fault script plus the traffic that exposes it.

    Parameters
    ----------
    name:
        Identifies the schedule in reports and CLI output.
    steps:
        Driver iterations.  Each step fires its due events, then offers
        one ``place_batch`` of ``batch`` vertices (service mode).
    batch:
        Vertices offered per step; a failed step re-offers the same
        chunk next step (a client retrying its load).
    seed:
        Reserved for randomized schedules; recorded in the report so a
        replay names the exact run.
    deadline_ms:
        Optional ``deadline_ms`` budget attached to every offered
        batch (exercises deadline shedding under ``slow_engine``).
    max_shed_rate:
        The ``shed_bounded`` invariant's ceiling on the admission
        controller's shed rate.
    teardown:
        ``"crash"`` (default) revives from durable state only — no
        final snapshot, no graceful drain — which is the honest test of
        the ack contract; ``"graceful"`` closes the server first.
    events:
        The fault script.
    """

    name: str
    steps: int
    batch: int = 16
    seed: int = 0
    deadline_ms: float | None = None
    max_shed_rate: float = 0.9
    teardown: str = "crash"
    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not 0.0 <= self.max_shed_rate <= 1.0:
            raise ValueError("max_shed_rate must be in [0, 1]")
        if self.teardown not in ("crash", "graceful"):
            raise ValueError("teardown must be 'crash' or 'graceful'")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "steps": self.steps,
            "batch": self.batch,
            "seed": self.seed,
            "deadline_ms": self.deadline_ms,
            "max_shed_rate": self.max_shed_rate,
            "teardown": self.teardown,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "ChaosSchedule":
        return cls(
            name=str(obj["name"]),
            steps=int(obj["steps"]),
            batch=int(obj.get("batch", 16)),
            seed=int(obj.get("seed", 0)),
            deadline_ms=obj.get("deadline_ms"),
            max_shed_rate=float(obj.get("max_shed_rate", 0.9)),
            teardown=str(obj.get("teardown", "crash")),
            events=[FaultEvent.from_dict(e)
                    for e in obj.get("events", [])])

    @classmethod
    def from_json(cls, path: str | Path) -> "ChaosSchedule":
        return cls.from_dict(json.loads(Path(path).read_text()))


class ChaosReport:
    """What one schedule run observed, and whether the invariants held.

    ``trace`` is the deterministic replay record: one entry per step
    with the events fired, the offered batch's outcome (``ok`` or the
    typed error code), and the server's health state after the step.
    ``health_transitions`` is the (from, to, reason) sequence the
    health machine walked.  Two runs of the same schedule must produce
    identical values for both — that equality is itself asserted by the
    chaos suite.
    """

    def __init__(self, schedule: ChaosSchedule) -> None:
        self.schedule = schedule
        self.trace: list[dict[str, Any]] = []
        self.health_transitions: list[tuple[str, str, str]] = []
        self.acked: dict[int, int] = {}
        self.shed_rate = 0.0
        self.shed: dict[str, int] = {}
        self.invariants: list[dict[str, Any]] = []
        self.final_recovery: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return all(inv["ok"] for inv in self.invariants)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.invariants.append({"name": name, "ok": bool(ok),
                                "detail": detail})

    def replay_key(self) -> tuple:
        """The value that must be identical across replays of one
        schedule: the full step trace + health transition sequence."""
        frozen_trace = tuple(
            (t["step"], tuple(t["events"]), t["outcome"], t["health"])
            for t in self.trace)
        return (frozen_trace, tuple(self.health_transitions))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schedule": self.schedule.to_dict(),
            "ok": self.ok,
            "trace": list(self.trace),
            "health_transitions": [list(t)
                                   for t in self.health_transitions],
            "acked": len(self.acked),
            "shed_rate": self.shed_rate,
            "shed": dict(self.shed),
            "invariants": list(self.invariants),
            "final_recovery": self.final_recovery,
        }


def _fire(event: FaultEvent, service: Any, wal: Any,
          slow_holder: dict[str, Any]) -> None:
    from ..recovery.chaos import SlowEngine
    if event.action == "fail_wal":
        wal.fail()
    elif event.action == "restore_wal":
        wal.restore()
    elif event.action == "slow_engine":
        slow = SlowEngine(
            service, float(event.params.get("throttle_seconds", 0.05)))
        slow.apply()
        slow_holder["slow"] = slow
    elif event.action == "restore_engine":
        slow = slow_holder.pop("slow", None)
        if slow is not None:
            slow.restore()
    elif event.action == "try_recover":
        service.try_recover()
    elif event.action == "snapshot":
        try:
            service._op_snapshot()
        except Exception:
            pass  # the outcome shows up as health state, not a crash
    else:  # pragma: no cover - from_dict validates
        raise ValueError(f"service schedules cannot run {event.action!r}")


def _crash_stop(service: Any, wal: Any) -> None:
    """Tear a live server down as a crash would leave it.

    Durable state stays exactly what snapshots + fsynced WAL lines
    already hold: no drain, no final snapshot, no pending-entry flush.
    The crash flag makes the commit stage drop any group it has not
    appended yet, failing its requests instead of acking them, and
    ``draining`` fails whatever is still queued unapplied.  The WAL is
    closed under both service locks, so no group is mid-apply or
    mid-commit when it goes.  ``service._closed`` is set so a later
    ``close()`` — e.g. from a ``finally`` — cannot retroactively grant
    the durability a real crash would have denied.
    """
    with service._close_lock:
        if service._closed:
            return
        service._closed = True
    service._crashed = True
    service._draining = True
    try:
        service._listener.close()
    except OSError:
        pass
    with service._state_lock, service._commit_lock:
        try:
            wal.restore()
            wal.close()
        except Exception:
            pass
    service._shutdown_requested.set()


def run_schedule(schedule: ChaosSchedule, graph: Any, *,
                 workdir: str | Path, config: Any = None) -> ChaosReport:
    """Execute ``schedule`` against a live placement server.

    Boots a durable :class:`~repro.service.PlacementService` (WAL via
    the :class:`~repro.recovery.chaos.FlakyWAL` injector) under
    ``workdir``, drives it over TCP with one synchronous client, then
    tears it down per the schedule and revives from durable state to
    verify the invariants.  Returns the :class:`ChaosReport`;
    invariant *violations* are reported, not raised — callers (the
    chaos suite, the CLI) decide how loudly to fail.  A schedule holding
    an executor-only action is refused before the server boots.
    """
    foreign = sorted({e.action for e in schedule.events
                      if e.action not in _SERVICE_ACTIONS})
    if foreign:
        raise ValueError(
            f"schedule {schedule.name!r} holds executor-only action(s) "
            f"{foreign}; replay it with run_executor_schedule "
            f"(the chaos CLI's --executor)")
    from ..recovery.chaos import FlakyWAL
    from ..service.client import ServiceClient, ServiceError
    from ..service.server import PlacementService

    workdir = Path(workdir)
    snap_dir = workdir / f"chaos-{schedule.name}"
    holder: dict[str, Any] = {}

    def wal_factory(directory: Any, *, start: int = 0,
                    fsync: bool = True) -> FlakyWAL:
        holder["wal"] = FlakyWAL(directory, start=start, fsync=fsync)
        return holder["wal"]

    report = ChaosReport(schedule)
    slow_holder: dict[str, Any] = {}
    service = PlacementService.start(
        graph, config=config, snapshot_dir=snap_dir,
        wal_factory=wal_factory)
    wal = holder["wal"]
    client = ServiceClient(*service.address)
    cursor = 0
    try:
        for step in range(schedule.steps):
            fired = [e.action for e in schedule.events if e.step == step]
            for event in schedule.events:
                if event.step == step:
                    _fire(event, service, wal, slow_holder)
            stop = min(cursor + schedule.batch, graph.num_vertices)
            outcome = "idle"
            if cursor < stop:
                chunk = list(range(cursor, stop))
                try:
                    results = client.place_batch(
                        chunk, deadline_ms=schedule.deadline_ms)
                except ServiceError as exc:
                    outcome = exc.code
                else:
                    outcome = "ok"
                    for r in results:
                        report.acked[int(r["vertex"])] = int(r["pid"])
                    cursor = stop
            report.trace.append({"step": step, "events": fired,
                                 "outcome": outcome,
                                 "health": service.health_state})
        report.final_recovery = service.try_recover()
        admission = service.stats()["admission"]
        report.shed_rate = float(admission["shed_rate"])
        report.shed = dict(admission["shed"])
        report.health_transitions = [
            (t["from_state"], t["to_state"], t["reason"])
            for t in service.health_history()]
        live_answers = {v: int(service._state.route[v])
                        for v in report.acked}
        if schedule.teardown == "graceful":
            service.close()
        else:
            _crash_stop(service, wal)
    finally:
        client.close()
        service.close()  # idempotent (and a no-op after _crash_stop)

    revived = PlacementService(graph, config=config,
                               resume_from=snap_dir)
    lost = {v: pid for v, pid in report.acked.items()
            if int(revived._state.route[v]) != pid}
    report.check(
        "acked_durable", not lost,
        f"{len(report.acked)} acked placements revived intact"
        if not lost else
        f"{len(lost)} of {len(report.acked)} acked placements lost "
        f"after revival: {dict(list(lost.items())[:5])}")
    diverged = {v: pid for v, pid in live_answers.items()
                if int(revived._state.route[v]) != pid}
    report.check(
        "route_parity", not diverged,
        "revived route table matches live answers for every acked vertex"
        if not diverged else
        f"{len(diverged)} acked vertices diverge after revival")
    report.check(
        "shed_bounded",
        report.shed_rate <= schedule.max_shed_rate,
        f"shed rate {report.shed_rate:.3f} vs budget "
        f"{schedule.max_shed_rate:.3f}")
    return report


def run_executor_schedule(schedule: ChaosSchedule, graph: Any, *,
                          method: str = "spnl", parallelism: int = 4,
                          num_workers: int = 2,
                          max_worker_restarts: int = 4) -> ChaosReport:
    """Replay ``kill_worker`` events against the process-sharded
    executor and hold it to clean-run assignment parity.

    ``FaultEvent.step`` is the executor's dispatch group index;
    ``params["worker"]`` picks the victim (default 0).  The invariant
    is the strongest the executor offers: byte-identical assignment to
    an unharmed run, with every kill absorbed by the supervision
    budget.
    """
    from ..graph.stream import GraphStream
    from ..parallel.process import ProcessShardedPartitioner
    from ..partitioning.config import PartitionConfig

    def build() -> ProcessShardedPartitioner:
        base = PartitionConfig(method=method).make()
        return ProcessShardedPartitioner(
            base, parallelism=parallelism, num_workers=num_workers,
            max_worker_restarts=max_worker_restarts,
            restart_backoff=0.0)

    report = ChaosReport(schedule)
    clean = build().partition(GraphStream(graph))

    kills: list[int] = []
    kill_events = [e for e in schedule.events
                   if e.action == "kill_worker"]
    fired: set[int] = set()

    def hook(group_index: int, procs: list[Any]) -> None:
        import os
        import signal
        for idx, event in enumerate(kill_events):
            if idx in fired or event.step != group_index:
                continue
            victim = int(event.params.get("worker", 0)) % len(procs)
            os.kill(procs[victim].pid, signal.SIGKILL)
            fired.add(idx)
            kills.append(group_index)

    chaotic = build()
    chaotic.barrier_hook = hook
    result = chaotic.partition(GraphStream(graph))

    report.trace = [{"step": g, "events": ["kill_worker"],
                     "outcome": "killed", "health": "n/a"}
                    for g in kills]
    restarts = int(result.stats.get("worker_restarts", 0))
    report.check(
        "kills_fired", len(kills) == len(kill_events),
        f"{len(kills)} of {len(kill_events)} scripted kills fired")
    report.check(
        "assignment_parity", result.assignment == clean.assignment,
        "chaotic assignment byte-matches the clean run"
        if result.assignment == clean.assignment else
        "chaotic assignment diverged from the clean run")
    report.check(
        "restarts_within_budget", restarts <= max_worker_restarts,
        f"{restarts} worker restarts within budget "
        f"{max_worker_restarts}")
    return report


def _wal_outage(steps: int = 8) -> ChaosSchedule:
    return ChaosSchedule(
        name="wal-outage", steps=steps, batch=16, max_shed_rate=0.9,
        events=[FaultEvent(2, "fail_wal"),
                FaultEvent(5, "restore_wal"),
                FaultEvent(6, "try_recover")])


def _slow_engine() -> ChaosSchedule:
    # deadline_ms sits 2.5x above the healthy path's worst case and 2.5x
    # below the injected throttle, so both the ok and deadline_exceeded
    # outcomes are deterministic even on a loaded CI runner.
    return ChaosSchedule(
        name="slow-engine", steps=8, batch=16, max_shed_rate=0.9,
        deadline_ms=100.0,
        events=[FaultEvent(2, "slow_engine",
                           {"throttle_seconds": 0.25}),
                FaultEvent(5, "restore_engine")])


def _wal_flap() -> ChaosSchedule:
    return ChaosSchedule(
        name="wal-flap", steps=12, batch=8, max_shed_rate=0.9,
        events=[FaultEvent(1, "fail_wal"),
                FaultEvent(2, "restore_wal"),
                FaultEvent(3, "try_recover"),
                FaultEvent(5, "fail_wal"),
                FaultEvent(7, "restore_wal"),
                FaultEvent(8, "try_recover"),
                FaultEvent(9, "snapshot")])


def _worker_kill() -> ChaosSchedule:
    # An executor schedule (``chaos --executor``): steps are dispatch
    # group indices, and each kill lands inside the group's barrier
    # window, so the worker dies holding a live sub-range and the
    # supervision path must respawn it within budget.
    return ChaosSchedule(
        name="worker-kill", steps=10, batch=16, max_shed_rate=0.9,
        events=[FaultEvent(2, "kill_worker"),
                FaultEvent(5, "kill_worker", {"worker": 1})])


#: Named, ready-to-run schedules (the CLI's ``--scenario`` choices).
SCENARIOS = {
    "wal-outage": _wal_outage,
    "slow-engine": _slow_engine,
    "wal-flap": _wal_flap,
    "worker-kill": _worker_kill,
}
