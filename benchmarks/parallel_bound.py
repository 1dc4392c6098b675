"""How fast could Sec. V-B's parallel scoring go on this host?  An
Amdahl bound, measured.

Printed, not gated (``python benchmarks/parallel_bound.py``, ~2 min,
numpy and the standard library only besides the repo itself).  The
timings stay out of tier-1; ``tests/parallel/test_parallel_bound.py``
only checks :func:`group_loop`'s placements on a tiny graph.  The
input is the end-to-end benchmark's: ``community_web_graph(20000,
seed=7)``, SPNL, K = 32, dense Γ, slack 1.1.

Sec. V-B parallelises only the scoring of M concurrent records; the
commit stays serial, and the group loop around it (carry-over, RCT
bookkeeping) is the committer's.  Four things are measured, per record
or per group:

1. ``kernel.score`` and ``kernel.commit`` of the sequential pass, timed
   separately; ``T_seq`` is the production pass, ``partition()``, which
   reads each record's neighbors straight out of the CSR arrays;
2. the group loop of :class:`~repro.parallel.SimulatedParallelPartitioner`
   at M = 1…64, RCT on and off, rebuilt here over the same CSR arrays
   (:func:`group_loop`; its placements are checked byte-identical to the
   executor's).  Its scoring phase — ``kernel.score`` into the group's
   block plus the RCT's reference notes — is timed apart from the rest,
   the serial share ``serial(M)``: group assembly, the delay test, the
   commit and the RCT's register / remove / release;
3. a dispatch round trip to a second process: a pipe (``send_bytes`` /
   ``recv_bytes`` of one byte each way) and a shared-memory doorbell
   (both sides spinning on one byte, no payload) — the cheapest hand-off
   a worker pool could use;
4. ECR drift of every M against the sequential pass.

The ceiling for M on two CPUs, with the scoring phase spread over
``min(M, 2)`` CPUs at no cost and the cheapest dispatch, is
(:func:`amdahl_ceiling`)

    T_seq / (serial(M) + scoring(M) / min(M, 2) + dispatch / M)

Both sides read the same arrays the same way, and the ceiling ignores
cache-line traffic between the committer and the scorer and the cost of
publishing the kernel's private images, so it bounds an executor built
on this repo's kernel and RCT from above.  Every quantity is re-measured
in each of ``ROUNDS`` rounds, and each group-loop pass is paired with a
sequential pass run just before it: the ceiling is computed within a
pair (one noise window of a shared host) and the median over rounds is
printed with its quartiles.  The verdict line applies the rule
``ProcessShardedPartitioner`` is held to: some M whose median ceiling
is >= 1.2x with ECR drift <= 6 % ("go": an executor could clear the
bar; "no-go": none can).  Above it, a self-check line prints the M = 1
RCT-off loop as a multiple of ``T_seq``: groups of one without the RCT
are the sequential pass plus group bookkeeping, so a ratio far above 1
means the loop reads its input differently from ``T_seq`` and the
bound is charging input overhead to ``serial``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import statistics
import sys
import time
from itertools import islice
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.graph import GraphStream  # noqa: E402
from repro.graph.generators import community_web_graph  # noqa: E402
from repro.parallel import SimulatedParallelPartitioner  # noqa: E402
from repro.parallel.rct import ReversedCountingTable  # noqa: E402
from repro.partitioning import SPNLPartitioner  # noqa: E402
from repro.partitioning.base import PlacementKernel  # noqa: E402
from repro.partitioning.metrics import edge_cut_ratio  # noqa: E402

K, NUM_VERTICES, SEED, SLACK = 32, 20000, 7, 1.1
GROUP_SIZES = (1, 2, 4, 8, 16, 32, 64)
ROUNDS = 5
ROUND_TRIPS = 2000
SPEEDUP_GOAL, DRIFT_LIMIT = 1.2, 0.06


def amdahl_ceiling(t_seq: float, serial: float, scoring: float,
                   dispatch: float, m: int) -> float:
    """Speedup bound of M-record groups on two CPUs; every argument per
    record except ``dispatch``, one hand-off round trip per group."""
    return t_seq / (serial + scoring / min(m, 2) + dispatch / m)


def spnl() -> SPNLPartitioner:
    return SPNLPartitioner(K, num_shards=1, slack=SLACK)


def fresh_kernel(graph) -> PlacementKernel:
    partitioner = spnl()
    stream = GraphStream(graph)
    state = partitioner.make_state(stream)
    partitioner._setup(stream, state)
    return PlacementKernel(partitioner, state)


def timer_cost(n: int = 20000) -> float:
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        clock()
    return (clock() - t0) / n


# ----------------------------------------------------------------------
# 1. the sequential step, score and commit apart
# ----------------------------------------------------------------------
def sequential_split(graph) -> tuple[float, float]:
    """``(score, commit)`` seconds per record, timer cost removed."""
    kernel = fresh_kernel(graph)
    score, commit, clock = kernel.score, kernel.commit, time.perf_counter
    n = graph.num_vertices
    indptr, indices = graph.indptr.tolist(), graph.indices
    scored = committed = 0.0
    for v in range(n):
        neighbors = indices[indptr[v]:indptr[v + 1]]
        t0 = clock()
        row = score(v, neighbors)
        t1 = clock()
        commit(v, neighbors, row)
        t2 = clock()
        scored += t1 - t0
        committed += t2 - t1
    timer = timer_cost()
    return scored / n - timer, committed / n - timer


# ----------------------------------------------------------------------
# 2. the group loop, over the same CSR arrays
# ----------------------------------------------------------------------
def group_loop(graph, m: int, use_rct: bool
               ) -> tuple[float, float, np.ndarray]:
    """``SimulatedParallelPartitioner``'s groups, delays and commits,
    reading neighbors as ``kernel.run`` does.  Returns ``(serial,
    scoring)`` seconds per record and the route table; the timer calls
    are charged to neither phase."""
    executor = SimulatedParallelPartitioner(spnl(), parallelism=m)
    max_delays = executor.max_delays
    kernel = fresh_kernel(graph)
    score, commit, clock = kernel.score, kernel.commit, time.perf_counter
    n = graph.num_vertices
    rct = ReversedCountingTable(m, n, epsilon=executor.epsilon) \
        if use_rct else None
    block = np.empty((m, K))
    indptr, indices = graph.indptr.tolist(), graph.indices
    arrivals = iter(range(n))
    carried: list[tuple[int, np.ndarray, int]] = []  # (v, neighbors, delays)
    scoring = 0.0
    groups = 0
    start = clock()
    while True:
        group, carried = carried, []
        group += [(v, indices[indptr[v]:indptr[v + 1]], 0)
                  for v in islice(arrivals, m - len(group))]
        if not group:
            break
        groups += 1
        if rct is not None:
            for v, _, _ in group:
                rct.register(v)
        t0 = clock()
        for row, (v, neighbors, delays) in zip(block, group):
            if rct is not None and delays == 0:
                rct.note_references(neighbors)
            row[:] = score(v, neighbors)
        scoring += clock() - t0
        for (v, neighbors, delays), row in zip(group, block):
            if (rct is not None and delays < max_delays
                    and rct.should_delay(v)):
                carried.append((v, neighbors, delays + 1))
                continue
            commit(v, neighbors, row)
            if rct is not None:
                rct.remove(v)
                rct.release_references(neighbors)
    total = clock() - start
    timer = timer_cost()
    serial = total - scoring - 2 * groups * timer
    return serial / n, scoring / n, kernel.state.route.copy()


# ----------------------------------------------------------------------
# 3. dispatch round trips
# ----------------------------------------------------------------------
def _echo(conn) -> None:
    while True:
        msg = conn.recv_bytes()
        if not msg:
            return
        conn.send_bytes(msg)


def pipe_round_trip(ctx) -> float:
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_echo, args=(child,), daemon=True)
    proc.start()
    child.close()
    try:
        for _ in range(200):  # warm up
            parent.send_bytes(b"g")
            parent.recv_bytes()
        t0 = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            parent.send_bytes(b"g")
            parent.recv_bytes()
        return (time.perf_counter() - t0) / ROUND_TRIPS
    finally:
        parent.send_bytes(b"")
        proc.join(5)


_STOP = 255


def _answer(name: str) -> None:
    shm = shared_memory.SharedMemory(name=name)
    bell = shm.buf
    try:
        seen = 0
        while True:
            ring = bell[0]
            if ring == seen:
                continue
            if ring == _STOP:
                return
            seen = ring
            bell[1] = ring
    finally:
        del bell
        shm.close()


def doorbell_round_trip(ctx) -> float:
    shm = shared_memory.SharedMemory(create=True, size=64)
    bell = shm.buf
    bell[0] = bell[1] = 0
    proc = ctx.Process(target=_answer, args=(shm.name,), daemon=True)
    proc.start()
    try:
        seq = 0
        t0 = 0.0
        for i in range(200 + ROUND_TRIPS):  # the first 200 warm up
            if i == 200:
                t0 = time.perf_counter()
            seq = seq % (_STOP - 1) + 1
            bell[0] = seq
            while bell[1] != seq:
                pass
        return (time.perf_counter() - t0) / ROUND_TRIPS
    finally:
        bell[0] = _STOP
        proc.join(5)
        del bell
        shm.close()
        shm.unlink()


# ----------------------------------------------------------------------
def one_round(graph, ctx, routes: dict) -> dict:
    """Every timing once, in seconds per record (per round trip for the
    dispatch).  Each group-loop pass is paired with a sequential pass
    run just before it, ``(t_seq, serial, scoring)``, so a ratio never
    spans two noise windows of a shared host."""
    n = graph.num_vertices

    def seq_pass() -> float:
        return spnl().partition(GraphStream(graph)).elapsed_seconds / n

    out = {"t_seq": seq_pass()}
    out["score"], out["commit"] = sequential_split(graph)
    out["pipe"] = pipe_round_trip(ctx)
    out["bell"] = doorbell_round_trip(ctx)
    for m in GROUP_SIZES:
        for use_rct in (True, False):
            t_seq = seq_pass()
            serial, scoring, route = group_loop(graph, m, use_rct)
            routes.setdefault((m, use_rct), route)
            out[m, use_rct] = (t_seq, serial, scoring)
    return out


def ceiling(r: dict, m: int, use_rct: bool) -> float:
    t_seq, serial, scoring = r[m, use_rct]
    return amdahl_ceiling(t_seq, serial, scoring,
                          min(r["pipe"], r["bell"]), m)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> None:
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    graph = community_web_graph(NUM_VERTICES, seed=SEED)
    print(f"community_web_graph({graph.num_vertices}, seed={SEED}): "
          f"|E| = {graph.num_edges}; SPNL K = {K}, dense Γ; usable CPUs "
          f"{cpus}; ceiling for 2 CPUs; median [q1-q3] of {ROUNDS} "
          "rounds\n")

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    routes: dict = {}
    rounds = [one_round(graph, ctx, routes) for _ in range(ROUNDS)]

    def us(key) -> float:
        return statistics.median(r[key] for r in rounds) * 1e6

    t_seq = us("t_seq")
    print(f"sequential pass  T_seq  {t_seq:6.2f} us/record")
    print(f"  kernel.score          {us('score'):6.2f} us/record "
          f"({us('score') / t_seq:.0%} of T_seq)")
    print(f"  kernel.commit         {us('commit'):6.2f} us/record "
          f"({us('commit') / t_seq:.0%} of T_seq)")
    print(f"dispatch round trip: pipe {us('pipe'):.1f} us, shared-memory "
          f"doorbell {us('bell'):.1f} us (the ceiling takes the cheaper)\n")

    seq_ecr = edge_cut_ratio(graph, spnl().partition(
        GraphStream(graph)).assignment)
    print("serial and scoring: the group loop's two phases, in us/record "
          "at the median T_seq;")
    print("loop = their sum as a multiple of the paired T_seq\n")
    print(f"{'M':>3s} {'RCT':>4s} {'loop':>6s} {'serial':>7s} "
          f"{'scoring':>8s} {'ceiling [q1-q3]':>22s} {'ECR':>7s} "
          f"{'drift':>7s}")
    print(f"{'seq':>3s} {'':>4s} {1.0:6.2f} "
          f"{t_seq - us('score'):7.2f} {us('score'):8.2f} "
          f"{'1.00x':>22s} {seq_ecr:7.4f}")
    go = []
    loops = {}
    for m in GROUP_SIZES:
        for use_rct in (True, False):
            assignment = SimulatedParallelPartitioner(
                spnl(), parallelism=m, use_rct=use_rct).partition(
                    GraphStream(graph)).assignment
            if not np.array_equal(assignment.route, routes[m, use_rct]):
                raise AssertionError(
                    f"group_loop(M={m}, RCT {use_rct}) placed differently "
                    "from SimulatedParallelPartitioner")
            drift = edge_cut_ratio(graph, assignment) / seq_ecr - 1.0
            q1, mid, q3 = quartiles([ceiling(r, m, use_rct)
                                     for r in rounds])

            def share(i: int) -> float:
                return statistics.median(r[m, use_rct][i] / r[m, use_rct][0]
                                         for r in rounds)

            serial, scoring = share(1), share(2)
            loops[m, use_rct] = serial + scoring
            if mid >= SPEEDUP_GOAL and drift <= DRIFT_LIMIT:
                go.append(f"M={m} RCT {'on' if use_rct else 'off'}")
            cell = f"{mid:.2f}x [{q1:.2f}-{q3:.2f}]"
            print(f"{m:3d} {'on' if use_rct else 'off':>4s} "
                  f"{serial + scoring:6.2f} {serial * t_seq:7.2f} "
                  f"{scoring * t_seq:8.2f} {cell:>22s} "
                  f"{edge_cut_ratio(graph, assignment):7.4f} {drift:+7.1%}")
    print(f"\nself-check: M = 1 RCT-off loop / T_seq = {loops[1, False]:.2f} "
          "(the group loop without the RCT over groups of one; 1.0 when it "
          "reads its input as the sequential pass does)\n")
    if go:
        print(f"verdict: go ({', '.join(go)} reach >= {SPEEDUP_GOAL}x "
              f"with drift <= {DRIFT_LIMIT:.0%})")
    else:
        print(f"verdict: no-go (no M reaches >= {SPEEDUP_GOAL}x "
              f"with drift <= {DRIFT_LIMIT:.0%})")


if __name__ == "__main__":
    main()
