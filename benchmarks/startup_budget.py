"""Where start-up time goes: wall time, import time per layer, modules.

Times three entry points in fresh ``python`` children and splits each
one's imports by layer.  No timing is asserted and nothing here runs in
tier-1 (``python benchmarks/startup_budget.py [--repeats N]``, ~30 s at
the default N, no PYTHONPATH):

* ``library``: ``from repro import PartitionConfig`` plus ``.make()`` of
  SPNL at K = 32 — what the in-process workloads of the end-to-end
  benchmark (``benchmarks/e2e/``) time as ``setup_s``;
* ``serve``: ``python -m repro serve`` with the serve workloads' flags on
  ``community_web_graph(20000, seed=7)`` booted from its CSR sidecar,
  from spawn to the answered ``hello`` — the serve workloads'
  ``setup_s``;
* ``partition --help``: the CLI's parser alone.

Per entry point it prints the best-of-N wall time, then N more runs
under ``python -X importtime``: each module's minimum self time over
those runs, summed per ``repro`` subpackage, for numpy and for
everything else, and the count of modules imported (``repro`` ones and
all).  ``-X importtime`` slows every import, so its sum exceeds the
import share of the wall time; compare it between entry points and
between commits, not with the wall column.
"""

from __future__ import annotations

import argparse
import itertools
import os
import socket
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.graph import community_web_graph  # noqa: E402
from repro.graph.io import write_adjacency  # noqa: E402
from repro.ingest.cache import load_or_parse  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    PROTOCOL_VERSION, decode_line, encode_message)

NUM_VERTICES, GRAPH_SEED, K = 20_000, 7, 32
LIBRARY = ("from repro import PartitionConfig; "
           f"PartitionConfig(method='spnl', num_partitions={K}, "
           "num_shards=1).make()")
SERVE_FLAGS = ["-k", str(K), "--shards", "1", "--no-fsync",
               "--graph-cache"]
ENV = dict(os.environ, PYTHONPATH=str(SRC))

_now = time.perf_counter


def run_to_exit(argv: list[str], stderr=subprocess.DEVNULL) -> float:
    """Seconds from spawn to a clean exit."""
    start = _now()
    subprocess.run(argv, env=ENV, check=True, stdout=subprocess.DEVNULL,
                   stderr=stderr)
    return _now() - start


def serve_to_hello(argv: list[str], stderr=subprocess.DEVNULL) -> float:
    """Seconds from spawn to the server's answer to ``hello``."""
    start = _now()
    proc = subprocess.Popen(argv, env=ENV, stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not boot: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        with socket.create_connection((host, int(port))) as sock:
            sock.sendall(encode_message(
                {"protocol": PROTOCOL_VERSION, "op": "hello", "id": 1}))
            reply = decode_line(sock.makefile("rb").readline())
        took = _now() - start
        if not reply.get("ok"):
            raise RuntimeError(f"hello failed: {reply}")
    finally:
        proc.terminate()
        proc.wait(timeout=60)
        proc.stdout.close()
    return took


def layer_of(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro":
        return "repro" if len(parts) == 1 or parts[1] in (
            "cli", "api", "_lazy", "__main__") else f"repro.{parts[1]}"
    return "numpy" if parts[0] == "numpy" else "rest"


def self_times(log: Path) -> dict[str, float]:
    """Module -> ``-X importtime`` self time (ms) of one run's log."""
    times = {}
    for line in log.read_text(errors="replace").splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        times[name.strip()] = int(self_us) / 1e3
    return times


def import_profile(runs: list[dict[str, float]]
                   ) -> tuple[dict[str, float], int, int]:
    """Per-module minimum over ``runs``, summed per layer; and the
    repro and total module counts."""
    per_layer: dict[str, float] = defaultdict(float)
    for name in runs[0]:
        per_layer[layer_of(name)] += min(run.get(name, float("inf"))
                                         for run in runs)
    repro_count = sum(1 for name in runs[0]
                      if name.split(".")[0] == "repro")
    return per_layer, repro_count, len(runs[0])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=15,
                        help="wall-time runs per entry point (best of N)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        graph_path = workdir / "graph.adj"
        write_adjacency(community_web_graph(NUM_VERTICES, seed=GRAPH_SEED),
                        graph_path)
        load_or_parse(graph_path, cache=True)  # the miss writes the sidecar
        state_dirs = itertools.count()
        python = [sys.executable]
        entries = {
            "library": (run_to_exit, lambda: ["-c", LIBRARY]),
            "serve": (serve_to_hello, lambda: [
                "-m", "repro", "serve", str(graph_path), *SERVE_FLAGS,
                "--snapshot-dir", str(workdir / f"state-{next(state_dirs)}")]),
            "partition --help": (run_to_exit, lambda: [
                "-m", "repro", "partition", "--help"]),
        }
        print(f"start-up budget: best of {args.repeats} fresh children; "
              "import self time in ms, per-module minimum over "
              f"{args.repeats} -X importtime runs")
        rows = []
        log = workdir / "importtime.log"
        for name, (timed, argv) in entries.items():
            wall = min(timed(python + argv()) for _ in range(args.repeats))
            runs = []
            for _ in range(args.repeats):
                with open(log, "w") as err:
                    timed(python + ["-X", "importtime"] + argv(), stderr=err)
                runs.append(self_times(log))
            rows.append((name, wall, *import_profile(runs)))
        layers = sorted({layer for row in rows for layer in row[2]},
                        key=lambda l: (l in ("numpy", "rest"), l))
        for name, wall, per_layer, repro_count, total in rows:
            print(f"\n{name}: wall {wall * 1e3:.1f} ms, {repro_count} repro "
                  f"modules of {total}, import self time "
                  f"{sum(per_layer.values()):.1f} ms")
            for layer in layers:
                if per_layer.get(layer):
                    print(f"  {layer:<24}{per_layer[layer]:>9.2f}")


if __name__ == "__main__":
    main()
