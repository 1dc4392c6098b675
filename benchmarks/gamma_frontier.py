"""What a byte of Γ buys, per stream order (ROADMAP item 15).

SPNL at K = 32 on the uk2002, indo2004 and sk2005 stand-ins, under
three arrival orders:

* ``id`` — the stand-in's own numbering (BFS-crawl-like locality);
* ``bfs`` — :func:`repro.graph.relabel.bfs_order` (start 0, undirected);
* ``random`` — :func:`repro.graph.stream.shuffled` with ``seed = 1``.

Rows per (graph, order):

* ``dense`` — the K×|V| Γ table;
* ``window`` — the sliding window of Sec. V-A at X ∈ {2, 4, …, 256},
  W = ⌈|V|/X⌉ rows (id order only: the window refuses any other);
* ``floor`` — SPNL with its Γ in-term switched off (λ = 1), so it reads
  no Γ at all (Γ bytes 0).

The artifact's second table holds the multiplicative-hash Γ of B =
⌈|V|/X⌉ rows, measured by this script at commit ``0658d35``, before
the ruling below deleted that table.  It is no longer regenerated: a
rewrite carries the block over from the committed artifact, and the
closing verdict is computed from it and the regenerated rows.  The
ruling: hashed Γ stays only if, under some order and on at least two
of the three graphs, one of its points has a lower ECR than the floor
and than every window point with no more rows.

``python benchmarks/gamma_frontier.py`` (~15 s, no PYTHONPATH)
rewrites ``benchmarks/results/gamma_frontier.txt``.  ``--quick
--check`` regenerates a subset (indo2004; id and random order; dense,
floor and the window at X = 8 and 128) and exits 1 if an ECR or δ_v
cell differs from the committed artifact.  Placement is deterministic
and every seed is fixed, so any difference means ``src/`` moved the
artifact.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import (  # noqa: E402
    DATASETS, format_table, load, run_partitioner)
from repro.graph import bfs_order, shuffled  # noqa: E402
from repro.partitioning import SPNLPartitioner  # noqa: E402

ARTIFACT = ROOT / "benchmarks" / "results" / "gamma_frontier.txt"
K = 32
GRAPHS = ("uk2002", "indo2004", "sk2005")
ORDERS = ("id", "bfs", "random")
SHARDS = (2, 4, 8, 16, 32, 64, 128, 256)
RANDOM_SEED = 1
QUICK = {"graphs": ("indo2004",), "orders": ("id", "random"),
         "shards": (8, 128)}
COLUMNS = ("graph", "order", "gamma", "X", "rows", "gamma_bytes", "ECR",
           "delta_v")
HASHED_TITLE = "Hashed Γ (B = ⌈|V|/X⌉ rows)"


def stream_order(graph, order: str):
    """The arrival order handed to the stream (``None``: id order)."""
    if order == "id":
        return None
    if order == "bfs":
        return bfs_order(graph)
    return shuffled(graph, seed=RANDOM_SEED).order


def measure(graph, order, gamma: str, x: int | None) -> dict:
    n = graph.num_vertices
    if gamma == "dense":
        part, rows = SPNLPartitioner(K), n
    elif gamma == "window":
        part, rows = SPNLPartitioner(K, num_shards=x), math.ceil(n / x)
    else:
        part, rows = SPNLPartitioner(K, lam=1.0), 0
    record = run_partitioner(part, graph, order=order)
    nbytes = part.expectation_store.nbytes() if rows else 0
    return {"gamma": gamma, "X": "-" if x is None else x, "rows": rows,
            "gamma_bytes": nbytes, "ECR": f"{record.ecr:.4f}",
            "delta_v": f"{record.delta_v:.3f}"}


def frontier(graphs, orders, shards) -> list[dict]:
    rows = []
    for name in graphs:
        graph = load(name)
        for order in orders:
            arrival = stream_order(graph, order)
            plan = [("dense", None), ("floor", None)]
            if order == "id":
                plan += [("window", x) for x in shards]
            for gamma, x in plan:
                row = {"graph": name, "order": order}
                row.update(measure(graph, arrival, gamma, x))
                rows.append(row)
                print("  ".join(str(row[c]) for c in COLUMNS), flush=True)
    return rows


def parse(lines: list[str]) -> list[dict]:
    """Table rows of ``format_table`` output back into dicts."""
    out = []
    for line in lines:
        cells = line.split()
        if len(cells) == len(COLUMNS) and cells[0] in GRAPHS:
            row = dict(zip(COLUMNS, cells))
            row["rows"] = int(row["rows"])
            out.append(row)
    return out


def verdict(rows: list[dict], hashed: list[dict]) -> list[str]:
    """The ruling: hashed stays only if, under some order and on at
    least two graphs, one of its points beats the floor and every
    window point with no more rows (the window's W, its two spare
    rows excluded: they are zero between calls)."""
    keep, lines = False, []
    for order in ORDERS:
        wins, best = [], []
        for name in GRAPHS:
            mine = [r for r in rows
                    if (r["graph"], r["order"]) == (name, order)]
            floor = next(float(r["ECR"]) for r in mine
                         if r["gamma"] == "floor")
            windows = [(w["rows"], float(w["ECR"])) for w in mine
                       if w["gamma"] == "window"]
            points = [(h["X"], h["rows"], float(h["ECR"])) for h in hashed
                      if (h["graph"], h["order"]) == (name, order)]
            won = [x for x, size, ecr in points if ecr < floor and all(
                ecr < rival for width, rival in windows if width <= size)]
            if won:
                wins.append(f"{name} X={','.join(won)}")
            best.append(f"{name} {min(p[2] for p in points):.4f} vs "
                        f"{floor:.4f}")
        keep = keep or len(wins) >= 2
        lines.append(f"  {order}: hashed wins on {len(wins)} of "
                     f"{len(GRAPHS)} graphs"
                     + (f" ({'; '.join(wins)})" if wins else "")
                     + "; best hashed ECR vs floor: " + ", ".join(best))
    head = ("verdict: hashed Γ stays" if keep
            else "verdict: hashed Γ goes — no order has a hashed point "
                 "below both the floor and every window point with no "
                 "more rows on two of the three graphs")
    return [head] + lines


def frozen_hashed() -> list[str]:
    """The hashed block of the committed artifact, title to blank line."""
    lines = ARTIFACT.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(HASHED_TITLE))
    return lines[start:lines.index("", start)]


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def header(wall: float) -> list[str]:
    seeds = ", ".join(f"{name}={DATASETS[name].generator_kwargs['seed']}"
                      for name in GRAPHS)
    return [
        f"Γ frontier — SPNL Γ bytes against ECR and δ_v by stream order "
        f"(K = {K})",
        f"commit: {commit()}",
        f"host: {platform.system()} {platform.machine()}, "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"numpy {np.__version__}",
        f"seeds: stand-ins {seeds}; random order shuffled(seed="
        f"{RANDOM_SEED}); bfs order bfs_order(start=0)",
        f"wall time: {wall:.0f} s",
        "command: python benchmarks/gamma_frontier.py",
        "rows: dense = |V|; window = W = ⌈|V|/X⌉ (the ring adds two "
        "spare rows, counted in gamma_bytes); floor = λ = 1, reads no Γ",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="indo2004, id and random order, X = 8, 128")
    parser.add_argument("--check", action="store_true",
                        help="compare ECR and δ_v against the artifact "
                             "instead of rewriting it")
    args = parser.parse_args(argv)
    if args.quick and not args.check:
        parser.error("--quick only checks; it never rewrites the artifact")
    scope = QUICK if args.quick else {
        "graphs": GRAPHS, "orders": ORDERS, "shards": SHARDS}
    start = time.perf_counter()
    rows = frontier(scope["graphs"], scope["orders"], scope["shards"])
    wall = time.perf_counter() - start
    if args.check:
        committed = {(r["graph"], r["order"], r["gamma"], r["X"]): r
                     for r in parse(ARTIFACT.read_text().splitlines())}
        bad = []
        for row in rows:
            key = (row["graph"], row["order"], row["gamma"], str(row["X"]))
            old = committed.get(key)
            for col in ("ECR", "delta_v"):
                if old is None or old[col] != row[col]:
                    bad.append(f"{key} {col}: committed "
                               f"{None if old is None else old[col]}, "
                               f"now {row[col]}")
        for line in bad:
            print("MOVED", line)
        print(f"check: {len(rows)} rows, {len(bad)} cells moved")
        return 1 if bad else 0
    hashed = frozen_hashed()
    text = [*header(wall), "", format_table(rows), "", *hashed, "",
            *verdict(rows, parse(hashed))]
    ARTIFACT.write_text("\n".join(text) + "\n")
    print("\n".join(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
