"""What the placement step is made of, and why it is not a block kernel.

Two tables, printed; nothing is asserted and nothing here runs in
tier-1 (``python benchmarks/kernel_primitives.py``, ~10 s, numpy and
the standard library only besides the repo's own generators).

1. **Primitive costs** on this host's numpy, at the benchmark's shape
   (K = 32 partitions, d = 12 neighbours): the per-call price of each
   *kind* of numpy call the per-record step makes.  ``docs/
   performance.md`` ("Where the speed comes from") budgets the step
   from this table; rerun it after a numpy upgrade to see which trim
   of the step the upgrade invalidated.  The rows marked "unaligned
   ids" index with the same ids stored off their 8-byte boundary.  The
   two "window test" rows are the sliding window's per-record test at
   X = 8 (W = 2,500 ids): the compress chain of a ring of W rows, and
   the one clip of the ring of W + 2 rows that replaced it.

2. **In-block dependency density** for block sizes 16-256: ROADMAP
   item 2 proposed scoring a block of B records at once and
   re-gathering the records that depend on an earlier record of their
   block.  Record ``j`` depends on an earlier record ``i`` of its block
   when it names ``i`` as a neighbour (it reads ``route[i]``: *direct*)
   or when ``i``'s commit bumps a Γ row ``j``'s score reads —
   ``N(i) ∩ (N(j) ∪ {j}) ≠ ∅`` (*shared*).  The table gives both per
   record and the share of records with at least one: the re-gather
   rate of a speculate-and-validate kernel, per graph family, in the
   id order the stream arrives in (reordering is not on offer: the
   streaming guarantees are for the order given).
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.graph import DiGraph, from_edges  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    barabasi_albert, community_web_graph, erdos_renyi, rmat)
from repro.partitioning.window import _clip  # noqa: E402

K, D, NUM_VERTICES = 32, 12, 20000
BLOCK_SIZES = (16, 32, 64, 128, 256)
#: Blocks sampled per (graph, B), evenly spaced over the stream.
MAX_BLOCKS = 48


# ----------------------------------------------------------------------
# 1. primitive costs
# ----------------------------------------------------------------------
def unaligned(ids: np.ndarray) -> np.ndarray:
    """``ids`` in a buffer 7 bytes off an 8-byte boundary: what a CSR
    slice is when its file's body starts there (``np.frombuffer`` at
    any offset), and numpy copies it to an aligned one on every use."""
    raw = np.zeros(ids.nbytes + 8, dtype=np.uint8)
    out = raw[7:7 + ids.nbytes].view(ids.dtype)
    out[:] = ids
    assert not out.flags.aligned
    return out


def primitive_table() -> list[tuple[str, str, float]]:
    rng = np.random.default_rng(0)
    env = {
        "np": np, "K": K,
        "f": rng.random(K), "g": rng.random(K), "out": np.empty(K),
        "lam": 0.5, "lam0": np.array(0.5),
        "i64": rng.integers(0, 100, K),
        "i32": rng.integers(0, 100, K).astype(np.int32),
        "c2k": rng.integers(0, 5, 2 * K), "coef": rng.random(2 * K),
        "out2k": np.empty(2 * K),
        "table": rng.integers(0, 50, (NUM_VERTICES, K)).astype(np.int32),
        "nb": np.sort(rng.integers(0, NUM_VERTICES, D)),
        "rows": np.empty((D, K), dtype=np.int32),
        "o32": np.empty(K, dtype=np.int32),
        "o64": np.empty(K, dtype=np.int64),
        "image": rng.integers(0, 2 * K, NUM_VERTICES).astype(np.int32),
        "one": np.int32(1), "lane": memoryview(rng.integers(0, 100, K)),
        "low": 6000, "low0": np.array(6000),
        # the sliding window's test at X = 8: W = |V| / 8 ids from low
        "clip": _clip, "end0": np.array(6000 + NUM_VERTICES // 8),
        "size0": np.array(NUM_VERTICES // 8),
        "past0": np.array(6000 - 1), "rows0": np.array(NUM_VERTICES // 8 + 2),
    }
    env["col"] = env["table"][:, 3]
    env["nbu"] = unaligned(env["nb"])
    cases = [
        ("plain", "np.multiply(f, g, out=out)"),
        ("plain, Python-float operand", "np.multiply(f, lam, out=out)"),
        ("plain, 0-d array operand", "np.multiply(f, lam0, out=out)"),
        ("casting int64->float", "np.multiply(i64, g, out=out)"),
        ("casting int32->float", "np.multiply(i32, g, out=out)"),
        ("casting, Python-float operand", "np.multiply(i64, lam, out=out)"),
        ("casting, 2K lanes", "np.multiply(c2k, coef, out=out2k)"),
        ("compare d ids, Python int", "nb >= low"),
        ("compare d ids, 0-d array", "nb >= low0"),
        ("reducing: max()", "f.max()"),
        ("argmax", "f.argmax()"),
        ("argmax + index", "f[f.argmax()]"),
        ("reducing d rows: sum(dtype=int64)",
         "rows.sum(axis=0, dtype=np.int64, out=o64)"),
        ("reducing d rows: add.reduce -> int64",
         "np.add.reduce(rows, 0, None, o64)"),
        ("reducing d rows: add.reduce -> int32",
         "np.add.reduce(rows, 0, None, o32)"),
        ("take d rows (fresh)", "table.take(nb, axis=0)"),
        ("take d rows (out=, checked)", "table.take(nb, axis=0, out=rows)"),
        ("take d rows (out=, mode='clip')",
         "table.take(nb, axis=0, out=rows, mode='clip')"),
        ("take d rows (fresh), unaligned ids", "table.take(nbu, axis=0)"),
        ("fancy-index d rows", "table[nb]"),
        ("fancy-index d rows, unaligned ids", "table[nbu]"),
        ("add one table row (int32)", "np.add(o32, table[5], out=o32)"),
        ("gather + bincount (2K)",
         "np.bincount(image[nb], minlength=2 * K)"),
        ("gather + bincount (2K), unaligned ids",
         "np.bincount(image[nbu], minlength=2 * K)"),
        ("np.add.at column, int32 one", "np.add.at(col, nb, one)"),
        ("np.add.at column, unaligned ids", "np.add.at(col, nbu, one)"),
        ("np.add.at column, Python 1", "np.add.at(col, nb, 1)"),
        ("lane += 1, ndarray", "i64[7] += 1"),
        ("lane += 1, memoryview", "lane[7] += 1"),
        ("window test: compress chain",
         "ids = np.asarray(nb, dtype=np.int64); ids = ids[ids >= low0]; "
         "ids = ids[ids < end0]; ids % size0"),
        ("window test: clip + remainder",
         "np.remainder(clip(nb, past0, end0), rows0)"),
    ]
    result = []
    for kind, stmt in cases:
        best = min(timeit.repeat(stmt, globals=env, number=20000, repeat=9))
        result.append((kind, stmt, best / 20000 * 1e6))
    return result


# ----------------------------------------------------------------------
# 2. in-block dependency density
# ----------------------------------------------------------------------
def one_way_chain(n: int) -> DiGraph:
    return from_edges([(v, v + 1) for v in range(n - 1)], num_vertices=n,
                      name="one-way-chain")


def block_dependencies(graph: DiGraph, block: int
                       ) -> tuple[float, float, float]:
    """``(direct, shared, dependent share)`` per record of ``graph`` in
    id order, over at most ``MAX_BLOCKS`` blocks of ``block`` records."""
    indptr, indices = graph.indptr, graph.indices
    starts = np.arange(0, graph.num_vertices - block + 1, block)
    if len(starts) > MAX_BLOCKS:
        starts = starts[np.linspace(0, len(starts) - 1, MAX_BLOCKS
                                    ).astype(int)]
    direct = shared = dependent = 0
    for lo in starts:
        hi = lo + block
        dst = indices[indptr[lo]:indptr[hi]]
        src = np.repeat(np.arange(block), np.diff(indptr[lo:hi + 1]))
        # direct: a neighbour that is an earlier record of the block
        named = (dst >= lo) & (dst < lo + src)
        direct_of = np.bincount(src[named], minlength=block)
        # shared: writes N(i) against reads N(j) + {j}, i before j
        ids, cols = np.unique(np.concatenate([dst, np.arange(lo, hi)]),
                              return_inverse=True)
        writes = np.zeros((block, len(ids)), dtype=np.float32)
        writes[src, cols[:len(dst)]] = 1.0
        reads = writes.copy()
        reads[np.arange(block), cols[len(dst):]] = 1.0
        shared_of = np.count_nonzero(
            np.tril(reads @ writes.T, k=-1), axis=1)
        direct += int(direct_of.sum())
        shared += int(shared_of.sum())
        dependent += int(np.count_nonzero(direct_of + shared_of))
    records = len(starts) * block
    return direct / records, shared / records, dependent / records


def main() -> None:
    print(f"numpy {np.__version__}, python {sys.version.split()[0]}; "
          f"K = {K}, d = {D}\n")
    print(f"{'primitive':38s} {'us/call':>8s}  statement")
    for kind, stmt, micros in primitive_table():
        print(f"{kind:38s} {micros:8.3f}  {stmt}")
    graphs = [
        community_web_graph(NUM_VERTICES, seed=7),
        rmat(14, 12, seed=7),
        erdos_renyi(NUM_VERTICES, 12.0, seed=7),
        barabasi_albert(NUM_VERTICES, 6, seed=7),
        one_way_chain(NUM_VERTICES),
    ]
    print("\nin-block dependencies per record, id order "
          "(direct / shared / share of records with any)")
    print(f"{'graph':28s}" + "".join(f"{'B=' + str(b):>22s}"
                                     for b in BLOCK_SIZES))
    for graph in graphs:
        cells = []
        for block in BLOCK_SIZES:
            direct, shared, share = block_dependencies(graph, block)
            cells.append(f"{direct:6.2f}/{shared:6.1f}/{share:6.1%}")
        label = f"{graph.name} (d={graph.num_edges / graph.num_vertices:.1f})"
        print(f"{label:28s}" + "".join(f"{c:>22s}" for c in cells))


if __name__ == "__main__":
    main()
