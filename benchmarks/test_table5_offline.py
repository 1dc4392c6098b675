"""Paper Table V: SPNL vs METIS-like and XtraPuLP-like, K=32,
centralized and parallel.

Shape expectations:

* METIS-like holds the best-or-near-best ECR wherever it runs, but
  simulated-OOMs (at the originals' scale) on sk2005 and uk2007;
* XtraPuLP-like runs leaner but with clearly worse ECR, and OOMs only on
  uk2007;
* SPNL streams through everything, with ECR comparable to METIS-like and
  far below XtraPuLP-like;
* parallel SPNL's quality degradation stays small (paper ≤6 %, 2 % avg)
  thanks to the RCT.
"""

import pytest

from repro.bench import format_table, table5_offline


@pytest.fixture(scope="module")
def records():
    return table5_offline(k=32)


def _index(records):
    table = {}
    for r in records:
        table.setdefault(r.graph, {})[r.partitioner] = r
    return table


def test_table5(records, emit):
    emit("table5_offline",
         format_table([r.as_row() for r in records],
                      title="Table V — offline vs SPNL (K=32)"))
    table = _index(records)

    # The paper's exact F pattern.
    assert table["sk2005"]["METIS-like"].failed
    assert table["uk2007"]["METIS-like"].failed
    assert not table["web2001"]["METIS-like"].failed
    assert table["uk2007"]["XtraPuLP-like"].failed
    assert not table["sk2005"]["XtraPuLP-like"].failed
    for graph, methods in table.items():
        for name, record in methods.items():
            if name.startswith("SPNL"):
                assert not record.failed, (graph, name)


def test_table5_quality_ordering(records):
    table = _index(records)
    for graph, methods in table.items():
        metis = methods["METIS-like"]
        xtrapulp = methods["XtraPuLP-like"]
        spnl = methods["SPNL"]
        if not xtrapulp.failed:
            # XtraPuLP trades quality for scalability (paper: SPNL
            # reduces ECR vs XtraPuLP by up to 91%).
            assert spnl.ecr < xtrapulp.ecr, graph
        if not metis.failed:
            # SPNL comparable to METIS: paper shows SPNL within
            # [0.5x, ~1.2x] of METIS across graphs.
            assert spnl.ecr <= 2.5 * metis.ecr, graph


def test_table5_parallel_degradation_bounded(records):
    """RCT keeps parallel SPNL within a small factor of centralized."""
    table = _index(records)
    degradations = []
    for graph, methods in table.items():
        serial = methods["SPNL"]
        parallel = next(r for name, r in methods.items()
                        if name.startswith("SPNL-par"))
        assert not parallel.failed
        degradations.append(parallel.ecr / max(serial.ecr, 1e-9) - 1.0)
        assert parallel.ecr <= serial.ecr * 1.45 + 0.01, graph
    # average degradation stays small (paper: 2% avg, ours looser in
    # Python but same regime)
    assert sum(degradations) / len(degradations) < 0.25


def test_table5_spnl_fastest_wall_clock_vs_metis(records):
    """Where METIS-like runs, single-pass SPNL must not be slower by
    more than a small factor despite Python's per-record overhead; at
    paper scale the gap is 20x in SPNL's favor — here we only pin that
    METIS never *beats* SPNL by an order of magnitude."""
    table = _index(records)
    for graph, methods in table.items():
        metis = methods["METIS-like"]
        spnl = methods["SPNL"]
        if not metis.failed:
            assert spnl.pt_seconds < 10 * metis.pt_seconds, graph


def test_table5_work_units_reproduce_paper_pt_ordering(records):
    """Machine-independent efficiency: SPNL's 2 edge-scans vs the
    offline methods' dozens — this is the ordering behind the paper's
    15-20x PT gaps."""
    table = _index(records)
    for graph, methods in table.items():
        spnl = methods["SPNL"]
        metis = methods["METIS-like"]
        xtrapulp = methods["XtraPuLP-like"]
        if not metis.failed:
            assert spnl.work_units < metis.work_units
        if not xtrapulp.failed:
            assert spnl.work_units < xtrapulp.work_units
