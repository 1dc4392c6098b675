"""Paper Table IV: memory consumption vs quality on web2001, K=32.

Shape expectations:

* SPNL with the full Γ table (X=1) needs far more memory than LDG;
* with the recommended window the overhead collapses to ~LDG levels
  (paper: 14.53 GB → 0.55 GB vs LDG's 0.44 GB) with negligible ECR loss;
* the offline methods' working set dwarfs every streaming method (they
  hold the whole graph), matching their ≥O(|E|) complexity row.
"""

import pytest

from repro.bench import format_table, table4_memory


@pytest.fixture(scope="module")
def rows():
    return table4_memory(dataset="web2001", k=32)


def test_table4(rows, emit):
    emit("table4_memory",
         format_table(rows, title="Table IV — memory vs quality "
                                  "(web2001, K=32)"))
    by_method = {r["method"]: r for r in rows}
    ldg = by_method["LDG"]
    spnl_full = next(r for r in rows if r["method"] == "SPNL(X=1)")
    spnl_win = next(r for r in rows if "SPNL(X=" in r["method"]
                    and r["method"] != "SPNL(X=1)")

    # Model: the full table costs several times the windowed table (the
    # auto rule picks X=10 at this stand-in scale → ~7-8x); the windowed
    # variant sits within ~3x of LDG's local view.
    assert spnl_full["model MC(MB)"] > 5 * spnl_win["model MC(MB)"]
    assert spnl_win["model MC(MB)"] < 3 * ldg["model MC(MB)"] + 1.0

    # Paper-scale projection reproduces Table IV's 14.53 GB vs 0.55 GB
    # vs 0.44 GB regime (orders of magnitude, not exact numbers).
    assert spnl_full["paper-scale MC(GB)"] > 10.0
    assert spnl_win["paper-scale MC(GB)"] < 1.0

    # Quality is preserved by the window (paper: 0.0620 vs 0.0623).
    assert spnl_win["ECR"] <= spnl_full["ECR"] * 1.3 + 0.02


def test_table4_offline_dominates_memory(rows):
    by_method = {r["method"]: r for r in rows}
    metis = by_method["METIS-like"]
    ldg = by_method["LDG"]
    assert metis["model MC(MB)"] > 5 * ldg["model MC(MB)"]
    assert metis["paper-scale MC(GB)"] > 10.0


def test_table4_measured_tracks_model(rows):
    """Measured tracemalloc peaks must reproduce the model's *ordering*
    for the rows where the gap is an order of magnitude."""
    spnl_full = next(r for r in rows if r["method"] == "SPNL(X=1)")
    ldg = next(r for r in rows if r["method"] == "LDG")
    assert spnl_full["measured MC(MB)"] > 2 * ldg["measured MC(MB)"]
