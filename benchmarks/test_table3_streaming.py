"""Paper Table III: SPN/SPNL vs LDG/FENNEL on all eight stand-ins, K=32.

Shape expectations from the paper:

* SPN cuts ECR vs LDG on every graph (paper: 19-47 %);
* SPNL cuts further, up to ~92 % on the highest-locality graphs;
* all methods hold δ_v near the slack; PT(SPN/SPNL) is a modest constant
  factor over LDG (complex heuristics), not asymptotically worse.
"""

import pytest

from repro.bench import format_table, table3_streaming

HIGH_LOCALITY = ("uk2002", "web2001", "sk2005", "uk2007")


@pytest.fixture(scope="module")
def records():
    return table3_streaming(k=32)


def test_table3(records, emit):
    emit("table3_streaming",
         format_table([r.as_row() for r in records],
                      title="Table III — streaming partitioners (K=32)"))
    by_key = {(r.graph, r.partitioner): r for r in records}
    graphs = sorted({r.graph for r in records})

    # SPN improves on LDG everywhere; SPNL improves on SPN on average.
    spn_improvements = []
    spnl_improvements = []
    for g in graphs:
        ldg, spn = by_key[(g, "LDG")], by_key[(g, "SPN")]
        spnl = by_key[(g, "SPNL")]
        assert spn.ecr < ldg.ecr, f"SPN fails to beat LDG on {g}"
        assert spnl.ecr < ldg.ecr, f"SPNL fails to beat LDG on {g}"
        spn_improvements.append(1 - spn.ecr / ldg.ecr)
        spnl_improvements.append(1 - spnl.ecr / ldg.ecr)

    # Paper: SPN up to 47% better, SPNL up to 92%; we require the same
    # regime — strong average improvement, SPNL's max ≥ 75%.
    assert sum(spn_improvements) / len(spn_improvements) > 0.25
    assert max(spnl_improvements) > 0.75
    assert sum(spnl_improvements) / len(spnl_improvements) >= \
        sum(spn_improvements) / len(spn_improvements)


def test_table3_high_locality_regime(records):
    """SPNL lands in the paper's ≤0.12 band on the BFS-crawled giants."""
    by_key = {(r.graph, r.partitioner): r for r in records}
    for g in HIGH_LOCALITY:
        assert by_key[(g, "SPNL")].ecr <= 0.15, g


def test_table3_balance_held(records):
    for r in records:
        assert r.delta_v <= 1.11, (r.graph, r.partitioner)


def test_table3_skew_shows_in_delta_e(records):
    """eu2015 carries the set's largest δ_e (paper: 18.4 at web scale)."""
    by_key = {(r.graph, r.partitioner): r for r in records}
    eu = by_key[("eu2015", "SPNL")].delta_e
    uk = by_key[("uk2002", "SPNL")].delta_e
    assert eu > 2.0 * uk


def test_table3_runtime_same_order(records):
    """SPNL pays a bounded constant factor over LDG (paper: ~1.1-1.3x in
    Java; our per-record Python overhead is larger but still O(1))."""
    by_key = {(r.graph, r.partitioner): r for r in records}
    for g in {r.graph for r in records}:
        ratio = by_key[(g, "SPNL")].pt_seconds / \
            by_key[(g, "LDG")].pt_seconds
        assert ratio < 12.0, g
