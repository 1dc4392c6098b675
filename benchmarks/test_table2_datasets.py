"""Paper Table II: the eight datasets, originals next to their stand-ins.

Shape expectations (the regimes EXPERIMENTS.md states for the
stand-ins):

* uk2007, the largest BFS crawl, is the most local in id order and
  uk2005 the least — SPNL's best and worst graphs in the paper;
* eu2015 carries more in-degree skew than uk2002 (the δ_e driver).
"""

import pytest

from repro.bench import format_table, table2_datasets


@pytest.fixture(scope="module")
def rows():
    return table2_datasets()


def test_table2(rows, emit):
    emit("table2_datasets", format_table(
        rows, title="Table II — datasets (paper originals vs stand-ins)"))
    locality = {r["graph"]: r["locality"] for r in rows}
    gini = {r["graph"]: r["in-deg gini"] for r in rows}

    assert max(locality, key=locality.get) == "uk2007"
    assert min(locality, key=locality.get) == "uk2005"
    assert gini["eu2015"] > gini["uk2002"]
