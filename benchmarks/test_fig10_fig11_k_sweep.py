"""Paper Figs. 10 & 11: all metrics vs K against offline partitioners
(indo2004 for Fig. 10, eu2015 for Fig. 11).

Shape expectations:

* SPNL tracks METIS-like ECR closely at every K while XtraPuLP-like
  trails both;
* δ_e climbs with K on these two graphs (the paper calls out their
  degree skew: dense regions cannot be split under vertex balance);
* METIS-like pays by far the most work per edge.
"""

import pytest

from repro.bench import fig10_11_k_sweep_offline, format_table

KS = (2, 4, 8, 16, 32)


@pytest.fixture(scope="module", params=["indo2004", "eu2015"])
def sweep(request):
    return request.param, fig10_11_k_sweep_offline(request.param, ks=KS)


def test_fig10_fig11(sweep, emit):
    dataset, metrics = sweep
    fignum = "fig10" if dataset == "indo2004" else "fig11"
    for metric, fig in metrics.items():
        emit(f"{fignum}_{metric}_{dataset}", format_table(
            fig.as_rows(),
            title=f"Fig. 10/11 — {metric} vs K ({dataset})"))

    ecr = metrics["ECR"]
    by_k = {k: {m: ecr.series[m][i] for m in ecr.series}
            for i, k in enumerate(KS)}
    for k in KS[2:]:  # at tiny K every method is near the floor
        assert by_k[k]["SPNL"] < by_k[k]["XtraPuLP-like"], (dataset, k)
        assert by_k[k]["SPNL"] <= 2.5 * by_k[k]["METIS-like"], (dataset, k)

    # δ_e roughly increases with K on the skewed graphs (paper Sec. VI-D).
    for method, values in metrics["delta_e"].series.items():
        assert values[-1] > values[0], (dataset, method)

    # ECR grows with K for every method.
    for method, values in ecr.series.items():
        assert values[-1] > values[0], (dataset, method)
