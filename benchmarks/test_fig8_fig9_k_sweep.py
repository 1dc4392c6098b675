"""Paper Figs. 8 & 9: all metrics vs K against streaming partitioners
(uk2002 for Fig. 8, indo2004 for Fig. 9).

Shape expectations:

* ECR grows with K for every method (more partitions → more boundaries);
* SPN/SPNL dominate LDG/FENNEL at every K;
* δ_v stays pinned near the slack for all K;
* PT grows with K (longer score vectors), staying the same order.
"""

import pytest

from repro.bench import fig8_9_k_sweep_streaming, format_table

KS = (2, 4, 8, 16, 32)


@pytest.fixture(scope="module", params=["uk2002", "indo2004"])
def sweep(request):
    return request.param, fig8_9_k_sweep_streaming(request.param, ks=KS)


def test_fig8_fig9(sweep, emit):
    dataset, metrics = sweep
    fignum = "fig8" if dataset == "uk2002" else "fig9"
    for metric, fig in metrics.items():
        emit(f"{fignum}_{metric}_{dataset}", format_table(
            fig.as_rows(),
            title=f"Fig. 8/9 — {metric} vs K ({dataset})"))

    ecr = metrics["ECR"]
    for method, values in ecr.series.items():
        # ECR at K=32 strictly above K=2 for every method.
        assert values[-1] > values[0], (dataset, method)

    by_k = {k: {m: ecr.series[m][i] for m in ecr.series}
            for i, k in enumerate(KS)}
    for k in KS[1:]:  # K=2 is too coarse to separate methods reliably
        assert by_k[k]["SPNL"] < by_k[k]["LDG"], (dataset, k)
        assert by_k[k]["SPN"] < by_k[k]["FENNEL"], (dataset, k)

    for method, values in metrics["delta_v"].series.items():
        assert max(values) <= 1.11, (dataset, method)

    # PT: same order of magnitude across the K range for each method.
    for method, values in metrics["PT"].series.items():
        assert max(values) < 12 * min(values), (dataset, method)
