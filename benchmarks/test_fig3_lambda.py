"""Paper Fig. 3: SPN's ECR as a function of λ on eu2015 and indo2004.

Shape expectation: both extremes are suboptimal — λ=1 (ignore
in-neighbors, i.e. plain LDG) is clearly the worst; λ=0 (ignore
out-neighbor intersections) is worse than the interior; the curve is
flat-bottomed around the paper's default λ=0.5.
"""

import pytest

from repro.bench import fig3_lambda_sweep, format_table

LAMBDAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@pytest.fixture(scope="module")
def fig():
    return fig3_lambda_sweep(datasets=("eu2015", "indo2004"),
                             lambdas=LAMBDAS, k=32)


def test_fig3(fig, emit):
    emit("fig3_lambda", format_table(
        fig.as_rows(), title="Fig. 3 — ECR vs λ (SPN, K=32)"))

    for series_name, values in fig.series.items():
        curve = dict(zip(fig.x_values, values))
        interior_best = min(curve[x] for x in (0.25, 0.5, 0.75))
        # λ=1 (LDG) is far above the interior optimum.
        assert curve[1.0] > 1.3 * interior_best, series_name
        # λ=0 is no better than the interior optimum either.
        assert curve[0.0] >= interior_best, series_name
        # the default 0.5 sits within 25% of the sweep's best.
        assert curve[0.5] <= 1.25 * min(values), series_name
