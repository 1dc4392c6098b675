"""Paper Fig. 7: sliding-window shard count X vs MC/ECR/δ_v/PT
(SPNL on web2001).

Shape expectations:

* MC falls steeply as X grows, then flattens once the Γ window stops
  dominating the footprint (Fig. 7a);
* ECR stays flat for a wide X range and only degrades at extreme X
  (Fig. 7b);
* δ_v and PT are insensitive to X (Figs. 7c/7d);
* none of this depends strongly on K.
"""

import pytest

from repro.bench import fig7_window_sweep, format_table

SHARDS = (1, 4, 16, 64, 256)
KS = (8, 32)


@pytest.fixture(scope="module")
def figures():
    return fig7_window_sweep(dataset="web2001", shards=SHARDS, ks=KS)


def test_fig7(figures, emit):
    for k, fig in figures.items():
        emit(f"fig7_window_k{k}", format_table(
            fig.as_rows(),
            title=f"Fig. 7 — SPNL vs shard count X (web2001, K={k})"))

    for k, fig in figures.items():
        mc = dict(zip(fig.x_values, fig.series["MC(MB)"]))
        ecr = dict(zip(fig.x_values, fig.series["ECR"]))
        dv = fig.series["delta_v"]
        pt = fig.series["PT(s)"]

        # 7a: memory falls sharply with X ...
        assert mc[64] < 0.65 * mc[1], k
        # ... then flattens (diminishing returns).
        saved_early = mc[1] - mc[64]
        saved_late = mc[64] - mc[256]
        assert saved_late < saved_early, k

        # 7b: a wide X range leaves ECR essentially unchanged.
        for x in (4, 16, 64):
            assert ecr[x] <= ecr[1] * 1.3 + 0.02, (k, x)

        # 7c: δ_v unaffected by X (small wobble from tie-break shifts).
        assert max(dv) - min(dv) < 0.1, k

        # 7d: PT unaffected by X — asymptotically O(1) in X; the bound
        # is loose because single-core wall clocks under a loaded CI
        # machine carry real noise.
        assert max(pt) < 5.0 * min(pt), k
