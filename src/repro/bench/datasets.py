"""Scaled synthetic stand-ins for the paper's eight evaluation graphs.

The paper's Table II datasets are real web crawls (58 MB – 34 GB) that we
can neither ship nor process at full size; each stand-in below is a
:func:`~repro.graph.generators.community_web_graph` whose knobs are tuned
to land the stand-in in the same *regime* as its original:

* **id-order locality** (intra/near fractions, community size) drives the
  LDG-vs-SPNL ECR gap — the paper's high-locality crawls (indo2004,
  uk2002, web2001, sk2005, uk2007) are where SPNL reaches ECR ≤ 0.10;
* **degree skew** (degree exponent / max factor) drives δ_e — eu2015 and
  indo2004 show δ_e ≈ 19 and 8.6 at K=32 in Table III;
* **|E|/|V| ratio** is kept within a factor ~2 of the original (full
  ratios would blow the laptop runtime budget at the larger sizes).

Sizes are scaled to 5k–32k vertices; all *relative* paper results
(orderings, ratios, crossovers) are preserved, absolute PT/MC are not —
see EXPERIMENTS.md for the per-experiment comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.digraph import DiGraph
from ..graph.generators import community_web_graph

__all__ = ["DatasetSpec", "DATASETS", "load", "load_all", "clear_cache"]


@dataclass(frozen=True)
class DatasetSpec:
    """One stand-in: its paper original plus the generator recipe."""

    name: str
    paper_vertices: int
    paper_edges: int
    paper_size: str
    description: str
    generator_kwargs: dict = field(default_factory=dict)

    def build(self) -> DiGraph:
        """Generate the stand-in graph (deterministic)."""
        return community_web_graph(name=self.name, **self.generator_kwargs)


def _spec(name: str, pv: int, pe: int, size: str, desc: str, *,
          seed: int, **kwargs) -> DatasetSpec:
    # ``seed`` has no default: Python salts ``hash(str)`` per process,
    # so a name-derived seed would build a different graph every run.
    return DatasetSpec(name, pv, pe, size, desc,
                       generator_kwargs=dict(kwargs, seed=seed))


#: Registry mirroring the paper's Table II, in the paper's row order.
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec for spec in [
        _spec("stanford", 685_230, 7_605_339, "58.0MB",
              "moderate-locality university web graph",
              n=8_000, avg_degree=11.0, avg_community_size=80,
              intra_fraction=0.66, near_fraction=0.18, reciprocity=0.35,
              degree_max_factor=14.0, seed=101),
        _spec("uk2005", 100_000, 3_050_615, "17.0MB",
              "small dense crawl slice, weakest locality of the set",
              n=5_000, avg_degree=14.0, avg_community_size=90,
              intra_fraction=0.55, near_fraction=0.20, reciprocity=0.30,
              degree_max_factor=14.0, seed=102),
        _spec("eu2015", 6_650_532, 171_736_545, "1.4GB",
              "high locality with extreme degree skew (paper δ_e ≈ 18)",
              n=16_000, avg_degree=6.0, avg_community_size=70,
              intra_fraction=0.78, near_fraction=0.14, reciprocity=0.35,
              degree_exponent=1.9, degree_max_factor=20.0,
              density_skew=18.0, seed=103),
        _spec("indo2004", 7_414_866, 195_418_438, "1.5GB",
              "very high locality, skewed degrees (paper δ_e ≈ 8.6)",
              n=16_000, avg_degree=6.0, avg_community_size=60,
              intra_fraction=0.87, near_fraction=0.09, reciprocity=0.40,
              degree_exponent=1.9, degree_max_factor=12.0,
              density_skew=8.0, seed=104),
        _spec("uk2002", 18_520_486, 298_113_762, "2.5GB",
              "very high locality, mild skew — SPNL's showcase graph",
              n=24_000, avg_degree=12.0, avg_community_size=55,
              intra_fraction=0.85, near_fraction=0.11, reciprocity=0.40,
              degree_max_factor=10.0, seed=105),
        _spec("web2001", 118_142_155, 1_019_903_190, "9.6GB",
              "the paper's sliding-window test graph; high locality",
              n=32_000, avg_degree=9.0, avg_community_size=60,
              intra_fraction=0.84, near_fraction=0.12, reciprocity=0.40,
              degree_max_factor=10.0, seed=106),
        _spec("sk2005", 50_636_154, 1_949_412_601, "16.0GB",
              "dense high-locality crawl (METIS OOMs here in the paper)",
              n=24_000, avg_degree=16.0, avg_community_size=60,
              intra_fraction=0.82, near_fraction=0.12, reciprocity=0.35,
              degree_max_factor=12.0, seed=107),
        _spec("uk2007", 108_563_230, 3_929_837_236, "34.0GB",
              "largest, highest locality (every offline method OOMs)",
              n=32_000, avg_degree=14.0, avg_community_size=50,
              intra_fraction=0.88, near_fraction=0.09, reciprocity=0.40,
              degree_max_factor=10.0, seed=108),
    ]
}

_CACHE: dict[str, DiGraph] = {}


def load(name: str) -> DiGraph:
    """Build (or fetch from the in-process cache) one stand-in graph."""
    if name not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    if name not in _CACHE:
        _CACHE[name] = DATASETS[name].build()
    return _CACHE[name]


def load_all() -> dict[str, DiGraph]:
    """All eight stand-ins, in the paper's Table II order."""
    return {name: load(name) for name in DATASETS}


def clear_cache() -> None:
    """Drop cached graphs (tests use this to bound memory)."""
    _CACHE.clear()
