"""Unit tests for the benchmark dataset registry."""

import pytest

from repro.bench import DATASETS, clear_cache, load, load_all
from repro.graph import locality_score


class TestRegistry:
    def test_all_eight_paper_graphs_present(self):
        assert list(DATASETS) == [
            "stanford", "uk2005", "eu2015", "indo2004", "uk2002",
            "web2001", "sk2005", "uk2007"]

    def test_paper_sizes_recorded(self):
        assert DATASETS["uk2007"].paper_edges == 3_929_837_236
        assert DATASETS["stanford"].paper_vertices == 685_230

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load("facebook")

    def test_every_stand_in_has_its_own_fixed_seed(self):
        """A seed derived from ``hash(name)`` would change per process."""
        from repro.bench.datasets import _spec
        seeds = [spec.generator_kwargs["seed"] for spec in DATASETS.values()]
        assert len(set(seeds)) == len(seeds)
        with pytest.raises(TypeError, match="seed"):
            _spec("new", 1, 1, "1MB", "no seed given", n=100)


class TestLoading:
    def test_load_caches(self):
        clear_cache()
        a = load("uk2005")
        b = load("uk2005")
        assert a is b

    def test_clear_cache(self):
        a = load("uk2005")
        clear_cache()
        b = load("uk2005")
        assert a is not b
        assert a == b  # still deterministic

    def test_deterministic_build(self):
        spec = DATASETS["stanford"]
        assert spec.build() == spec.build()

    def test_graph_names_match_keys(self):
        g = load("uk2005")
        assert g.name == "uk2005"


class TestRegimes:
    """The stand-ins must land in their originals' qualitative regimes."""

    def test_locality_ordering(self):
        """uk2007 (BFS-crawled giant) is the most local; uk2005 least."""
        weakest = locality_score(load("uk2005"))
        strongest = locality_score(load("uk2007"))
        assert strongest > weakest + 0.15

    def test_high_locality_graphs(self):
        for name in ("uk2002", "web2001", "sk2005", "uk2007"):
            assert locality_score(load(name)) > 0.85, name

    def test_skewed_graphs_have_dense_regions(self):
        """eu2015/indo2004 carry the paper's δ_e-driving density skew."""
        from repro.graph import describe
        eu = describe(load("eu2015"))
        uk = describe(load("uk2002"))
        assert eu.degree_gini > uk.degree_gini
