"""The edge-partitioning suites' graph: web-like, small enough that one
pass of any edge heuristic takes well under a second."""

import pytest

from repro.graph import community_web_graph


@pytest.fixture(scope="session")
def edge_graph():
    """1.2k vertices, ~12.9k edges: the shared ``web_graph``'s family at
    a size where SPNL-E still clearly beats HDRF at K = 8 (2.16 against
    2.76 RF; at 800 vertices the two tie)."""
    return community_web_graph(1200, avg_community_size=50, seed=42,
                               name="web1k2")
