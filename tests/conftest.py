"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graph.graph import Edge, Graph
from repro.graph.generators import (
    barabasi_albert_graph,
    community_powerlaw_graph,
    powerlaw_cluster_graph,
    web_like_graph,
)
from repro.graph.stream import InMemoryEdgeStream, shuffled


def pytest_addoption(parser):
    parser.addoption(
        "--kernel-so", default=None, metavar="PATH",
        help="run against this prebuilt _kernels.c shared object instead "
             "of compiling one (the sanitizer CI leg passes its "
             "-fsanitize=address,undefined build)")


def pytest_configure(config):
    so_path = config.getoption("--kernel-so", default=None)
    if so_path is not None:
        from repro.core import _kernels

        if _kernels.load(so_path) is None:
            raise pytest.UsageError(f"cannot load kernels from {so_path}")


@pytest.fixture
def triangle() -> Graph:
    """The smallest clustered graph: a single triangle."""
    return Graph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def star() -> Graph:
    """Star graph: one hub (0) and five spokes."""
    return Graph([(0, i) for i in range(1, 6)])


@pytest.fixture
def path_graph() -> Graph:
    """Path 0-1-2-3-4."""
    return Graph([(i, i + 1) for i in range(4)])


@pytest.fixture
def two_triangles() -> Graph:
    """Two triangles sharing vertex 0 — a classic vertex-cut scenario."""
    return Graph([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


@pytest.fixture
def small_powerlaw() -> Graph:
    """A small skewed graph for partitioner behaviour tests."""
    return barabasi_albert_graph(n=200, m=3, seed=11)


@pytest.fixture
def small_clustered() -> Graph:
    """A small clustered graph (exercises the clustering score)."""
    return powerlaw_cluster_graph(n=200, m=3, p=0.9, seed=11)


@pytest.fixture
def small_web() -> Graph:
    """A small community graph (web analogue)."""
    return web_like_graph(num_communities=12, community_size=8, seed=11)


@pytest.fixture
def dense_community() -> Graph:
    """A dense community graph with hub overlay (spotlight-effect tests).

    The spotlight effect needs realistic density (vertices with many edges
    per chunk) and stream locality, so this fixture is denser than the
    others and is streamed in adjacency order.
    """
    return community_powerlaw_graph(num_communities=12, community_size=40,
                                    intra_p=0.5, overlay_m=3, seed=11)


@pytest.fixture
def small_stream(small_powerlaw: Graph) -> InMemoryEdgeStream:
    return shuffled(small_powerlaw.edges(), seed=3)
