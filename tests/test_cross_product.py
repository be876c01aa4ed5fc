"""Cross-product stress matrix: every partitioner × graph family × k.

A broad sweep asserting only universal invariants (via the validator),
catching interactions that focused unit tests miss — e.g. a partitioner
that breaks on dense cliques, or spotlight spreads that leave partitions
uncovered on a particular family.
"""

import pytest

from repro.graph.generators import (
    barabasi_albert_graph,
    community_powerlaw_graph,
    rmat_graph,
    watts_strogatz_graph,
    web_like_graph,
)
from repro.graph.stream import InMemoryEdgeStream, locally_shuffled, shuffled
from repro.core.adwise import AdwisePartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.parallel import partitioner_registry
from repro.partitioning.validate import validate_result

GRAPHS = {
    "powerlaw": lambda: barabasi_albert_graph(120, 3, seed=5),
    "smallworld": lambda: watts_strogatz_graph(120, 6, 0.2, seed=5),
    "rmat": lambda: rmat_graph(7, 6, seed=5),
    "community": lambda: community_powerlaw_graph(5, 20, 0.5, 2, seed=5),
    "web": lambda: web_like_graph(8, 8, seed=5),
}

#: Every algorithm the CLI and the daemon can run: the Fig. 7/8 streaming
#: baselines, Fig. 1's PowerLyra, Ja-Be-Ja-VC and NE, and ADWISE itself.
PARTITIONERS = partitioner_registry()


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("partitioner_name", sorted(PARTITIONERS))
@pytest.mark.parametrize("k", [1, 3, 8])
def test_partitioner_graph_matrix(graph_name, partitioner_name, k):
    graph = GRAPHS[graph_name]()
    stream = shuffled(graph.edges(), seed=9)
    partitioner = PARTITIONERS[partitioner_name](range(k))
    result = partitioner.partition_stream(stream)
    report = validate_result(result, expected_edges=len(stream))
    assert report.ok, report.errors
    assert 1.0 <= result.replication_degree <= k


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("order", ["adjacency", "local", "shuffled"])
def test_adwise_across_families_and_orders(graph_name, order):
    graph = GRAPHS[graph_name]()
    edges = graph.edge_list()
    if order == "adjacency":
        stream = InMemoryEdgeStream(edges)
    elif order == "local":
        stream = locally_shuffled(edges, buffer_size=64, seed=9)
    else:
        stream = shuffled(edges, seed=9)
    partitioner = AdwisePartitioner(range(6), fixed_window=8)
    result = partitioner.partition_stream(stream)
    report = validate_result(result, expected_edges=len(stream))
    assert report.ok, report.errors


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_quality_ordering_holds_everywhere(graph_name):
    """HDRF must never lose to Hash on replication — on any family."""
    graph = GRAPHS[graph_name]()
    stream = shuffled(graph.edges(), seed=9)
    hdrf = HDRFPartitioner(range(8)).partition_stream(stream)
    hashed = HashPartitioner(range(8)).partition_stream(stream)
    assert hdrf.replication_degree <= hashed.replication_degree
