"""Graph substrate: data structures, IO, edge streams, generators, statistics."""

from repro.graph.graph import Edge, Graph
from repro.graph.csr import CSRGraph
from repro.graph.stream import (
    EdgeStream,
    FileChunkStream,
    FileEdgeStream,
    InMemoryEdgeStream,
    chunk_file_stream,
    chunk_stream,
    locally_shuffled,
    shuffled,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    brain_like_graph,
    community_powerlaw_graph,
    orkut_like_graph,
    powerlaw_cluster_graph,
    rmat_graph,
    watts_strogatz_graph,
    web_like_graph,
)
from repro.graph.stats import (
    average_clustering,
    degree_histogram,
    degrees,
    GraphSummary,
    summarize,
)

__all__ = [
    "Edge",
    "Graph",
    "CSRGraph",
    "EdgeStream",
    "FileChunkStream",
    "FileEdgeStream",
    "InMemoryEdgeStream",
    "chunk_file_stream",
    "chunk_stream",
    "locally_shuffled",
    "shuffled",
    "barabasi_albert_graph",
    "brain_like_graph",
    "community_powerlaw_graph",
    "orkut_like_graph",
    "powerlaw_cluster_graph",
    "rmat_graph",
    "watts_strogatz_graph",
    "web_like_graph",
    "average_clustering",
    "degree_histogram",
    "degrees",
    "GraphSummary",
    "summarize",
]
