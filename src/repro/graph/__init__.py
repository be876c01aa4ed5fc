"""Graph substrate: data structures, IO, edge streams, generators, statistics."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".graph": ("Edge", "Graph"),
    ".csr": ("CSRGraph",),
    ".stream": ("EdgeStream", "FileChunkStream", "FileEdgeStream",
                "InMemoryEdgeStream", "chunk_file_stream", "chunk_stream",
                "locally_shuffled", "shuffled"),
    ".generators": ("barabasi_albert_graph", "brain_like_graph",
                    "community_powerlaw_graph", "orkut_like_graph",
                    "powerlaw_cluster_graph", "rmat_graph",
                    "watts_strogatz_graph", "web_like_graph"),
    ".stats": ("average_clustering", "degree_histogram", "degrees",
               "GraphSummary", "summarize"),
})

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
