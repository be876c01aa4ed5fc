"""The CSR builder ``CSRGraph.from_edges`` used before it ranked its edges
through ``graph/shard.py::ranked_edges``, kept verbatim (two
``np.unique`` and a ``lexsort``) as the reference ``tests/test_csr.py``
holds the ranked builder equal to, array for array and dtype for dtype.
Nothing in ``src/`` may import this.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.graph.csr import _INT32_MAX, CSRGraph


def reference_from_edges(edges: Iterable[Tuple[int, int]],
                         vertices: Iterable[int] = ()) -> CSRGraph:
    """What ``CSRGraph.from_edges`` was."""
    pairs = np.array([(u, v) for u, v in edges],
                     dtype=np.int64).reshape(-1, 2)
    extra = np.fromiter(vertices, dtype=np.int64)
    if len(pairs) and (pairs[:, 0] == pairs[:, 1]).any():
        loop = pairs[pairs[:, 0] == pairs[:, 1]][0]
        raise ValueError(
            f"self-loop ({loop[0]}, {loop[1]}) not supported")
    vertex_ids = np.unique(np.concatenate([pairs.ravel(), extra]))
    n = len(vertex_ids)
    # Remap endpoints onto dense indices and canonicalise (lo, hi).
    lo = np.searchsorted(vertex_ids, pairs.min(axis=1))
    hi = np.searchsorted(vertex_ids, pairs.max(axis=1))
    if len(lo):
        # Collapse parallel edges: unique (lo, hi) pairs via a single
        # scalar key — n < 2**31 keeps lo * n + hi inside int64.
        key = np.unique(lo * np.int64(max(n, 1)) + hi)
        lo, hi = key // max(n, 1), key % max(n, 1)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    dtype = np.int32 if n <= _INT32_MAX else np.int64
    indices = dst[order].astype(dtype, copy=False)
    degrees = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return CSRGraph(indptr, indices, vertex_ids)
