"""The Holme–Kim generator as it was before its triad step stopped
building a list over the hub's neighbours: the control that
``tests/test_generators.py`` holds :func:`repro.graph.generators
.powerlaw_cluster_graph` equal to, edge for edge and in every vertex's
adjacency order."""

from __future__ import annotations

import random
from typing import List, Optional

from repro.graph.graph import Graph


def powerlaw_cluster_graph(n: int, m: int, p: float, seed: int = 0) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    repeated: List[int] = []
    for v in range(m):
        graph.add_edge(v, m)
        repeated.extend((v, m))
    for source in range(m + 1, n):
        count = 0
        last_target: Optional[int] = None
        while count < m:
            if (last_target is not None and rng.random() < p):
                # Triad step: close a triangle through last_target.
                candidates = [w for w in graph.neighbors(last_target)
                              if w != source and not graph.has_edge(source, w)]
                if candidates:
                    target = rng.choice(candidates)
                else:
                    target = rng.choice(repeated)
            else:
                target = rng.choice(repeated)
            if target != source and graph.add_edge(source, target):
                repeated.extend((source, target))
                count += 1
                last_target = target
    return graph
