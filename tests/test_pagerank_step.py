"""PageRank's dense step ≡ the boolean-gather form it replaced, bit for bit.

``_DensePageRank.step`` updates ranks and divides shares with masked
ufuncs (``np.add(..., where=mask)``, ``np.divide(..., where=senders)``)
where it used to gather and scatter through the masks
(``rank[mask] = ...``, ``share[senders] = ...``).  :class:`Gathered`
keeps those lines.  Hypothesis draws a graph with vertices of degree
zero, a kernel state and a mask — random, all-False or all-True — and
both kernels take one step from the same state, at superstep 0, a middle
one and ``iterations``.  ``rank``, ``incoming``, ``has_msg``, ``active``,
the returned send count and the shares scattered must agree to the last
bit.  The CSR is a plain one or a shard's, whose logical degrees exceed
its slots.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.algorithms.pagerank import DAMPING, _DensePageRank
from repro.graph.csr import CSRGraph
from repro.graph.shard import ShardCSR

ITERATIONS = 6
SUPERSTEPS = {"first": 0, "middle": ITERATIONS // 2, "last": ITERATIONS}


class Gathered(_DensePageRank):
    """The step as it was written with boolean gathers."""

    def step(self, superstep: int, mask: np.ndarray) -> Tuple[int, Any]:
        if superstep > 0:
            self.rank[mask] = (1.0 - DAMPING) + DAMPING * self.incoming[mask]
        if superstep < self.iterations:
            senders = mask & (self.csr.degrees > 0)
            share = np.zeros_like(self.rank)
            share[senders] = self.rank[senders] / self.csr.degrees[senders]
            self.has_msg, self.incoming = self.scatter_sum(senders, share)
            self.active = mask.copy()
            return self.sent_from(senders), None
        self.has_msg[:] = False
        self.active[:] = False
        return 0, None


@st.composite
def cases(draw):
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=60))
    base = CSRGraph.from_edges([(u, v) for u, v in pairs if u != v],
                               vertices=range(n))
    csr = base
    if draw(st.booleans()):  # a shard: logical degrees, some unslotted
        extra = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        csr = ShardCSR(base.indptr, base.indices, base.vertex_ids,
                       base.degrees + np.array(extra, dtype=np.int64))
    doubles = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    state = {
        "rank": np.array(draw(st.lists(doubles, min_size=n, max_size=n))),
        "incoming": np.array(draw(st.lists(doubles, min_size=n,
                                           max_size=n))),
        "has_msg": np.array(draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n))),
        "active": np.array(draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)))}
    shape = draw(st.sampled_from(["random", "none", "all"]))
    mask = (np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            if shape == "random" else np.full(n, shape == "all"))
    superstep = SUPERSTEPS[draw(st.sampled_from(sorted(SUPERSTEPS)))]
    return csr, state, mask, superstep


def stepped(kind, csr, state, mask, superstep):
    """One step of a ``kind`` kernel from ``state``: the kernel, what
    ``step`` returned and every ``(senders, share)`` it scattered."""
    kernel = kind(csr, ITERATIONS)
    for name, value in state.items():
        setattr(kernel, name, value.copy())
    scattered = []

    def scatter_sum(senders, share):
        scattered.append((senders.copy(), share.copy()))
        return type(kernel).scatter_sum(kernel, senders, share)

    kernel.scatter_sum = scatter_sum
    returned = kernel.step(superstep, mask.copy())
    return kernel, returned, scattered


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_step_matches_the_gather_form(case):
    masked, returned, scattered = stepped(_DensePageRank, *case)
    gathered, expected, wanted = stepped(Gathered, *case)
    assert returned == expected
    assert len(scattered) == len(wanted)
    for got, want in zip(scattered, wanted):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    for name in ("rank", "incoming", "has_msg", "active"):
        got, want = getattr(masked, name), getattr(gathered, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
