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

Where the compiled kernels load, a cluster host steps PageRank's kernel
with ``kern_pagerank_step``: rank update, senders, shares, send count and
the slot pass in one C call, the message buffers refilled in place.  On
the same draws it is held to the numpy tier — the same one-shard
:class:`~repro.cluster.transport.ShardGroup` built without kernels, which
runs ``_DensePageRank.step`` with the numpy ``scatter_sum`` and counts
sends over the shard's own slots — bit for bit, senders and shares
included; four mutants of the C pass must fail that comparison.
"""

from __future__ import annotations

import contextlib
from typing import Any, Tuple

import numpy as np
import pytest
from _window_utils import load_mutant
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_bsp_kernels import Spy, no_kernels

from repro.cluster.transport import ShardGroup
from repro.core import _kernels
from repro.engine.algorithms.pagerank import DAMPING, PageRank, _DensePageRank
from repro.graph.csr import CSRGraph
from repro.graph.shard import Shard, ShardCSR

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


# ----------------------------------------------------------------------
# The compiled step ≡ the numpy step plus the numpy scatter
# ----------------------------------------------------------------------
two_tiers = pytest.mark.skipif(
    _kernels.load() is None,
    reason="no compiled kernels here: one tier, nothing to compare")


def host_step(native, csr, state, mask, superstep):
    """One step of a one-shard host from ``state``, on the asked tier:
    its kernel, the step's result, the entries it called and the
    ``(senders, shares)`` it scattered (shares at senders only)."""
    n = csr.num_vertices
    shard = Shard(0, ShardCSR(csr.indptr, csr.indices, csr.vertex_ids,
                              csr.degrees), np.ones(n, dtype=bool))
    with contextlib.nullcontext() if native else no_kernels():
        group = ShardGroup([shard], PageRank(iterations=ITERATIONS),
                           {0: 0}, {0: 0}, 0)
    kernel = group.kernel
    for name, value in state.items():
        setattr(kernel, name, value.copy())
    calls, scattered = [], []
    if native:
        spy = Spy(group._native[1])
        group._native, calls = (group._native[0], spy), spy.calls
    else:
        rebound = kernel.scatter_sum

        def scatter_sum(senders, share):
            scattered.append((senders.copy(), share[senders].copy()))
            return rebound(senders, share)

        kernel.scatter_sum = scatter_sum
    group._mask = mask.copy()
    result = group.step(superstep)
    if calls:
        _, senders, share = group._fused
        scattered.append((senders.copy(), share[senders].copy()))
    return kernel, result, calls, scattered


def assert_tiers_agree(csr, state, mask, superstep):
    native, got, calls, scattered = host_step(True, csr, state, mask,
                                              superstep)
    numpy_tier, want, _, wanted = host_step(False, csr, state, mask,
                                            superstep)
    assert calls == (["kern_pagerank_step"] if superstep < ITERATIONS
                     else [])
    assert (got.sent, got.synced) == (want.sent, want.synced)
    assert len(scattered) == len(wanted)
    for pair, expected in zip(scattered, wanted):
        assert [a.tobytes() for a in pair] == [a.tobytes() for a in expected]
    for name in ("rank", "incoming", "has_msg", "active"):
        mine, theirs = getattr(native, name), getattr(numpy_tier, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def fixed_case():
    """A shard with what each mutant below moves: a masked vertex whose
    inbox holds 0.0 (its rank is then ``1 - d`` exactly), an unmasked one
    with messages, a masked one of degree zero and logical degrees above
    the slots of the senders."""
    base = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)],
                               vertices=range(6))
    csr = ShardCSR(base.indptr, base.indices, base.vertex_ids,
                   base.degrees + np.array([1, 0, 2, 0, 0, 1]))
    state = {"rank": np.array([0.5, 2.0, 1.25, 0.75, 3.0, 1.0]),
             "incoming": np.array([0.0, 1.5, 0.3, 2.25, 0.0, 0.7]),
             "has_msg": np.array([0, 1, 1, 1, 0, 1], dtype=bool),
             "active": np.ones(6, dtype=bool)}
    mask = np.array([1, 0, 1, 1, 1, 0], dtype=bool)
    return csr, state, mask, SUPERSTEPS["middle"]


@two_tiers
@settings(max_examples=300, deadline=None)
@given(case=cases())
@example(case=fixed_case())
def test_native_step_matches_numpy(case):
    assert_tiers_agree(*case)


#: ``kern_pagerank_step`` mutants: (text, replacement).
MUTANTS = {
    "0.15 for 1 - d": ("const double base = 1.0 - damping;",
                       "const double base = 0.15;"),
    "count over logical degrees": ("sent += local_degrees[i];",
                                   "sent += degrees[i];"),
    "unmasked rank update": ("if (update && mask[i])", "if (update)"),
    "degree-zero senders": ("senders[i] = mask[i] && degrees[i] > 0;",
                            "senders[i] = mask[i] && degrees[i] >= 0;"),
}


@two_tiers
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, tmp_path, monkeypatch):
    load_mutant(MUTANTS[name], tmp_path, monkeypatch)
    with pytest.raises(AssertionError):
        assert_tiers_agree(*fixed_case())
