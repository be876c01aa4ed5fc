"""``KernelBinding``: what it rebinds between batches, and what it refuses.

A batch's ``stage`` rebinds each of the state's four tables (replica
matrix, row versions, degrees, sizes) that is not the array bound, and
validates only what it binds; ``check_rows`` still runs on every batch.
So a table the state reallocates between two batches — with or without
the row capacity changing, and with the replica matrix kept — must be
the one the next transaction writes, and a buffer of the wrong dtype,
layout or size must still be refused where it is bound.
"""

import numpy as np
import pytest
from _window_utils import reference, result_tuple

from repro.core import _kernels
from repro.core._binding import KernelBinding
from repro.core.adwise import AdwisePartitioner
from repro.graph.graph import Edge
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.hdrf import HDRFPartitioner

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="the compiled kernels do not load here")

PAIRS = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(600)]
BATCH = 150

#: The state's tables, by the attribute that holds each.
TABLES = {"replicas": "_replicas", "row_version": "_row_version",
          "deg": "_deg", "sizes": "_sizes"}


def kernel_of(partitioner) -> KernelBinding:
    if isinstance(partitioner, HDRFPartitioner):
        return partitioner.kernel
    return partitioner.window._kern


def run(build, move=(), **knobs):
    """``PAIRS`` in four batches; before each later batch, the state
    moves the tables named in ``move`` to fresh copies."""
    partitioner = build(range(6), **knobs)
    partitioner.begin(total_edges=len(PAIRS))
    for start in range(0, len(PAIRS), BATCH):
        state = partitioner.state
        if start and move:
            for field in move:
                if field == "grow":
                    state._grow()
                else:
                    attribute = TABLES[field]
                    setattr(state, attribute, getattr(state, attribute).copy())
        partitioner.ingest([Edge(u, v) for u, v in PAIRS[start:start + BATCH]])
        if type(state) is FastPartitionState:
            kernel = kernel_of(partitioner)
            for field, attribute in TABLES.items():
                assert kernel.array(field) is getattr(state, attribute), field
            assert kernel.ctx.vertex_cap == state._capacity
            assert all(kernel.array(field).size >= state._capacity
                       for field in kernel.vertex_fields)
    return result_tuple(partitioner.finalize())


BUILDS = {"hdrf": (HDRFPartitioner, {}),
          "adwise": (AdwisePartitioner, {"fixed_window": 32})}


@pytest.mark.parametrize("move", [("deg",), ("row_version",), ("sizes",),
                                  ("row_version", "deg", "sizes"),
                                  ("replicas",), ("grow",)])
@pytest.mark.parametrize("algorithm", sorted(BUILDS))
def test_a_table_moved_between_batches_is_rebound(algorithm, move):
    """Each table moved on its own (the replica matrix kept: the one
    identity the rebind used to follow), all but the replica matrix, and
    a row growth: the next transaction writes the arrays the state
    holds, and the result is the reference tier's."""
    build, knobs = BUILDS[algorithm]
    expected = run(lambda parts, **kw: reference(build, parts, **kw), **knobs)
    assert run(build, move, **knobs) == expected


@pytest.fixture
def kernel():
    state = FastPartitionState(range(4))
    state.dense_rows(np.arange(10, dtype=np.int64))
    binding = KernelBinding(_kernels.load(), state)
    binding.sync_state()
    return binding


@pytest.mark.parametrize("field, array", [
    ("deg", np.zeros(64, dtype=np.float64)),
    ("deg", np.zeros(64, dtype=np.int32)),
    ("row_version", np.zeros(64, dtype=np.uint8)),
    ("replicas", np.zeros(64 * 4, dtype=np.uint8)),
    ("deg", np.zeros(128, dtype=np.int64)[::2]),
    ("deg", np.zeros(3, dtype=np.int64)),
], ids=["float", "int32", "uint8-versions", "uint8-replicas", "strided",
        "short"])
def test_bind_refuses_a_wrong_buffer(kernel, field, array):
    """Refused by the binding's own check (``RuntimeError``) or, for a
    dtype it maps to another C type, by cffi's (``TypeError``) — either
    way before the context points at it, and nothing is bound."""
    bound = kernel.array(field)
    pointer = getattr(kernel.ctx, field)
    with pytest.raises((RuntimeError, TypeError)):
        kernel.bind(field, array, 64)
    assert kernel.array(field) is bound
    assert getattr(kernel.ctx, field) == pointer


def test_a_wrong_table_from_the_state_is_refused_at_stage(kernel):
    """A table the state swapped for a strided, short view is refused
    by the rebind ``stage`` makes of it, before any kernel runs."""
    state = kernel.state
    state._deg = state._deg[::2]
    with pytest.raises(RuntimeError, match="kernel buffer 'deg'"):
        kernel.stage(np.array([[1, 2]], dtype=np.int64))


def test_rows_outside_the_tables_are_refused(kernel):
    with pytest.raises(RuntimeError, match="outside the bound tables"):
        kernel.check_rows(np.array([0, kernel.ctx.vertex_cap]))
