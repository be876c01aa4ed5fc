"""State tables bound into a kernel context (DESIGN.md §14).

Every compiled transaction — the window pump, the single-edge stream
kernel — works on raw pointers into numpy buffers.  A
:class:`KernelBinding` is the one owner of that boundary for one
partition state: it holds the cffi ``KernCtx``, points it at the fast
state's tables (replica matrix, row versions, dense degrees, sizes) and
at the transaction's output lists, and is the only code that binds,
validates, grows or rebinds a buffer.  Around a transaction it offers
the three steps every batch takes:

* :meth:`stage` — intern the batch's ``(lo, hi)`` id columns to dense
  rows (one ``kern_intern`` call on the state's own table —
  :meth:`FastPartitionState.dense_rows`, which is where the state
  reallocates its tables), rebind (and so validate) whichever of them
  moved, copy in the scalars the kernels mirror, and check that every
  row about to cross lies inside the bound tables;
* :meth:`call` — run one entry point to a final status, growing the
  output lists (or, through the caller's handlers, the caller's own
  buffers) on a ``KERN_NEED_*`` exit and calling again;
* :meth:`absorb` — hand the state the scalars the kernel kept while it
  updated the tables in place (:meth:`FastPartitionState.absorb_pump`).

The window binds its per-slot and per-vertex buffers through the
same :meth:`bind` / :meth:`resize`, and HDRF its two k-entry rows
(``lamb``: the cached ``λ · C_bal`` column, ``krow``: one edge's
scores), so there is one copy of the bind/validate code.  C never
allocates, and holds no pointer across a Python-side reallocation;
every bound array is referenced here for the context's lifetime.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

_CTYPES = {np.dtype(np.float64): "double[]", np.dtype(np.int64): "int64_t[]",
           np.dtype(np.int32): "int32_t[]", np.dtype(np.uint8): "uint8_t[]",
           np.dtype(np.bool_): "uint8_t[]"}

#: Fields whose dtype is fixed, not left to the field's C type: the
#: window's neighbour counters add replica bytes as counts, so they must
#: be 0 or 1 — numpy ``bool``'s guarantee, not ``uint8``'s.
_REQUIRED_DTYPE = {"replicas": np.dtype(np.bool_)}

#: A capacity group: context field -> (dtype, entries per unit of
#: capacity, initial fill).
FieldSpec = Mapping[str, Tuple[type, int, object]]

#: Smallest output-list capacity (assignments per transaction).
_MIN_OUT = 64

#: Transaction outputs (``out_u`` / ``out_v``: the dense rows of a popped
#: window edge); an assignment sets at most two replica bits.
_OUT_FIELDS: FieldSpec = {
    "out_u": (np.int64, 1, 0), "out_v": (np.int64, 1, 0),
    "out_col": (np.int64, 1, 0), "out_score": (np.float64, 1, 0.0),
    "chg_row": (np.int64, 2, 0), "chg_col": (np.int64, 2, 0)}


class KernelBinding:
    """One ``KernCtx`` over one :class:`FastPartitionState`.

    ``vertex_fields`` names per-dense-vertex arrays of the caller's that
    must always be as long as the state's row tables; they are regrown
    (contents kept) whenever the state reallocates.
    """

    def __init__(self, kernels: Tuple, state,
                 vertex_fields: Optional[FieldSpec] = None) -> None:
        self.ffi, self.lib = kernels
        self.state = state
        self.vertex_fields: FieldSpec = vertex_fields or {}
        #: Kernel entries made so far (including re-entries after a
        #: buffer grew) and the wall time spent inside them.
        self.kernel_calls = 0
        self.kernel_ns = 0
        #: Context field -> the array bound there.  Holding the arrays
        #: here keeps every bound buffer alive for the context's lifetime.
        self._bound: Dict[str, np.ndarray] = {}
        self.ctx = self.ffi.new("KernCtx *")
        self.ctx.k = state.num_partitions
        self._spread = np.array(state.partitions, dtype=np.int64)
        self.resize(_OUT_FIELDS, "out_cap", _MIN_OUT)

    # ------------------------------------------------------------------
    # Buffers: bind, validate, grow
    # ------------------------------------------------------------------
    def bind(self, field: str, array: np.ndarray, size: int) -> None:
        """Point context ``field`` at ``array`` (and keep it alive).  It
        must be a C-contiguous array of at least ``size`` entries whose
        dtype is the field's C type; a refused array binds nothing."""
        item = self.ffi.typeof(getattr(self.ctx, field)).item
        dtype = _REQUIRED_DTYPE.get(field, array.dtype)
        if (array.dtype != dtype or dtype not in _CTYPES
                or self.ffi.typeof(_CTYPES[dtype]).item != item
                or not array.flags.c_contiguous or array.size < size):
            raise RuntimeError(
                f"kernel buffer {field!r} is not a C-contiguous "
                f"{_REQUIRED_DTYPE.get(field, item.cname)} array of at "
                f"least {size} entries")
        setattr(self.ctx, field, self.ffi.from_buffer(_CTYPES[dtype], array))
        self._bound[field] = array

    def check_rows(self, rows: np.ndarray) -> None:
        if rows.size and not (0 <= rows.min()
                              and rows.max() < self.ctx.vertex_cap):
            raise RuntimeError("dense vertex row outside the bound tables")

    def array(self, field: str) -> np.ndarray:
        return self._bound[field]

    def pointer(self, array: np.ndarray):
        """``array`` as a kernel argument (``NULL`` when empty)."""
        if not array.size:
            return self.ffi.NULL
        return self.ffi.from_buffer(_CTYPES[array.dtype], array)

    def resize(self, fields: FieldSpec, cap_field: str, capacity: int,
               keep: bool = True) -> None:
        """Reallocate one capacity group at ``capacity`` and rebind it;
        ``keep`` carries the old contents over."""
        for field, (dtype, width, fill) in fields.items():
            array = np.full(capacity * width, fill, dtype=dtype)
            if keep and field in self._bound:
                old = self.array(field)
                array[:old.size] = old
            self.bind(field, array, capacity * width)
        setattr(self.ctx, cap_field, capacity)

    def sync_state(self) -> None:
        """Bring the context up to date with the partition state: rebind
        each of its four tables that is not the array bound (the state
        reallocated it while interning; :meth:`bind` validates it),
        regrow the per-vertex arrays to the row capacity, and copy in
        the scalars the kernels mirror."""
        state = self.state
        ctx = self.ctx
        replicas = state.replica_matrix()
        capacity = replicas.shape[0]
        if capacity != ctx.vertex_cap:
            self.resize(self.vertex_fields, "vertex_cap", capacity)
        for field, array, size in (
                ("replicas", replicas, capacity * ctx.k),
                ("row_version", state.row_version_array(), capacity),
                ("deg", state.degrees_dense(), capacity),
                ("sizes", state.sizes_vector(), ctx.k)):
            if self._bound.get(field) is not array:
                self.bind(field, array, size)
        ctx.max_degree = state.max_degree
        ctx.max_size = state.max_size
        ctx.min_size = state.min_size
        ctx.assigned_edges = state.assigned_edges

    # ------------------------------------------------------------------
    # One transaction: stage, call, absorb
    # ------------------------------------------------------------------
    def stage(self, ends: np.ndarray) -> np.ndarray:
        """Ready the context for a transaction over the edges ``ends``
        (an ``(n, 2)`` int64 array of canonical ``(lo, hi)`` ids, in
        stream order); returns their dense rows, interleaved."""
        ctx = self.ctx
        pairs = self.state.dense_rows(ends.ravel())
        ctx.consumed = ctx.n_out = ctx.n_changed = 0
        self.sync_state()
        self.check_rows(pairs)
        return pairs

    def call(self, function, *args,
             grow: Optional[Mapping[int, Callable[[], None]]] = None) -> int:
        """Run one kernel entry to a final status.  A full output list
        is doubled here; any other ``KERN_NEED_*`` status goes to the
        caller's ``grow`` handler for it; then the entry is called again
        with the same arguments."""
        ctx = self.ctx
        need_out = self.lib.KERN_NEED_OUT
        grow = grow or {}
        while True:
            self.kernel_calls += 1
            entered = perf_counter_ns()
            status = function(ctx, *args)
            self.kernel_ns += perf_counter_ns() - entered
            if status == need_out:
                self.resize(_OUT_FIELDS, "out_cap", 2 * ctx.out_cap)
            elif status in grow:
                grow[status]()
            else:
                return status

    def out_partitions(self, n: int) -> np.ndarray:
        """The first ``n`` ``out_col`` entries as partition ids."""
        return self._spread[self.array("out_col")[:n]]

    def absorb(self) -> None:
        """Hand the state the scalars this transaction kept while it
        updated the state's tables in place."""
        ctx = self.ctx
        self.state.absorb_pump(ctx.assigned_edges, ctx.max_degree,
                               ctx.max_size, ctx.min_size)
