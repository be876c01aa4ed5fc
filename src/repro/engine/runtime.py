"""The BSP engine: superstep loop, message routing, latency simulation.

Runs a :class:`~repro.engine.vertex_program.VertexProgram` over a logical
:class:`~repro.graph.Graph` while charging simulated latency from a
:class:`~repro.engine.cost.CostModel` applied to the partitioning's
:class:`~repro.engine.placement.Placement`.  Superstep semantics follow
Pregel: all vertices start active; a vertex deactivates by voting to halt
and reactivates when it receives a message; execution stops when no vertex
is active and no messages are in flight, or after ``max_supersteps``.

Two execution backends share those semantics:

* ``mode="object"`` — the reference interpreter: one ``compute`` call per
  active vertex per superstep over dict/set state.
* ``mode="dense"`` — vectorized: supersteps run as whole-frontier numpy
  operations over a :class:`~repro.graph.csr.CSRGraph` when the program
  provides a :meth:`~repro.engine.vertex_program.VertexProgram.dense_kernel`;
  programs without one transparently fall back to the object path.
  Results are equivalent by construction (the differential test layer
  asserts it) and latency is charged from the same ``active_fraction``,
  so both modes produce identical cost traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro import obs
from repro.graph.graph import Graph
from repro.graph.csr import CSRGraph
from repro.engine.cost import CostModel, SuperstepCost
from repro.engine.placement import Placement
from repro.engine.vertex_program import Context, VertexProgram

#: Engine execution backends.
MODES = ("object", "dense")


@dataclass
class SimulationReport:
    """Result of one engine run."""

    algorithm: str
    supersteps: int
    latency_ms: float
    superstep_costs: List[SuperstepCost]
    states: Dict[int, Any]
    messages_sent: int
    converged: bool
    #: One entry per superstep (``None`` where the program has no aggregate).
    aggregates: List[Any] = field(default_factory=list)


class Engine:
    """Deterministic BSP executor with placement-driven latency."""

    def __init__(self, graph: Graph, placement: Placement,
                 cost_model: Optional[CostModel] = None,
                 mode: str = "object") -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
        self.graph = graph
        self.placement = placement
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.mode = mode
        self._stats = placement.stats()
        self._object_neighbors: Optional[Dict[int, List[int]]] = None
        self._csr: Optional[CSRGraph] = None

    @property
    def csr(self) -> CSRGraph:
        """CSR snapshot of the graph (built once, on first dense run)."""
        if self._csr is None:
            self._csr = CSRGraph.from_graph(self.graph)
        return self._csr

    @property
    def _neighbors(self) -> Dict[int, List[int]]:
        """Adjacency snapshot for the object path (vertex programs receive
        plain sorted lists).  Lazy, so pure dense-kernel runs never pay
        for the dict-of-lists representation."""
        if self._object_neighbors is None:
            self._object_neighbors = {
                v: sorted(self.graph.neighbors(v))
                for v in self.graph.vertices()}
        return self._object_neighbors

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram,
            max_supersteps: int = 100) -> SimulationReport:
        """Execute ``program`` until convergence or ``max_supersteps``."""
        if max_supersteps < 1:
            raise ValueError("max_supersteps must be >= 1")
        if (self.mode == "dense"
                and type(program).dense_kernel
                is not VertexProgram.dense_kernel):
            kernel = program.dense_kernel(self.csr)
            if kernel is not None:
                return self._run_dense(program, kernel, max_supersteps)
            # No kernel after all: fall through to the object path.
        return self._run_object(program, max_supersteps)

    def _run_object(self, program: VertexProgram,
                    max_supersteps: int) -> SimulationReport:
        """Reference interpreter: one ``compute`` call per active vertex."""
        known = self._neighbors
        vertices = list(known)
        num_vertices = len(vertices)
        compute = program.compute
        states: Dict[int, Any] = {
            v: program.initial_state(v, len(known[v])) for v in vertices}
        # A program opts into combining by overriding the hook.
        use_combiner = type(program).combine is not VertexProgram.combine
        active: Set[int] = set(vertices)
        inbox: Dict[int, List[Any]] = {}
        costs: List[SuperstepCost] = []
        aggregates: List[Any] = []
        total_messages = 0
        converged = False
        superstep = 0
        while superstep < max_supersteps:
            if not active and not inbox:
                converged = True
                break
            compute_set = active | set(inbox)
            next_inbox: Dict[int, List[Any]] = {}
            next_active: Set[int] = set()
            sent_this_step = 0
            aggregate: Any = None
            # One recycled Context per superstep (``Context._reset``)
            # instead of an allocation per vertex.
            ctx = Context(superstep, num_vertices)
            with obs.span("engine.superstep", mode="object",
                          program=program.name, superstep=superstep,
                          active=len(compute_set)):
                for vertex in compute_set:
                    messages = inbox.get(vertex, [])
                    states[vertex] = compute(
                        vertex, states[vertex], messages, known[vertex], ctx)
                    outbox = ctx.outbox
                    for target, message in outbox:
                        if target not in known:
                            raise KeyError(
                                f"message to unknown vertex {target} "
                                f"from {vertex}")
                        if use_combiner:
                            if target in next_inbox:
                                next_inbox[target][0] = program.combine(
                                    next_inbox[target][0], message)
                            else:
                                next_inbox[target] = [message]
                        else:
                            next_inbox.setdefault(target, []).append(message)
                    sent_this_step += len(outbox)
                    if not ctx.halted:
                        next_active.add(vertex)
                    contribution = program.aggregate(vertex, states[vertex])
                    if contribution is not None:
                        aggregate = (contribution if aggregate is None
                                     else aggregate + contribution)
                    ctx._reset()
            obs.counter("repro_engine_supersteps_total",
                        mode="object", program=program.name).inc()
            obs.counter("repro_engine_messages_total", mode="object",
                        program=program.name).inc(sent_this_step)
            active_fraction = (len(compute_set) / num_vertices
                               if num_vertices else 0.0)
            costs.append(self.cost_model.superstep_cost(
                self._stats, active_fraction))
            aggregates.append(aggregate)
            total_messages += sent_this_step
            inbox = next_inbox
            active = next_active
            superstep += 1
            if program.should_stop(aggregate, superstep):
                converged = True
                break
        else:
            converged = not active and not inbox
        return SimulationReport(
            algorithm=program.name,
            supersteps=len(costs),
            latency_ms=sum(c.total_ms for c in costs),
            superstep_costs=costs,
            states=states,
            messages_sent=total_messages,
            converged=converged,
            aggregates=aggregates,
        )

    def _run_dense(self, program: VertexProgram, kernel,
                   max_supersteps: int) -> SimulationReport:
        """Vectorized loop: one ``DenseKernel.step`` per superstep.

        Mirrors ``_run_object`` exactly — compute set, activation,
        convergence, message counting and the ``active_fraction`` the cost
        model is charged from — so the two backends differ only in how a
        superstep's per-vertex work is executed.
        """
        num_vertices = self.csr.num_vertices
        costs: List[SuperstepCost] = []
        aggregates: List[Any] = []
        total_messages = 0
        converged = False
        superstep = 0
        while superstep < max_supersteps:
            mask = kernel.compute_mask()
            computed = int(mask.sum())
            if computed == 0:
                converged = True
                break
            with obs.span("engine.superstep", mode="dense",
                          program=program.name, superstep=superstep,
                          active=computed):
                sent, aggregate = kernel.step(superstep, mask)
            obs.counter("repro_engine_supersteps_total",
                        mode="dense", program=program.name).inc()
            obs.counter("repro_engine_messages_total",
                        mode="dense", program=program.name).inc(int(sent))
            active_fraction = (computed / num_vertices
                               if num_vertices else 0.0)
            costs.append(self.cost_model.superstep_cost(
                self._stats, active_fraction))
            aggregates.append(aggregate)
            total_messages += int(sent)
            superstep += 1
            if program.should_stop(aggregate, superstep):
                converged = True
                break
        else:
            converged = not kernel.compute_mask().any()
        return SimulationReport(
            algorithm=program.name,
            supersteps=len(costs),
            latency_ms=sum(c.total_ms for c in costs),
            superstep_costs=costs,
            states=kernel.states(),
            messages_sent=total_messages,
            converged=converged,
            aggregates=aggregates,
        )

    # ------------------------------------------------------------------
    # Analytic shortcut for stationary workloads
    # ------------------------------------------------------------------
    def stationary_latency_ms(self, iterations: int,
                              active_fraction: float = 1.0) -> float:
        """Latency of ``iterations`` identical supersteps (e.g. PageRank).

        Equivalent to running a stationary program for ``iterations``
        supersteps but O(1): used by the benchmark harness so that the
        paper's 100-iteration PageRank blocks stay cheap in pure Python.
        """
        return self.cost_model.iterations_cost_ms(
            self.placement, iterations, active_fraction)
