"""Fig. 7d reproduction: subgraph isomorphism (cycle search) on Brain.

The paper searches Brain consecutively for circles of path lengths 19, 15
and 21 with a communication- and computation-heavy message-passing
algorithm, and finds a clear sweet spot for ADWISE (L = 281s), reducing
total latency by 23% vs HDRF and 37% vs DBH.  Each "block" here is one
full three-cycle-length search, executed for real on the BSP engine.
"""

from _common import adwise_rows, emit, standard_configs, stream_factory

from repro.bench.harness import stacked_latency_experiment
from repro.bench.reporting import format_stacked_rows, summarize_winner
from repro.bench.workloads import BRAIN
from repro.engine.algorithms import CycleSearch
from repro.engine.vertex_program import Context, VertexProgram

CYCLE_LENGTHS = (19, 15, 21)
BLOCKS = 3


class ConsecutiveCycleSearch(VertexProgram):
    """Run the paper's three cycle searches back to back in one program.

    Phases are separated by a two-superstep gap so residual path messages
    from one search drain before the next begins (a message with the wrong
    step count must not be misread as a found cycle).  Vertices stay active
    until the last phase has started so each phase's seeds fire.
    """

    name = "subgraph_isomorphism"

    def __init__(self, seeds, seed=0):
        self._phases = [CycleSearch(length, seeds, fanout=2,
                                    forward_probability=0.7,
                                    seed=seed + i)
                        for i, length in enumerate(CYCLE_LENGTHS)]
        self._starts = []
        start = 0
        for length in CYCLE_LENGTHS:
            self._starts.append(start)
            start += length + 2
        self._end = start

    @property
    def total_supersteps(self):
        return self._end

    def initial_state(self, vertex, degree):
        return 0

    def compute(self, vertex, state, messages, neighbors, ctx):
        # Dispatch this superstep to the phase whose window contains it;
        # messages landing in a gap step are dropped (drained).
        for program, start in zip(self._phases, self._starts):
            local_step = ctx.superstep - start
            if 0 <= local_step <= program.cycle_length:
                sub_ctx = Context(local_step, ctx.num_vertices)
                state = program.compute(vertex, state, messages,
                                        neighbors, sub_ctx)
                for target, message in sub_ctx.outbox:
                    ctx.send(target, message)
                break
        if ctx.superstep >= self._starts[-1]:
            ctx.vote_halt()
        return state


def make_program(graph):
    seeds = sorted(graph.vertices())[::17][:60]
    return ConsecutiveCycleSearch(seeds, seed=5)


def run_experiment():
    graph = BRAIN.build()
    configs = standard_configs(BRAIN)
    total_steps = sum(length + 2 for length in CYCLE_LENGTHS) + 2
    return stacked_latency_experiment(
        graph, stream_factory(BRAIN), configs,
        workload="subgraph_isomorphism",
        block_iterations=total_steps, num_blocks=BLOCKS,
        # Cycle search ships no dense kernel: the harness's dense engine
        # falls back to the object path (the kernel-or-fallback contract).
        program_factory=make_program,
        enforce_balance=False)


def test_fig7d_subgraph_isomorphism_brain(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report = format_stacked_rows(
        rows,
        title="Fig. 7d: subgraph isomorphism on Brain (cycles 19/15/21)",
        num_blocks=BLOCKS)
    report += "\n" + summarize_winner(rows, BLOCKS)
    emit("fig7d_subgraph_brain", report)

    by = {r.label: r for r in rows}
    sweep = adwise_rows(rows)
    best_adwise = min(sweep, key=lambda r: r.total_after_blocks(BLOCKS))
    # ADWISE's sweet spot beats both baselines (paper: 23% / 37%).
    assert (best_adwise.total_after_blocks(BLOCKS)
            <= by["HDRF"].total_after_blocks(BLOCKS))
    assert (best_adwise.total_after_blocks(BLOCKS)
            < by["DBH"].total_after_blocks(BLOCKS))
    # The largest latency preference must NOT be the sweet spot ("higher
    # settings of L ... do not pay off in terms of total latency") unless
    # its partitioning latency is already amortised; assert the sweet spot
    # is not strictly improved by the maximal-L configuration.
    assert (best_adwise.total_after_blocks(BLOCKS)
            <= sweep[-1].total_after_blocks(BLOCKS))
