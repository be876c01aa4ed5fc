"""The compiled pump's work tallies, pinned.

Marked validity (DESIGN.md §14 "Marked validity") decides which window
slots the pump *reads keys of*, never what it does to a slot: a clean
slot is one whose keys all hold, so skipping their reads changes no
rescore, no recomputation, no re-assembly and no charge.  This module
holds every ``stat_*`` tally, the promotions, the clock's charge and a
digest of the decisions equal to the values the pump read before the
marks existed (pull validity: every key read on every visit), on streams
aimed at each mark site:

* the benchmark graph (``job-adwise``'s input and window);
* a hub-heavy stream in adjacency order at w ∈ {8, 256, 2048}, where an
  assignment's changed rows reach most of the window in two hops;
* a star interleaved with unrelated edges, where ``max_degree`` rises
  on every star admit and so stales slots that share no vertex with it;
* self-loops (one incidence node per slot);
* k ∈ {1, 9, 65};
* clustering off, lazy promotion off, an adaptive window (one pump call
  per controller block: a re-entry every block);
* a state changed between pumps through ``partition_edge``, which
  only the re-mark at ``kern_pump``'s entry can see.

A missing mark lets a stale memo stand, which moves scores and with
them these numbers; the bit-identity against the reference tier is
``tests/test_kbest_agenda.py``'s.
"""

import hashlib

import numpy as np
import pytest

from repro.core import _kernels
from repro.core.adwise import AdwisePartitioner
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Edge
from repro.graph.stream import shuffled

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")

TALLIES = ("stat_refills", "stat_pops", "stat_rescored_slots",
           "stat_assembled", "stat_rep_recomputed", "stat_cs_recomputed",
           "stat_agenda_inserts", "stat_agenda_removes",
           "stat_agenda_rescores", "stat_agenda_scanned", "promotions")
FIELDS = TALLIES + ("score_computations", "assignments", "latency_ms",
                    "decisions")


def pairs_of(edges):
    return [(edge.u, edge.v) for edge in edges]


def bench_stream():
    """``job-adwise``'s input at seed 1: 24,000 edges."""
    graph = powerlaw_cluster_graph(n=1024, m=24, p=0.5, seed=1)
    return pairs_of(shuffled(graph.edges(), seed=3).edges)


def hub_stream():
    """A power-law graph one vertex's edges after another's: the hubs'
    edges fill the window together."""
    return pairs_of(powerlaw_cluster_graph(n=900, m=6, p=0.5,
                                           seed=4).edges())


def small_stream():
    return pairs_of(shuffled(powerlaw_cluster_graph(
        n=300, m=5, p=0.5, seed=6).edges(), seed=8).edges)


def star_stream():
    """Spokes of vertex 0, every third edge one between two fresh
    vertices: the hub's degree is the maximum and rises on every star
    admit."""
    pairs = []
    for i in range(1, 1201):
        pairs.append((0, i))
        if i % 2 == 0:
            pairs.append((5000 + i, 5001 + i))
    return pairs


def loop_stream():
    rng = np.random.default_rng(9)
    ends = rng.integers(0, 40, size=(1500, 2))
    loops = rng.random(1500) < 0.3
    ends[loops, 1] = ends[loops, 0]
    return [tuple(row) for row in ends.tolist()]


#: name -> (stream, k, partitioner knobs, seeded replicas, ingest batch,
#: edges handed to ``partition_edge`` after each batch)
CASES = {
    "bench": (bench_stream, 32, dict(fixed_window=256), False, 256, 0),
    "hub-w8": (hub_stream, 16, dict(fixed_window=8), True, 256, 0),
    "hub-w256": (hub_stream, 16, dict(fixed_window=256), True, 256, 0),
    "hub-w2048": (hub_stream, 16, dict(fixed_window=2048), True, 256, 0),
    "star": (star_stream, 8, dict(fixed_window=64), True, 128, 0),
    "self-loops": (loop_stream, 8, dict(fixed_window=32), False, 100, 0),
    "k1": (small_stream, 1, dict(fixed_window=64), True, 256, 0),
    "k9": (small_stream, 9, dict(fixed_window=64), True, 256, 0),
    "k65": (small_stream, 65, dict(fixed_window=64), True, 256, 0),
    "no-clustering": (small_stream, 8,
                      dict(fixed_window=64, use_clustering=False), True,
                      256, 0),
    "eager": (small_stream, 8, dict(fixed_window=64, lazy=False), True,
              256, 0),
    "adaptive": (small_stream, 8, dict(latency_preference_ms=40.0), True,
                 256, 0),
    "partition-edge": (small_stream, 8, dict(fixed_window=96), True, 64, 3),
}


def measure(name):
    """Run case ``name`` on the compiled tier; its tallies, clock charge
    and decision digest."""
    stream, k, knobs, seeded, batch, singles = CASES[name]
    pairs = stream()
    partitioner = AdwisePartitioner(range(k), **knobs)
    if seeded:  # every stream vertex starts with a replica somewhere
        vertices = sorted({x for pair in pairs for x in pair})
        for i, x in enumerate(vertices[::3]):
            partitioner.state.assign(Edge(x, 100_000 + i), (x * 7) % k)
    partitioner.begin(total_edges=len(pairs))
    for start in range(0, len(pairs), batch):
        partitioner.ingest(pairs[start:start + batch])
        for i in range(singles):  # between pumps, past the window
            u = pairs[(start * 7 + 13 * i) % len(pairs)][0]
            partitioner.partition_edge(Edge(u, 200_000 + start + i))
    result = partitioner.finalize()
    window, clock = partitioner.window, partitioner.clock
    seen = {tally: getattr(window, tally) for tally in TALLIES}
    seen["score_computations"] = clock.score_computations
    seen["assignments"] = clock.assignments
    seen["latency_ms"] = clock.now()
    seen["decisions"] = hashlib.sha256(
        result.assignments.triples().tobytes()).hexdigest()[:16]
    return seen


#: What each case read with pull validity, in ``FIELDS`` order — except
#: "self-loops"' ``stat_assembled``, 18046 where pull validity read
#: 18050: that stream once ran out of neighbourhood arena in mid-pop, and
#: the re-entry's mark-all re-assembled four slots.  The pump has no
#: such re-entry any more.
PINNED = {
    "adaptive": (
        1475, 1475, 3021, 1841, 426, 234, 1475, 1475, 703, 3039, 421,
        37032, 1475, 39.982000000000006, "858b625410eda483"),
    "bench": (
        24000, 24000, 760657, 146384, 24330, 16919, 24000, 24000, 23815,
        767295, 5176, 25112096, 24000, 25160.096, "4a0f793640dcfe34"),
    "eager": (
        1475, 1475, 90909, 43433, 7592, 3504, 1475, 1475, 1474, 92384, 0,
        739072, 1475, 742.022, "9a3ef83cd495d0fc"),
    "hub-w2048": (
        5364, 5364, 281722, 96720, 25244, 41368, 5364, 5364, 5348, 262466,
        4474, 4593456, 5364, 4604.184, "34e221c65b9189fe"),
    "hub-w256": (
        5364, 5364, 237818, 92612, 25549, 34856, 5364, 5364, 5343, 233457,
        2753, 3891168, 5364, 3901.896, "682a05ad71c05b6e"),
    "hub-w8": (
        5364, 5364, 12529, 9016, 5954, 6477, 5364, 5364, 2465, 9791, 1773,
        303824, 5364, 314.552, "5e3dfdd974cbdd1f"),
    "k1": (
        1475, 1475, 66557, 66557, 5536, 2914, 1475, 1475, 1474, 67925, 107,
        68032, 1475, 70.982, "9abce73b1f8c9bd5"),
    "k65": (
        1475, 1475, 47432, 32836, 4783, 3011, 1475, 1475, 1445, 47760, 350,
        3179930, 1475, 3182.88, "b2e46d580926bf9a"),
    "k9": (
        1475, 1475, 40315, 20125, 3707, 2058, 1475, 1475, 1467, 41464, 259,
        376110, 1475, 379.06, "9a808afd0f7a6efa"),
    "no-clustering": (
        1475, 1475, 47798, 22684, 4688, 0, 1475, 1475, 1467, 48975, 206,
        394184, 1475, 397.134, "a997ecf0e7037abb"),
    "partition-edge": (
        1475, 1475, 55660, 31064, 5190, 2995, 1475, 1475, 1464, 56638, 365,
        457656, 1547, 460.75, "06a981c0b757d922"),
    "self-loops": (
        1500, 1500, 21213, 18046, 3135, 3956, 1500, 1500, 1490, 22454, 198,
        181752, 1500, 184.752, "241960138b44c0b6"),
    "star": (
        1800, 1800, 16652, 16247, 11045, 11237, 1800, 1800, 1358, 17127,
        165, 147688, 1800, 151.288, "f0d83301074fb667"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tallies_are_pinned(name):
    assert measure(name) == dict(zip(FIELDS, PINNED[name]))
