"""Shared helpers of the kernel differential suites."""


def result_tuple(result):
    """What any partitioner's bit-identity contract covers, as one
    value: ordered assignments, quality, simulated latency, score counts
    and extras."""
    return (list(result.assignments.items()), result.replication_degree,
            result.imbalance, result.latency_ms, result.score_computations,
            result.extras)


def outcome(partitioner, result):
    """Everything ADWISE's bit-identity contract covers: the result
    tuple (extras: window sizes, promotions, final λ) and the adaptive
    controller's decision trace."""
    events = [(e.assignments, e.window_before, e.window_after, e.decision,
               e.block_avg_score, e.at_ms)
              for e in partitioner.controller.events]
    return result_tuple(result) + (events,)
