"""Decision audit log: a bounded ring of recent partitioning decisions.

Every assignment the daemon emits for a tenant is appended here with a
monotonically increasing sequence number, so an operator (or a test) can
ask "what did the partitioner just decide, and in what order?" without
the daemon retaining the unbounded full history.  ``tail(n)`` returns
the most recent ``n`` records oldest-first; ``dropped`` says how many
older records the ring has already forgotten.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

import numpy as np


@dataclass(frozen=True)
class AuditRecord:
    """One partitioning decision, as the audit trail remembers it."""

    seq: int
    u: int
    v: int
    partition: int

    def to_dict(self) -> dict:
        return {"seq": self.seq, "u": self.u, "v": self.v,
                "partition": self.partition}


class DecisionLog:
    """Fixed-capacity ring of recent decisions, kept as the column
    batches the partitioner emitted: :meth:`record_batch` stores one
    ``(first seq, u, v, partition)`` slice per ingest batch and
    :class:`AuditRecord` objects exist only in what :meth:`tail` returns.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: ``(first seq, u, v, partition)`` per batch, oldest first; the
        #: oldest may reach back past the ring (trimmed when read).
        self._batches: Deque[Tuple[int, np.ndarray, np.ndarray,
                                   np.ndarray]] = deque()
        self._next_seq = 0

    def __len__(self) -> int:
        return min(self._next_seq, self.capacity)

    @property
    def total_recorded(self) -> int:
        """Decisions ever appended (including ones the ring dropped)."""
        return self._next_seq

    @property
    def dropped(self) -> int:
        return self._next_seq - len(self)

    def record_batch(self, u: np.ndarray, v: np.ndarray,
                     partition: np.ndarray) -> None:
        """Append the decisions ``(u[i], v[i]) -> partition[i]``."""
        if not len(partition):
            return
        self._batches.append((self._next_seq, u, v, partition))
        self._next_seq += len(partition)
        # Drop batches that lie wholly before the ring's oldest record.
        oldest = self._next_seq - self.capacity
        while self._batches[0][0] + len(self._batches[0][3]) <= oldest:
            self._batches.popleft()

    def tail(self, count: int) -> List[AuditRecord]:
        """The most recent ``count`` records, oldest-first."""
        first = self._next_seq - min(max(count, 0), len(self))
        records: List[AuditRecord] = []
        for start, u, v, partition in self._batches:
            skip = max(0, first - start)
            records.extend(map(
                AuditRecord, range(start + skip, start + len(partition)),
                u[skip:].tolist(), v[skip:].tolist(),
                partition[skip:].tolist()))
        return records
