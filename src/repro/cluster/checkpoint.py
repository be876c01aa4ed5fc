"""Shard-level checkpoints for the cluster runtime.

A checkpoint is taken at a **superstep boundary** — after a superstep's
compute and replica sync have both completed, before the next superstep's
masks are computed.  At that point every replica of every vertex holds
the combined (globally consistent) value and no sync payload is in
flight, so the kernel states alone are a consistent cut of the
whole computation: restoring them and replaying from the boundary
reproduces the unfaulted run bit-for-bit (the PR-2 ``StateSnapshot``
idiom, applied to execution state instead of partitioner state).

A :class:`CheckpointState` carries

* ``cursor`` — the number of completed supersteps;
* ``shard_states`` — per-partition kernel state dicts (a host's one
  kernel cut by ``ShardGroup.snapshot`` into each partition's slice of
  every per-vertex array, copied, plus every other attribute), keyed by
  **partition** rather than machine so the same checkpoint restores onto
  any machine layout — ``ShardGroup.restore`` concatenates whichever
  partitions a host holds — the property that lets
  :meth:`~repro.cluster.runtime.ClusterEngine.resume` restart a run on
  another backend or worker count;
* ``progress`` — the coordinator-side superstep trail (costs,
  aggregates, telemetry, message totals) so a resumed report is
  indistinguishable from an uninterrupted one;
* ``fingerprint`` — the :meth:`~repro.graph.shard.ShardedGraph.
  fingerprint` of the sharding it was taken from, verified on restore.

:class:`CheckpointStore` persists checkpoints under a directory —
``topology.pkl`` (the sharded graph, program and engine configuration,
written once per run) plus ``ckpt_<cursor>.pkl`` files, all written
atomically (temp file + ``os.replace``) so a crash mid-write can never
corrupt the latest restorable state.  ``ClusterEngine.resume(path)``
needs nothing else.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RecoveryEvent:
    """One detected failure and the rollback that answered it."""

    #: Machine whose death was detected.
    machine: int
    #: Human-readable detection reason (exit code, timeout, injector).
    reason: str
    #: Superstep cursor when the death was detected.
    superstep_detected: int
    #: Checkpoint cursor execution rolled back to.
    resumed_from: int
    #: Wall-clock of the rollback itself (teardown + respawn + restore).
    wall_ms: float

    @property
    def supersteps_lost(self) -> int:
        """Completed supersteps that must be replayed."""
        return self.superstep_detected - self.resumed_from


@dataclass
class CheckpointState:
    """A consistent cut of a cluster run at a superstep boundary."""

    cursor: int
    shard_states: Dict[int, Dict[str, Any]]
    progress: Dict[str, Any]
    fingerprint: str = ""


def _atomic_pickle(path: str, payload: Any) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def _read_pickle(path: str) -> Any:
    with open(path, "rb") as handle:
        return pickle.load(handle)


class CheckpointStore:
    """Directory-backed checkpoint persistence with atomic writes."""

    TOPOLOGY = "topology.pkl"
    PREFIX = "ckpt_"
    SUFFIX = ".pkl"

    def __init__(self, directory: str, create: bool = True) -> None:
        self.directory = str(directory)
        if create:
            os.makedirs(self.directory, exist_ok=True)
        elif not os.path.isdir(self.directory):
            raise FileNotFoundError(
                f"checkpoint directory not found: {self.directory}")

    # -- topology (written once per run) --------------------------------
    def write_topology(self, payload: Dict[str, Any]) -> str:
        path = os.path.join(self.directory, self.TOPOLOGY)
        _atomic_pickle(path, payload)
        return path

    def read_topology(self) -> Dict[str, Any]:
        path = os.path.join(self.directory, self.TOPOLOGY)
        if not os.path.isfile(path):
            raise FileNotFoundError(f"no run topology in {self.directory}")
        return _read_pickle(path)

    # -- checkpoints ----------------------------------------------------
    def _path(self, cursor: int) -> str:
        return os.path.join(self.directory,
                            f"{self.PREFIX}{cursor:06d}{self.SUFFIX}")

    def write(self, state: CheckpointState) -> str:
        path = self._path(state.cursor)
        _atomic_pickle(path, state)
        return path

    def cursors(self) -> List[int]:
        """Cursors of every stored checkpoint, ascending."""
        found = []
        for name in os.listdir(self.directory):
            if name.startswith(self.PREFIX) and name.endswith(self.SUFFIX):
                middle = name[len(self.PREFIX):-len(self.SUFFIX)]
                if middle.isdigit():
                    found.append(int(middle))
        return sorted(found)

    def load(self, cursor: int) -> CheckpointState:
        return _read_pickle(self._path(cursor))

    def latest(self) -> Optional[CheckpointState]:
        """The checkpoint with the highest cursor, or ``None``."""
        cursors = self.cursors()
        if not cursors:
            return None
        return self.load(cursors[-1])


#: Progress-dict keys a checkpoint carries (one place, so capture and
#: restore can never drift).
PROGRESS_KEYS = ("costs", "aggregates", "telemetry", "messages")


def capture_progress(costs: List[Any], aggregates: List[Any],
                     telemetry: List[Any], messages: int) -> Dict[str, Any]:
    return {"costs": list(costs), "aggregates": list(aggregates),
            "telemetry": list(telemetry), "messages": int(messages)}
