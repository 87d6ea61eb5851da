"""Packet-to-worker routing: pure bookkeeping, no processes.

The dispatcher sees every worker as a :class:`WorkerState` — parent-side
pending queue, in-flight set, per-slot counters — and picks a slot for
each incoming packet.  It is deliberately process-free so scheduling
policies are unit-testable without spawning anything;
:class:`repro.fabric.fabric.Fabric` owns the actual pipes and processes.

Policies
--------
``round_robin``
    Cycle through the worker slots, skipping full or dead ones.
``least_loaded``
    Pick the alive worker with the smallest load (pending + in-flight),
    lowest index on ties.

Neither policy looks at the packet's shape: every worker runs the same
linked region programs for every shape, and queued packets of any
shapes coalesce into one batch-drain dispatch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Sequence

#: The routing policies :class:`Dispatcher` accepts.
POLICIES = ("round_robin", "least_loaded")


@dataclass
class FabricTask:
    """One submitted packet travelling through the fabric."""

    task_id: int
    rx: object  # (2, n_samples) complex ndarray (opaque to the dispatcher)
    submit_t: float
    deadline_t: Optional[float] = None
    #: Times this task was re-queued after a worker crash.
    requeues: int = 0


@dataclass
class WorkerState:
    """Dispatcher-visible view of one worker slot."""

    index: int
    queue_depth: int
    pending: Deque[FabricTask] = field(default_factory=deque)
    inflight: Dict[int, FabricTask] = field(default_factory=dict)
    alive: bool = True
    stopping: bool = False
    # -- per-slot counters (survive respawns of the same slot) ---------
    completed: int = 0
    crashes: int = 0
    busy_s: float = 0.0
    spinup_s: Optional[float] = None
    spinup_schedule_misses: Optional[int] = None
    spinup_codegen_compilations: Optional[int] = None
    #: Batch-drain dispatches sent to this slot, and the tasks they
    #: carried (occupancy = batched_tasks / (batches * fabric batch)).
    batches: int = 0
    batched_tasks: int = 0
    pid: Optional[int] = None
    # -- liveness: the slot's one heartbeat record, parent-side -------
    #: Parent monotonic clock at the last heartbeat; spawn stamps it
    #: (spawn counts as the first beat), and so does every heartbeat.
    last_heartbeat_ts: float = 0.0
    #: Flagged stuck by the watchdog this silent incident; a beat or a
    #: respawn re-arms it.
    flagged: bool = False
    #: Heartbeats received across all incarnations of this slot.
    heartbeats: int = 0
    #: Tasks the worker reported completed in its last heartbeat.
    hb_task_seq: Optional[int] = None
    #: Cumulative simulated cycles per the last heartbeat.
    hb_host_cycles: int = 0
    #: Worker resident set size per the last heartbeat.
    hb_rss_bytes: int = 0
    #: Cumulative per-cause stall cycles per the last heartbeat.
    hb_stall_causes: Dict[str, int] = field(default_factory=dict)

    def clear_heartbeat(self, now: float) -> None:
        """Re-arm the slot for a new incarnation spawned at *now*:
        forget the dead one's beat payload and flag."""
        self.last_heartbeat_ts = now
        self.flagged = False
        self.hb_task_seq = None
        self.hb_host_cycles = 0
        self.hb_rss_bytes = 0
        self.hb_stall_causes = {}

    @property
    def load(self) -> int:
        """Packets this slot is responsible for right now."""
        return len(self.pending) + len(self.inflight)

    @property
    def has_capacity(self) -> bool:
        return self.alive and not self.stopping and self.load < self.queue_depth

    def assign(self, task: FabricTask) -> None:
        self.pending.append(task)


class Dispatcher:
    """Select a worker slot for each packet under one routing policy."""

    def __init__(self, policy: str = "round_robin") -> None:
        if policy not in POLICIES:
            raise ValueError(
                "unknown dispatch policy %r; expected one of %s" % (policy, list(POLICIES))
            )
        self.policy = policy
        self._rr_next = 0

    def select(self, workers: Sequence[WorkerState]) -> Optional[WorkerState]:
        """The slot for the next packet, or ``None`` when all are full.

        ``None`` is the backpressure signal: the fabric then blocks,
        drops or deadline-rejects according to its submission mode.
        """
        eligible = [w for w in workers if w.has_capacity]
        if not eligible:
            return None
        if self.policy == "round_robin":
            n = len(workers)
            for step in range(n):
                candidate = workers[(self._rr_next + step) % n]
                if candidate.has_capacity:
                    self._rr_next = (candidate.index + 1) % n
                    return candidate
            return None  # unreachable: eligible is non-empty
        return min(eligible, key=lambda w: (w.load, w.index))

    @staticmethod
    def requeue_select(workers: Sequence[WorkerState]) -> Optional[WorkerState]:
        """Where a crash-orphaned packet goes: capacity limits waived.

        Requeued packets must not be shed — they were already accepted —
        so the bounded-queue check is intentionally skipped; the alive
        slot with the smallest load wins.
        """
        alive = [w for w in workers if w.alive and not w.stopping]
        if not alive:
            return None
        return min(alive, key=lambda w: (w.load, w.index))
