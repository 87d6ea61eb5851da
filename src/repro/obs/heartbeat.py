"""Worker heartbeats and the watchdog that watches them.

A fabric worker that is *busy* is healthy; a worker that is *stuck*
(deadlocked, SIGSTOPped, swapping itself to death) looks exactly the
same from the parent's pump loop — no results, no EOF, live sentinel.
Heartbeats break the tie: each worker runs a small daemon thread that
periodically sends :func:`heartbeat_payload` — ``(task_seq,
host_cycles, rss_bytes, monotonic_ts)`` plus its cumulative stall-cause
breakdown — up the existing result pipe, so liveness rides the same
multiplexed channel as results and needs no new file descriptors.

The parent keeps one liveness record per slot: the dispatcher's
``WorkerState.last_heartbeat_ts`` (stamped at spawn, which counts as
the first beat, and by every heartbeat) with the slot's ``flagged``
bit beside it.  The :class:`Watchdog` holds only policy over those
records:

- ``verdict()`` is the one health verdict, behind both ``/healthz``
  and the report's per-worker ``health`` — a stopping slot is
  ``warn``, a dead one ``fail``, a live one ``fail`` once silent for
  :data:`UNHEALTHY_INTERVALS` heartbeat intervals up to the last pump
  round, which read every beat sent before it (``warn`` instead when
  the pump is stale, since its silence is then unattributable);
- ``check()`` is the escalation policy — after :data:`MISS_INTERVALS`
  silent intervals the slot is *flagged* (once per incident), and with
  ``escalate=True`` the watchdog SIGKILLs the pid, deliberately
  converting "stuck" into "dead" so the fabric's existing
  crash-recovery path (salvage → requeue → respawn) takes over.  The
  watchdog never touches queues or results itself, and its ``flags``/
  ``kills``/``recoveries`` are the only counts of those events.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Default seconds between worker heartbeats.
HEARTBEAT_INTERVAL_S = 1.0
#: Silent intervals before a live slot's verdict is ``fail`` (a
#: SIGSTOPped worker turns ``/healthz`` red within two intervals).
UNHEALTHY_INTERVALS = 2
#: Silent intervals before the watchdog flags a slot stuck.
MISS_INTERVALS = 5


def rss_bytes() -> int:
    """This process's resident set size in bytes (0 if unreadable).

    Reads ``/proc/self/statm`` on Linux and falls back to
    ``resource.getrusage`` elsewhere — never raises, because heartbeat
    emission must not be able to kill a worker.
    """
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:
        # ru_maxrss is kilobytes on Linux (peak, not current — close enough
        # for a fallback path).
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (OSError, ValueError):
        return 0


def heartbeat_payload(
    task_seq: int,
    host_cycles: int = 0,
    stall_causes: Optional[Dict[str, int]] = None,
) -> dict:
    """Build one heartbeat payload (sent as ``(MSG_HEARTBEAT, slot, payload)``)."""
    return {
        "task_seq": int(task_seq),
        "host_cycles": int(host_cycles),
        "rss_bytes": rss_bytes(),
        "monotonic_ts": float(time.monotonic()),
        "stall_causes": dict(stall_causes or {}),
    }


@dataclass
class WatchdogEvent:
    """One watchdog decision: a slot flagged stuck (and maybe killed)."""

    slot: int
    pid: Optional[int]
    age_s: float
    killed: bool


class Watchdog:
    """Health verdicts and stuck-worker escalation over slot records.

    Every method reads (and ``beat``/``check`` write) the states it is
    given: any object with ``index``, ``alive``, ``stopping``, ``pid``,
    ``last_heartbeat_ts`` and ``flagged`` attributes
    (:class:`repro.fabric.dispatcher.WorkerState` qualifies).  *now* and
    *as_of* are on the clock ``last_heartbeat_ts`` was stamped with
    (:func:`time.monotonic` in the fabric).

    Parameters
    ----------
    interval_s:
        The heartbeat period workers were configured with.
    escalate:
        When True, a newly flagged slot's pid is killed (``SIGKILL``),
        handing the slot to the fabric's crash-recovery path.
    kill:
        Injectable for tests (default: :func:`os.kill`).
    """

    def __init__(
        self,
        interval_s: float = HEARTBEAT_INTERVAL_S,
        escalate: bool = False,
        kill=os.kill,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive, got %r" % (interval_s,))
        self.interval_s = float(interval_s)
        self.escalate = bool(escalate)
        self._kill = kill
        self.flags = 0
        self.kills = 0
        self.recoveries = 0

    @property
    def unhealthy_s(self) -> float:
        """Silence after which a live slot's verdict is ``fail``."""
        return UNHEALTHY_INTERVALS * self.interval_s

    def beat(self, state, now: float) -> bool:
        """Stamp a heartbeat; True when the slot was flagged (recovered)."""
        state.last_heartbeat_ts = now
        if not state.flagged:
            return False
        state.flagged = False
        self.recoveries += 1
        return True

    def verdict(self, state, as_of: float, pump_stale: bool = False) -> str:
        """The slot's health verdict (``pass``/``warn``/``fail``), its
        silence measured up to *as_of* (a fresh pump's last round)."""
        if state.stopping:
            return "warn"
        if not state.alive:
            return "fail"  # crashed, respawn pending
        if as_of - state.last_heartbeat_ts < self.unhealthy_s:
            return "pass"
        return "warn" if pump_stale else "fail"

    def check(self, states, now: float) -> List[WatchdogEvent]:
        """One escalation round: flag (and maybe kill) silent slots.

        A slot is flagged at most once per silent incident; a later
        beat (or a respawn's re-stamp) re-arms it.  Dead and stopping
        slots belong to the sentinel and shutdown paths.
        """
        events: List[WatchdogEvent] = []
        for state in states:
            if not state.alive or state.stopping or state.flagged:
                continue
            age = now - state.last_heartbeat_ts
            if age < MISS_INTERVALS * self.interval_s:
                continue
            state.flagged = True
            self.flags += 1
            killed = False
            if self.escalate and state.pid is not None:
                try:
                    self._kill(state.pid, signal.SIGKILL)
                    killed = True
                    self.kills += 1
                except (ProcessLookupError, PermissionError, OSError):
                    pass  # already gone: the sentinel path will notice
            events.append(WatchdogEvent(state.index, state.pid, age, killed))
        return events
