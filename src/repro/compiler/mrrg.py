"""The modulo routing resource graph (MRRG).

For a candidate initiation interval II, the MRRG tracks every resource a
modulo schedule can exhaust, all folded modulo II:

* **issue slots** — one operation per functional unit per context phase;
* **write-back slots** — each value-producing operation commits to its
  unit's output latch at phase ``(t + latency) mod II``; commits on one
  unit must be unique per phase, which also keeps each unit's local RF
  at one write per phase (its single write port);
* **storage** — one table per unit whose rows are the places a value
  can wait for its consumers: row :data:`LATCH` is the output latch,
  rows ``1..n`` are the entries of the unit's local RF.  A row holds a
  value from the phase it is written through ``slack`` cycles later,
  and no other write may land in that live window (``slack <= II - 1``,
  because the producer itself rewrites the place every II cycles, so
  static entries suffice).  Every commit writes the latch, so a latch
  window blocks every other commit on the unit; an entry is written
  only by the commits routed into it, so its window blocks nothing
  else.  The latch is readable by the unit and its interconnect
  successors, an entry only by its own unit;
* **local RF read ports** — 2 reads per unit per phase, counting
  routed values and preloaded live-ins alike;
* **central RF ports** — 6 reads / 3 writes per phase, usable only from
  units with central ports;
* **preloaded live-ins** — a loop-invariant live-in preloaded into the
  consuming unit's local RF occupies a whole entry for the whole kernel,
  so routed values get ``entries - preloads`` of them.

Every mutation is journalled, so :meth:`Mrrg.checkpoint` is the journal
length and :meth:`Mrrg.restore` undoes back to it: rolling back a failed
placement attempt costs what the attempt changed, not a copy of the
whole graph.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.compiler.dfg import CompileError

#: Storage row of a unit's output latch; row ``k >= 1`` is local-RF entry ``k - 1``.
LATCH = 0

_MISSING = object()


class _FuState:
    """Per-unit modulo resources."""

    __slots__ = ("slots", "writes", "blocked", "spans", "lrf_row", "lrf_reads", "lrf_alloc")

    def __init__(self, rows: int) -> None:
        #: phase -> uid of the operation issued there
        self.slots: Dict[int, int] = {}
        #: storage row -> bit p set: the row is written at phase p
        self.writes: List[int] = [0] * rows
        #: storage row -> bit p set: no new value may be written at phase
        #: p (its writes plus every live window; a preload blocks all)
        self.blocked: List[int] = [0] * rows
        #: (row, write phase) -> live window length of that value
        self.spans: Dict[Tuple[int, int], int] = {}
        #: commit phase -> local-RF row the committed value is routed into
        self.lrf_row: Dict[int, int] = {}
        #: phase -> local-RF reads of the op issued there
        self.lrf_reads: Dict[int, int] = {}
        #: preloaded live-in -> entry
        self.lrf_alloc: Dict[str, int] = {}


@functools.lru_cache(maxsize=None)
def _window_masks(ii: int) -> Tuple[Tuple[int, ...], ...]:
    """``[phase][length]`` -> bits of phases ``phase+1 .. phase+length`` mod II."""
    table = []
    for phase in range(ii):
        row = [0]
        for d in range(1, ii):
            row.append(row[-1] | 1 << (phase + d) % ii)
        table.append(tuple(row))
    return tuple(table)


class Mrrg:
    """Resource bookkeeping for one scheduling attempt at a fixed II."""

    def __init__(self, arch: CgaArchitecture, ii: int) -> None:
        if ii < 1:
            raise CompileError("II must be >= 1")
        self.arch = arch
        self.ii = ii
        self._windows = _window_masks(ii)
        self._all_phases = (1 << ii) - 1
        self._lrf_ports = [
            0 if fu.local_rf is None else fu.local_rf.read_ports for fu in arch.fus
        ]
        self.fus: List[_FuState] = [
            _FuState(1 + (0 if fu.local_rf is None else fu.local_rf.entries))
            for fu in arch.fus
        ]
        self.cdrf_reads: Dict[int, int] = {}
        self.cdrf_writes: Dict[int, int] = {}
        #: (table, key, previous value or _MISSING) per mutation
        self._journal: List[tuple] = []

    # -- checkpointing ---------------------------------------------------

    def _set(self, table, key, value) -> None:
        """Journalled ``table[key] = value`` (a dict or a list)."""
        old = table.get(key, _MISSING) if type(table) is dict else table[key]
        self._journal.append((table, key, old))
        table[key] = value

    def checkpoint(self) -> int:
        """A mark that :meth:`restore` rolls back to."""
        return len(self._journal)

    def restore(self, mark: int) -> None:
        """Undo every claim made since :meth:`checkpoint` returned *mark*."""
        journal = self._journal
        while len(journal) > mark:
            table, key, old = journal.pop()
            if old is _MISSING:
                del table[key]
            else:
                table[key] = old

    # -- issue slots ---------------------------------------------------------

    def slot_free(self, fu: int, time: int) -> bool:
        """True when unit *fu* has no operation at ``time mod II``."""
        return (time % self.ii) not in self.fus[fu].slots

    def claim_slot(self, fu: int, time: int, uid: int) -> None:
        phase = time % self.ii
        if phase in self.fus[fu].slots:
            raise CompileError("slot FU%d@%d already taken" % (fu, phase))
        self._set(self.fus[fu].slots, phase, uid)

    # -- write-back -------------------------------------------------------------

    def commit_free(self, fu: int, commit_time: int) -> bool:
        """True when the latch of *fu* can accept a commit at this phase.

        The phase must be unused and must not fall inside any existing
        value's latch live window.
        """
        return not self.fus[fu].blocked[LATCH] >> (commit_time % self.ii) & 1

    def claim_commit(self, fu: int, commit_time: int) -> None:
        if not self.commit_free(fu, commit_time):
            raise CompileError("commit conflict on FU%d" % fu)
        bit = 1 << commit_time % self.ii
        state = self.fus[fu]
        self._set(state.writes, LATCH, state.writes[LATCH] | bit)
        self._set(state.blocked, LATCH, state.blocked[LATCH] | bit)

    # -- storage ------------------------------------------------------------------

    def _fits(self, state: _FuState, row: int, phase: int, slack: int) -> bool:
        """Can *row* keep the value written at *phase* live *slack* cycles?"""
        length = max(state.spans.get((row, phase), 0), slack)
        return not state.writes[row] & self._windows[phase][length]

    def place_to_wait(
        self, fu: int, commit_time: int, slack: int, reader: int
    ) -> Optional[int]:
        """Where the value *fu* commits at *commit_time* can wait *slack*
        cycles until unit *reader* reads it: a storage row, or None.

        A reader on *fu* itself that reads later than the commit takes
        a local-RF entry (the one already holding the value, else the
        first whose windows leave room) while it has a read port at the
        read phase; otherwise the value waits in the latch, which the
        reader must reach over the interconnect.
        """
        if not 0 <= slack < self.ii:
            return None
        state = self.fus[fu]
        phase = commit_time % self.ii
        if reader == fu:
            if slack and self.lrf_read_free(fu, commit_time + slack):
                row = state.lrf_row.get(phase)
                if row is not None:
                    if self._fits(state, row, phase, slack):
                        return row
                else:
                    window = self._windows[phase][slack]
                    for row in range(1, len(state.writes)):
                        if not (state.blocked[row] >> phase & 1
                                or state.writes[row] & window):
                            return row
        elif not self.arch.interconnect.connected(fu, reader):
            return None
        return LATCH if self._fits(state, LATCH, phase, slack) else None

    def hold(self, fu: int, commit_time: int, slack: int, reader: int) -> int:
        """Claim :meth:`place_to_wait`'s row (its window and, for a local-RF
        entry, the write at commit and the reader's port); returns it."""
        row = self.place_to_wait(fu, commit_time, slack, reader)
        if row is None:
            raise CompileError(
                "no storage on FU%d for a %d-cycle wait" % (fu, slack)
            )
        phase = commit_time % self.ii
        state = self.fus[fu]
        if row != LATCH:
            if phase not in state.lrf_row:
                self._set(state.lrf_row, phase, row)
                self._set(state.writes, row, state.writes[row] | 1 << phase)
            self.claim_lrf_read(fu, commit_time + slack)
        length = max(state.spans.get((row, phase), 0), slack)
        self._set(state.spans, (row, phase), length)
        self._set(state.blocked, row,
                  state.blocked[row] | 1 << phase | self._windows[phase][length])
        return row

    def lrf_write_at(self, fu: int, commit_time: int) -> Optional[int]:
        """Local-RF entry the commit at *commit_time* on *fu* writes, if any."""
        row = self.fus[fu].lrf_row.get(commit_time % self.ii)
        return None if row is None else row - 1

    # -- local RF read ports -----------------------------------------------------

    def lrf_read_free(self, fu: int, time: int) -> bool:
        return self.fus[fu].lrf_reads.get(time % self.ii, 0) < self._lrf_ports[fu]

    def claim_lrf_read(self, fu: int, time: int) -> None:
        if not self.lrf_read_free(fu, time):
            raise CompileError("local RF read ports of FU%d exhausted" % fu)
        reads = self.fus[fu].lrf_reads
        phase = time % self.ii
        self._set(reads, phase, reads.get(phase, 0) + 1)

    # -- central RF ports -----------------------------------------------------

    def cdrf_read_free(self, time: int, count: int = 1) -> bool:
        phase = time % self.ii
        return self.cdrf_reads.get(phase, 0) + count <= self.arch.cdrf.read_ports

    def claim_cdrf_read(self, time: int, count: int = 1) -> None:
        phase = time % self.ii
        if not self.cdrf_read_free(time, count):
            raise CompileError("CDRF read ports exhausted at phase %d" % phase)
        self._set(self.cdrf_reads, phase, self.cdrf_reads.get(phase, 0) + count)

    def cdrf_write_free(self, time: int) -> bool:
        phase = time % self.ii
        return self.cdrf_writes.get(phase, 0) + 1 <= self.arch.cdrf.write_ports

    def claim_cdrf_write(self, time: int) -> None:
        phase = time % self.ii
        if not self.cdrf_write_free(time):
            raise CompileError("CDRF write ports exhausted at phase %d" % phase)
        self._set(self.cdrf_writes, phase, self.cdrf_writes.get(phase, 0) + 1)

    # -- preloaded live-ins -------------------------------------------------------

    def _empty_row(self, state: _FuState) -> Optional[int]:
        for row in range(1, len(state.blocked)):
            if not state.blocked[row]:
                return row
        return None

    def lrf_entry_for(self, fu: int, live_in: str) -> Optional[int]:
        """Entry already holding *live_in* on *fu*, if any."""
        return self.fus[fu].lrf_alloc.get(live_in)

    def lrf_alloc_free(self, fu: int, live_in: str) -> bool:
        state = self.fus[fu]
        return live_in in state.lrf_alloc or self._empty_row(state) is not None

    def claim_lrf(self, fu: int, live_in: str) -> int:
        """The entry preloaded with *live_in* (taken whole on first use)."""
        state = self.fus[fu]
        if live_in in state.lrf_alloc:
            return state.lrf_alloc[live_in]
        row = self._empty_row(state)
        if row is None:
            raise CompileError("local RF of FU%d exhausted" % fu)
        self._set(state.blocked, row, self._all_phases)
        self._set(state.lrf_alloc, live_in, row - 1)
        return row - 1

    # -- reporting ----------------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of issue slots used across all units and phases."""
        used = sum(len(state.slots) for state in self.fus)
        return used / (self.arch.n_units * self.ii)

    def preload_list(self) -> List[Tuple[int, int, str]]:
        """All (fu, entry, live_in) local-RF allocations."""
        out = []
        for fu, state in enumerate(self.fus):
            for name, entry in state.lrf_alloc.items():
                out.append((fu, entry, name))
        return sorted(out)
