"""Activity statistics traced by the simulator.

:class:`ActivityStats` is the contract between the simulator and the
power model: every counter corresponds to a class of switching events
whose energy cost the power model prices.  :class:`KernelProfile`
aggregates the per-kernel numbers reported in Table 2 of the paper
(mode, IPC, cycles).

Stall attribution
-----------------
``stall_cycles`` is no longer an opaque lump: every increment goes
through :meth:`ActivityStats.add_stall` and is attributed to one
:class:`~repro.trace.events.StallCause` (bank conflict, I$ miss,
branch penalty, scoreboard interlock, DMA configuration load).
:meth:`ActivityStats.validate` enforces the two bookkeeping invariants
— per-cause counters sum exactly to ``stall_cycles``, and the mode
cycle counters sum to ``total_cycles`` — and is called at the end of
every simulated region.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.opcodes import Opcode, group_of, op_weight
from repro.trace.events import StallCause


class StatsError(Exception):
    """Raised by :meth:`ActivityStats.validate` on inconsistent counters."""


#: Every scalar counter, in declaration order (merge/delta/export walk this).
_SCALAR_FIELDS = (
    "vliw_cycles",
    "cga_cycles",
    "stall_cycles",
    "sleep_cycles",
    "vliw_ops",
    "cga_ops",
    "squashed_ops",
    "cdrf_reads",
    "cdrf_writes",
    "cprf_reads",
    "cprf_writes",
    "lrf_reads",
    "lrf_writes",
    "l1_reads",
    "l1_writes",
    "l1_bank_conflicts",
    "l1_conflict_stall_cycles",
    "icache_hits",
    "icache_misses",
    "config_words",
    "interconnect_transfers",
    "bus_reads",
    "bus_writes",
    "dma_words",
)

#: Keyed (Counter-valued) fields, merged/diffed alongside the scalars.
_COUNTER_FIELDS = ("fu_ops", "op_groups", "stall_causes")


@dataclass
class ActivityStats:
    """Event counters for one simulated region.

    Cycle counters
    --------------
    ``vliw_cycles`` / ``cga_cycles`` split total time by mode;
    ``stall_cycles`` are cycles lost to interlocks, branch penalties,
    I$ misses and L1 bank conflicts (included in the mode counters)
    and are attributed per cause in ``stall_causes``.
    """

    vliw_cycles: int = 0
    cga_cycles: int = 0
    stall_cycles: int = 0
    sleep_cycles: int = 0

    # Operation counters.
    vliw_ops: int = 0
    cga_ops: int = 0
    fu_ops: Counter = field(default_factory=Counter)  # fu index -> executed ops
    op_groups: Counter = field(default_factory=Counter)  # OpGroup -> count
    squashed_ops: int = 0

    # Stall attribution: StallCause -> cycles (sums to stall_cycles).
    stall_causes: Counter = field(default_factory=Counter)

    # Register file traffic.
    cdrf_reads: int = 0
    cdrf_writes: int = 0
    cprf_reads: int = 0
    cprf_writes: int = 0
    lrf_reads: int = 0
    lrf_writes: int = 0

    # Memory system.
    l1_reads: int = 0
    l1_writes: int = 0
    l1_bank_conflicts: int = 0
    l1_conflict_stall_cycles: int = 0
    icache_hits: int = 0
    icache_misses: int = 0

    # CGA configuration and interconnect.
    config_words: int = 0
    interconnect_transfers: int = 0

    # Bus / DMA.
    bus_reads: int = 0
    bus_writes: int = 0
    dma_words: int = 0

    @property
    def active_cycles(self) -> int:
        """Cycles the core was executing (VLIW + CGA, sleep excluded)."""
        return self.vliw_cycles + self.cga_cycles

    @property
    def total_cycles(self) -> int:
        """Total accounted cycles: VLIW + CGA + sleep."""
        return self.vliw_cycles + self.cga_cycles + self.sleep_cycles

    @property
    def total_ops(self) -> int:
        """Total executed (non-squashed) operations, IPC-weighted."""
        return self.vliw_ops + self.cga_ops

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole region."""
        if self.total_cycles == 0:
            return 0.0
        return self.total_ops / self.total_cycles

    @property
    def cga_fraction(self) -> float:
        """Fraction of accounted time spent in CGA mode."""
        if self.total_cycles == 0:
            return 0.0
        return self.cga_cycles / self.total_cycles

    def count_op(self, fu: int, op: Opcode, in_cga: bool) -> None:
        """Record one executed operation on unit *fu*."""
        weight = op_weight(op)
        self.fu_ops[fu] += weight
        self.op_groups[group_of(op)] += weight
        if in_cga:
            self.cga_ops += weight
        else:
            self.vliw_ops += weight

    def add_stall(self, cause: StallCause, cycles: int) -> None:
        """Book *cycles* lost to *cause* (the only way stalls accrue)."""
        if cycles <= 0:
            return
        self.stall_cycles += cycles
        self.stall_causes[cause] += cycles

    def stall_breakdown(self) -> Dict[str, int]:
        """Per-cause stall cycles keyed by cause name (all causes listed)."""
        return {cause.value: int(self.stall_causes.get(cause, 0)) for cause in StallCause}

    def validate(self) -> "ActivityStats":
        """Assert the cycle bookkeeping is self-consistent.

        * mode counters account for all time:
          ``vliw_cycles + cga_cycles + sleep_cycles == total_cycles``;
        * every stall cycle carries exactly one cause:
          ``sum(stall_causes) == stall_cycles``;
        * stalls happened inside accounted execution time.

        Returns ``self`` so call sites can chain; raises
        :class:`StatsError` on violation.
        """
        if self.vliw_cycles + self.cga_cycles + self.sleep_cycles != self.total_cycles:
            raise StatsError(
                "mode cycles %d+%d+%d do not account for total_cycles %d"
                % (self.vliw_cycles, self.cga_cycles, self.sleep_cycles, self.total_cycles)
            )
        cause_sum = sum(self.stall_causes.values())
        if cause_sum != self.stall_cycles:
            raise StatsError(
                "stall causes sum to %d but stall_cycles is %d (%r)"
                % (cause_sum, self.stall_cycles, self.stall_breakdown())
            )
        if self.stall_cycles > self.active_cycles:
            raise StatsError(
                "stall_cycles %d exceed active cycles %d"
                % (self.stall_cycles, self.active_cycles)
            )
        return self

    def merge(self, other: "ActivityStats") -> None:
        """Accumulate *other* into this object (used by region profiling)."""
        for name in _SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _COUNTER_FIELDS:
            getattr(self, name).update(getattr(other, name))

    def snapshot(self) -> "ActivityStats":
        """Return a deep copy of the current counters."""
        copy = ActivityStats()
        copy.merge(self)
        return copy

    def delta_since(self, earlier: "ActivityStats") -> "ActivityStats":
        """Return the difference between this snapshot and an *earlier* one."""
        out = ActivityStats()
        for name in _SCALAR_FIELDS:
            setattr(out, name, getattr(self, name) - getattr(earlier, name))
        for name in _COUNTER_FIELDS:
            setattr(out, name, getattr(self, name) - getattr(earlier, name))
        return out

    def as_dict(self) -> Dict[str, object]:
        """Flat, JSON-serialisable view consumed by the trace exporters."""
        return {
            "counters": {name: getattr(self, name) for name in _SCALAR_FIELDS},
            "fu_ops": {int(fu): int(n) for fu, n in self.fu_ops.items()},
            "op_groups": {
                (g.value if hasattr(g, "value") else str(g)): int(n)
                for g, n in self.op_groups.items()
            },
            "stall_causes": self.stall_breakdown(),
        }


@dataclass
class KernelProfile:
    """One row of Table 2: a profiled kernel region.

    ``mode`` is "CGA", "VLIW" or "mixed" following the paper's
    classification: CGA when nearly all cycles run on the array, VLIW
    when no loop was mapped, mixed when a mapped loop is accompanied by
    significant VLIW pre/post-processing.  A row whose work another
    row's kernels absorbed carries ``fused_into`` and zero-cycle stats;
    its mode reads "fused into <row>".
    """

    name: str
    stats: ActivityStats
    ii: Optional[int] = None
    fused_into: Optional[str] = None

    @property
    def cycles(self) -> int:
        """Total cycles of the region."""
        return self.stats.total_cycles

    @property
    def ipc(self) -> float:
        """Region IPC (weighted ops / cycles)."""
        return self.stats.ipc

    @property
    def mode(self) -> str:
        """Paper-style mode classification of the region."""
        if self.fused_into is not None:
            return "fused into %s" % self.fused_into
        frac = self.stats.cga_fraction
        if frac >= 0.75:
            return "CGA"
        if frac <= 0.10:
            return "VLIW"
        return "mixed"

    def row(self) -> Dict[str, object]:
        """Render as a Table 2 row."""
        return {
            "kernel": self.name,
            "mode": self.mode,
            "IPC": round(self.ipc, 2),
            "cycles": self.cycles,
        }
