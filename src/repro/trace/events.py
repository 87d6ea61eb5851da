"""Event vocabulary of the trace subsystem.

Two small, dependency-free definitions shared by the tracer, the
simulator and the exporters:

* :class:`TraceEvent` — one structured event in the ring buffer.  The
  ``kind`` field follows the Chrome ``trace_event`` phase letters so
  the export is a direct mapping: ``"X"`` complete (span with known
  duration), ``"B"``/``"E"`` nested span begin/end, ``"i"`` instant,
  ``"C"`` counter sample.
* :class:`StallCause` — the stall taxonomy.  Every cycle the simulator
  books into ``ActivityStats.stall_cycles`` is attributed to exactly
  one cause, so per-cause counters always sum to the lump total (the
  invariant :meth:`ActivityStats.validate` enforces).

This module must stay a leaf: ``repro.sim`` imports the taxonomy from
here, so importing anything from ``repro.sim`` (or ``repro.trace``
siblings that do) would create an import cycle.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional


class StallCause(Enum):
    """Why the core lost a cycle (the paper's stall sources)."""

    #: L1 bank contention froze the array / lengthened a load beyond
    #: its architectural latency (the transparent contention queue).
    BANK_CONFLICT = "bank_conflict"
    #: Instruction-cache miss refill in VLIW mode.
    ICACHE_MISS = "icache_miss"
    #: Dead cycles after a taken branch (Table 1's 2/3-cycle latency).
    BRANCH = "branch"
    #: Scoreboard interlock: a bundle waited for operands in flight
    #: (includes load-use delay lengthened by bank contention, which in
    #: VLIW mode surfaces through the scoreboard rather than a freeze).
    INTERLOCK = "interlock"
    #: The core waited for CGA configuration contexts over DMA.
    DMA_CONFIG = "dma_config"

    #: The C-level identity hash (see ``OpGroup.__hash__``): the
    #: ``stall_causes`` Counters hash a cause per update.  A cause is
    #: not its string value (no ``str`` mixin), so equality agrees
    #: with the hash; reports key causes by ``.value``.
    __hash__ = object.__hash__


#: Order used by reports when listing all causes.
ALL_STALL_CAUSES = tuple(StallCause)


class TraceEvent(NamedTuple):
    """One ring-buffered event.

    ``ts`` and ``dur`` are in core clock cycles for simulator events;
    compiler events use the tracer's tick clock (monotonic sequence
    numbers) since no simulated time exists at compile time.
    """

    kind: str  # "X" | "B" | "E" | "i" | "C"
    name: str
    cat: str
    ts: int
    dur: int = 0
    args: Optional[dict] = None
