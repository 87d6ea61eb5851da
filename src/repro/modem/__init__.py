"""The full inner modem on the simulated processor (the paper's Section 4).

:class:`~repro.modem.receiver.SimReceiver` holds the complete 2x2
MIMO-OFDM receive pipeline: every Table 2 kernel, compiled for the
simulated processor, over a packet produced by the golden transmitter.
:class:`repro.runtime.ModemRuntime` is its one driver: it runs every
region on one resident set of cycle-accurate lane cores (replaying a
lane that faults in lockstep alone on its own core) and returns
per-kernel profiles (mode, IPC, cycles) plus the decoded bits.

:mod:`repro.modem.profile` assembles those profiles into the Table 2
layout and :mod:`repro.modem.analysis` does the real-time / throughput /
latency arithmetic of the paper's Section 4.
"""

from repro.modem.memory_map import MemoryMap
from repro.modem.receiver import SimReceiver, ReceiverOutput
from repro.modem.profile import table2_rows, PAPER_TABLE2
from repro.modem.analysis import realtime_analysis, RealtimeReport

__all__ = [
    "MemoryMap",
    "SimReceiver",
    "ReceiverOutput",
    "table2_rows",
    "PAPER_TABLE2",
    "realtime_analysis",
    "RealtimeReport",
]
