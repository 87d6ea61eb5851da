"""Compile-once / run-many execution layer over the simulated modem.

The paper's toolflow separates compilation (DRESC modulo scheduling,
linking) from execution: a baseband program is compiled once per
architecture and parameter set, and the control processor then streams
packets through the resident configuration, patching only the
packet-dependent constants.  :class:`ModemRuntime` reproduces that split
on top of :class:`repro.modem.receiver.SimReceiver`, whose region
programs are pure functions of the region, not of the packet's shape:
each region is linked once.  It is the one packet driver on every
tier, traced or not: it keeps one resident set of at most ``batch``
lane cores, and every region runs on them, each reset in place, up to
``batch`` packets of any shapes in lockstep on the untraced
``compiled`` tier and one lane at a time otherwise; a lane that faults
in lockstep is replayed alone on its own core.  Multi-process serving
is :mod:`repro.fabric`'s job.
"""

from repro.runtime.batched import BatchedModemRuntime, BatchPacketResult, ModemRuntime
from repro.runtime.workload import PacketCase, generate_packets, make_packet

__all__ = [
    "BatchPacketResult",
    "BatchedModemRuntime",
    "ModemRuntime",
    "PacketCase",
    "generate_packets",
    "make_packet",
]
