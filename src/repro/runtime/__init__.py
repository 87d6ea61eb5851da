"""Compile-once / run-many execution layer over the simulated modem.

The paper's toolflow separates compilation (DRESC modulo scheduling,
linking) from execution: a baseband program is compiled once per
architecture and parameter set, and the control processor then streams
packets through the resident configuration, patching only the
packet-dependent constants.  :class:`ModemRuntime` reproduces that split
on top of :class:`repro.modem.receiver.SimReceiver`, whose region
programs are pure functions of (architecture, seed, memory map, OFDM
params, packet shape).  On its default ``compiled`` tier it runs up to
``batch`` same-shape packets in lockstep; multi-process serving is
:mod:`repro.fabric`'s job.
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
