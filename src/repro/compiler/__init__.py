"""DRESC-like compiler for the hybrid CGA/VLIW processor.

The paper compiles a single ANSI-C source (with SIMD intrinsics) to both
machines with the DRESC framework [Mei et al., ref 6]: inner loops are
modulo-scheduled onto the coarse-grained array, the remaining code is
compiled to the 3-issue VLIW.  This package reproduces that flow with a
Python-embedded kernel DSL standing in for the C frontend:

* :mod:`repro.compiler.dfg` — loop-body data-flow graphs with
  loop-carried (recurrence) edges, live-ins and live-outs;
* :mod:`repro.compiler.builder` — the "C with intrinsics" DSL used to
  author kernels (:class:`KernelBuilder`) and VLIW sections
  (:class:`VliwBuilder`);
* :mod:`repro.compiler.mrrg` — the modulo routing resource graph: issue
  slots, latch lifetimes, write-back ports, central-RF ports and local
  register files, all modulo the initiation interval;
* :mod:`repro.compiler.modulo` — the modulo scheduler: places each
  operation on a (unit, cycle) slot and routes operand flows over the
  interconnect, inserting pass-through moves where the direct reach of
  an output latch is insufficient;
* :mod:`repro.compiler.vliw_sched` — list scheduler producing 3-issue
  bundles for non-kernel code;
* :mod:`repro.compiler.linker` — assembles kernels and VLIW sections
  into a runnable :class:`~repro.sim.program.Program`.
"""

from repro.compiler.dfg import Dfg, Node, NodeRef, Const, LiveIn, CompileError
from repro.compiler.builder import KernelBuilder, VliwBuilder
from repro.compiler.modulo import ModuloScheduler, SchedulePlan, ScheduleResult
from repro.compiler.vliw_sched import schedule_vliw
from repro.compiler.linker import ProgramLinker

__all__ = [
    "Dfg",
    "Node",
    "NodeRef",
    "Const",
    "LiveIn",
    "CompileError",
    "KernelBuilder",
    "VliwBuilder",
    "ModuloScheduler",
    "SchedulePlan",
    "ScheduleResult",
    "schedule_vliw",
    "ProgramLinker",
]
