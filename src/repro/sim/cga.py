"""CGA-mode execution engine: lockstep array driven by configuration contexts.

Execution model (Section 2.B of the paper, standard modulo-scheduled
CGRA semantics):

* the configuration memory streams one context per cycle, cycling
  through the kernel's ``II`` contexts;
* each context names, per active unit, an operation with multiplexer
  selections for its sources and optional register-file write-backs;
* the interconnect is pipelined: a unit reads *latched* outputs produced
  in earlier cycles; an operation of latency L issued at cycle *c*
  becomes visible in its unit's output latch at cycle ``c + L``;
* software-pipeline stages gate execution: the operation at stage *s*
  in global iteration-slot *k* belongs to source iteration ``k - s`` and
  executes only when that iteration is within the trip count — this
  realises prologue and epilogue without separate code;
* loop-carried values enter through *phi* sources (initial immediate on
  iteration 0) and leave through ``last_iteration_only`` central-RF
  writes;
* an L1 bank conflict freezes the whole array for the queuing delay
  (the paper's transparent contention logic), accounted as stall cycles.

Timekeeping uses two clocks: *logical* cycles index contexts and latch
visibility (the datapath freezes during stalls), while *physical* cycles
(logical + accumulated stalls) drive the L1 bank arbiter and the final
cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.isa.bits import MASK32, MASK64
from repro.isa.opcodes import MAX_OP_LATENCY, OpGroup, group_of, latency_of
from repro.isa.semantics import execute as exec_semantics
from repro.sim import memops
from repro.sim.memory import Scratchpad
from repro.sim.program import CgaKernel, CgaOp, DstKind, SrcKind, SrcSel
from repro.sim.regfile import LocalRegisterFile, PredicateFile, RegisterFile
from repro.sim.stats import ActivityStats
from repro.trace.events import StallCause
from repro.trace.tracer import NULL_TRACER, Tracer


class CgaFault(Exception):
    """Raised on illegal configurations (bad routing, port abuse, caps)."""


@dataclass
class _PendingWrite:
    visible_at: int  # logical cycle at which the value can be read
    fu: int
    value: int
    op: CgaOp
    iteration: int


class CgaEngine:
    """Executes modulo-scheduled kernels on the array."""

    def __init__(
        self,
        arch: CgaArchitecture,
        cdrf: RegisterFile,
        cprf: PredicateFile,
        local_rfs: Dict[int, LocalRegisterFile],
        scratchpad: Scratchpad,
        stats: ActivityStats,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.arch = arch
        self.cdrf = cdrf
        self.cprf = cprf
        self.local_rfs = local_rfs
        self.scratchpad = scratchpad
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Output latches, one per unit (what the interconnect reads).
        self._out_latch: List[int] = [0] * arch.n_units

    # ------------------------------------------------------------------

    def _read_src(self, fu: int, sel: SrcSel, iteration: int) -> int:
        if sel.init is not None and iteration == 0:
            return sel.init & MASK64
        kind = sel.kind
        if kind is SrcKind.SELF:
            return self._out_latch[fu]
        if kind is SrcKind.WIRE:
            if not self.arch.interconnect.connected(sel.value, fu):
                raise CgaFault(
                    "no wire from FU%d to FU%d in %s"
                    % (sel.value, fu, self.arch.name)
                )
            self.stats.interconnect_transfers += 1
            return self._out_latch[sel.value]
        if kind is SrcKind.LRF:
            if fu not in self.local_rfs:
                raise CgaFault("FU%d has no local register file" % fu)
            return self.local_rfs[fu].read(sel.value)
        if kind is SrcKind.CDRF:
            if not self.arch.fus[fu].has_cdrf_port:
                raise CgaFault("FU%d has no central RF port" % fu)
            return self.cdrf.read(sel.value)
        if kind is SrcKind.CPRF:
            if not self.arch.fus[fu].has_cdrf_port:
                raise CgaFault("FU%d has no central RF port" % fu)
            return self.cprf.read(sel.value)
        if kind is SrcKind.IMM:
            return sel.value & MASK64
        raise CgaFault("unknown source kind %r" % (kind,))

    def _guard_passes(self, fu: int, op: CgaOp, iteration: int) -> bool:
        if op.pred is None:
            return True
        value = self._read_src(fu, op.pred, iteration)
        return bool(value & 1) != op.pred_negate

    def _commit(self, pending: List[_PendingWrite], logical: int, trip: int) -> None:
        """Apply writes whose results become visible at *logical* cycle."""
        remaining: List[_PendingWrite] = []
        for wr in pending:
            if wr.visible_at > logical:
                remaining.append(wr)
                continue
            self._out_latch[wr.fu] = wr.value
            for dst in wr.op.dsts:
                if dst.last_iteration_only and wr.iteration != trip - 1:
                    continue
                if dst.kind is DstKind.LRF:
                    if wr.fu not in self.local_rfs:
                        raise CgaFault("FU%d has no local register file" % wr.fu)
                    self.local_rfs[wr.fu].write(dst.index, wr.value)
                elif dst.kind is DstKind.CDRF:
                    if not self.arch.fus[wr.fu].has_cdrf_port:
                        raise CgaFault("FU%d has no central RF port" % wr.fu)
                    self.cdrf.write(dst.index, wr.value)
                elif dst.kind is DstKind.CPRF:
                    if not self.arch.fus[wr.fu].has_cdrf_port:
                        raise CgaFault("FU%d has no central RF port" % wr.fu)
                    self.cprf.write(dst.index, wr.value & 1)
        pending[:] = remaining

    # ------------------------------------------------------------------

    def run_reference(self, kernel: CgaKernel, start_cycle: int) -> int:
        """Execute *kernel*; returns the physical cycle after completion.

        The interpreted loop: every static fact is re-derived each cycle.
        It is the oracle the compiled tier
        (:class:`repro.sim.batch.BatchProgramRunner`) is checked against,
        bit-identical in architectural state, cycle counts and
        :class:`ActivityStats` (``tests/sim/test_differential.py``), and
        the runner's fallback for kernels the code generator refuses.
        """
        trip = kernel.trip_count
        if trip is None:
            if kernel.trip_count_reg is None:
                raise CgaFault("kernel %s has no trip count" % kernel.name)
            trip = self.cdrf.peek(kernel.trip_count_reg) & MASK32
        if trip <= 0:
            return start_cycle
        # Preload loop-invariant live-ins into local register files
        # (two per cycle through the shared read ports).
        for preload in kernel.preloads:
            if preload.fu not in self.local_rfs:
                raise CgaFault("preload targets FU%d without a local RF" % preload.fu)
            value = self.cdrf.peek(preload.cdrf_reg)
            self.local_rfs[preload.fu].write(preload.lrf_index, value)
            self.stats.cdrf_reads += 1
        preload_cycles = (len(kernel.preloads) + 1) // 2
        self.stats.cga_cycles += preload_cycles
        start_cycle += preload_cycles
        ii = kernel.ii
        stages = kernel.stage_count
        total_logical = (trip + stages - 1) * ii
        pending: List[_PendingWrite] = []
        stall_offset = 0
        self._out_latch[:] = [0] * self.arch.n_units

        for logical in range(total_logical):
            self._commit(pending, logical, trip)
            context = kernel.contexts[logical % ii]
            iter_slot = logical // ii
            physical = start_cycle + logical + stall_offset
            self.cdrf.begin_cycle()
            self.cprf.begin_cycle()
            self.stats.config_words += kernel.context_words
            for fu in sorted(context.ops):
                op = context.ops[fu]
                iteration = iter_slot - op.stage
                if not (0 <= iteration < trip):
                    continue  # prologue/epilogue gating
                if not self.arch.fus[fu].supports(op.opcode):
                    raise CgaFault(
                        "FU%d cannot execute %s" % (fu, op.opcode.value)
                    )
                if not self._guard_passes(fu, op, iteration):
                    self.stats.squashed_ops += 1
                    continue
                group = group_of(op.opcode)
                self.stats.count_op(fu, op.opcode, in_cga=True)
                if group is OpGroup.LDMEM:
                    value, extra = self._exec_load(fu, op, iteration, physical)
                    stall_offset += extra
                    pending.append(
                        _PendingWrite(
                            logical + latency_of(op.opcode), fu, value, op, iteration
                        )
                    )
                    continue
                if group is OpGroup.STMEM:
                    extra = self._exec_store(fu, op, iteration, physical)
                    stall_offset += extra
                    continue
                srcs = [self._read_src(fu, s, iteration) for s in op.srcs]
                value = exec_semantics(op.opcode, srcs)
                pending.append(
                    _PendingWrite(
                        logical + latency_of(op.opcode), fu, value, op, iteration
                    )
                )
            self.stats.cga_cycles += 1
        # Drain: let in-flight results commit (they finish during the
        # epilogue of real schedules; the scheduler guarantees all
        # central-RF live-outs land within the epilogue window).  No
        # result can be in flight longer than the deepest pipeline, so a
        # longer drain means a malformed pending write, not progress.
        drain = 0
        while pending:
            drain += 1
            if drain > MAX_OP_LATENCY:
                raise CgaFault(
                    "kernel %s: pending write not visible within %d cycles "
                    "after the last context" % (kernel.name, MAX_OP_LATENCY)
                )
            self._commit(pending, total_logical - 1 + drain, trip)
        self.stats.cga_cycles += drain
        # All array freezes come from the transparent L1 contention queue.
        self.stats.add_stall(StallCause.BANK_CONFLICT, stall_offset)
        self.stats.cga_cycles += stall_offset
        return start_cycle + total_logical + stall_offset + drain

    # ------------------------------------------------------------------

    def _mem_operands(self, fu: int, op: CgaOp, iteration: int) -> Tuple[int, int, bool]:
        base_sel, off_sel = op.srcs[0], op.srcs[1]
        base = self._read_src(fu, base_sel, iteration) & MASK32
        off_is_imm = off_sel.kind is SrcKind.IMM and off_sel.init is None
        offset = self._read_src(fu, off_sel, iteration)
        if not off_is_imm:
            offset &= MASK32
        return base, offset, off_is_imm

    def _exec_load(
        self, fu: int, op: CgaOp, iteration: int, physical: int
    ) -> Tuple[int, int]:
        base, offset, off_is_imm = self._mem_operands(fu, op, iteration)
        addr = memops.effective_address(op.opcode, base, offset, off_is_imm)
        info = memops.mem_info(op.opcode)
        raw, extra = self.scratchpad.timed_read(physical, addr, info.size)
        return memops.load_result(op.opcode, raw), extra

    def _exec_store(self, fu: int, op: CgaOp, iteration: int, physical: int) -> int:
        base, offset, off_is_imm = self._mem_operands(fu, op, iteration)
        addr = memops.effective_address(op.opcode, base, offset, off_is_imm)
        value = self._read_src(fu, op.srcs[2], iteration)
        raw, size = memops.store_payload(op.opcode, value)
        return self.scratchpad.timed_write(physical, addr, raw, size)
