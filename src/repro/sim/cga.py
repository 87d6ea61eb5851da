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

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.isa.bits import MASK32, MASK64
from repro.isa.opcodes import MAX_OP_LATENCY, OpGroup, group_of, latency_of
from repro.isa.semantics import execute as exec_semantics
from repro.sim import memops
from repro.sim.decode import (
    COMMIT_RING_SLOTS,
    KIND_DATAFLOW,
    KIND_LOAD,
    decode_kernel,
)
from repro.sim.memory import Scratchpad
from repro.sim.program import CgaKernel, CgaOp, DstKind, SrcKind, SrcSel
from repro.sim.regfile import LocalRegisterFile, PredicateFile, RegisterFile
from repro.sim.stats import ActivityStats
from repro.trace.events import StallCause
from repro.trace.tracer import NULL_TRACER, Tracer


class CgaFault(Exception):
    """Raised on illegal configurations (bad routing, port abuse, caps)."""


#: Bound on the per-engine decoded kernel cache.  A long-lived
#: process (a fabric worker) linking many ``patch_constants`` program
#: variants used to pin every kernel it ever ran through the id-keyed
#: decode cache; an LRU this size keeps every live receiver region hot
#: while letting retired variants be collected.
KERNEL_CACHE_BOUND = 16


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
        #: Output latches.  Decoded source readers capture this exact
        #: list object, so it is reset in place, never rebound.
        self._out_latch: List[int] = [0] * arch.n_units
        #: Decoded-kernel LRU keyed by kernel object identity, bounded by
        #: :data:`KERNEL_CACHE_BOUND`.  Each entry pins its kernel, so a
        #: *live* id can never alias; a recycled id of a collected kernel
        #: is caught by the ``dk.kernel is not kernel`` check and evicted.
        self._decoded: OrderedDict = OrderedDict()
        #: When False, :meth:`run` uses the reference interpreter
        #: (:meth:`run_reference`) instead of the decoded fast path.
        self.use_decoded = True

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

    def run(self, kernel: CgaKernel, start_cycle: int) -> int:
        """Execute *kernel*; returns the physical cycle after completion.

        Dispatches to the reference interpreter or the decoded fast path
        (default).  The compiled tier does not come through here: it is
        :class:`repro.sim.batch.BatchProgramRunner`, which calls
        :meth:`run_decoded` only for kernels the code generator refuses.
        All tiers are bit-identical in architectural state, cycle counts
        and :class:`ActivityStats` (``tests/sim/test_differential.py``).
        """
        if not self.use_decoded:
            return self.run_reference(kernel, start_cycle)
        return self.run_decoded(kernel, start_cycle)

    def run_decoded(self, kernel: CgaKernel, start_cycle: int) -> int:
        """Tier-2 path: the kernel is lowered once by
        :mod:`repro.sim.decode` (LRU-cached by object identity) and the
        per-cycle loop runs over pre-sorted operations with bound
        handlers, pre-resolved source readers and a commit ring instead
        of a linear pending-write scan.
        """
        trip = kernel.trip_count
        if trip is None:
            if kernel.trip_count_reg is None:
                raise CgaFault("kernel %s has no trip count" % kernel.name)
            trip = self.cdrf.peek(kernel.trip_count_reg) & MASK32
        if trip <= 0:
            return start_cycle
        kid = id(kernel)
        dk = self._decoded.get(kid)
        if dk is not None and dk.kernel is not kernel:
            dk = None  # recycled id of a collected kernel
        if dk is None:
            dk = decode_kernel(
                kernel,
                self.arch,
                self.cdrf,
                self.cprf,
                self.local_rfs,
                self._out_latch,
                self.stats,
                CgaFault,
            )
            self._decoded[kid] = dk
            if len(self._decoded) > KERNEL_CACHE_BOUND:
                self._decoded.popitem(last=False)
        else:
            self._decoded.move_to_end(kid)

        stats = self.stats
        local_rfs = self.local_rfs
        cdrf_peek = self.cdrf.peek
        for preload in kernel.preloads:
            if preload.fu not in local_rfs:
                raise CgaFault("preload targets FU%d without a local RF" % preload.fu)
            local_rfs[preload.fu].write(preload.lrf_index, cdrf_peek(preload.cdrf_reg))
            stats.cdrf_reads += 1
        preload_cycles = (len(kernel.preloads) + 1) // 2
        start_cycle += preload_cycles

        ii = kernel.ii
        stages = kernel.stage_count
        total_logical = (trip + stages - 1) * ii
        out_latch = self._out_latch
        for i in range(len(out_latch)):
            out_latch[i] = 0

        ring: List[List[Tuple[int, int, tuple, int]]] = [
            [] for _ in range(COMMIT_RING_SLOTS)
        ]
        n_ring = COMMIT_RING_SLOTS
        in_flight = 0
        stall_offset = 0
        last_iter = trip - 1
        contexts = dk.contexts
        touches_central = dk.touches_central
        cdrf_begin = self.cdrf.begin_cycle
        cprf_begin = self.cprf.begin_cycle
        timed_read = self.scratchpad.timed_read
        timed_write = self.scratchpad.timed_write
        fu_ops = stats.fu_ops
        op_groups = stats.op_groups
        squashed = 0
        pred_weight = 0  # IPC-weighted executed predicated ops
        # Steady-state bounds: between these logical cycles every op of
        # every context is inside the trip window, so the per-op stage
        # gate is skipped.
        steady_lo = dk.max_stage * ii
        steady_hi = (trip + dk.min_stage) * ii
        phase = 0
        iter_slot = 0

        for logical in range(total_logical):
            slot = ring[logical % n_ring]
            if slot:
                for wr_fu, value, dsts, iteration in slot:
                    out_latch[wr_fu] = value
                    for write, last_only in dsts:
                        if last_only and iteration != last_iter:
                            continue
                        write(value)
                in_flight -= len(slot)
                del slot[:]
            ctx = contexts[phase]
            if touches_central:
                cdrf_begin()
                cprf_begin()
            steady = steady_lo <= logical < steady_hi
            if ctx.has_mem:
                physical = start_cycle + logical + stall_offset
                for op in ctx.ops:
                    iteration = iter_slot - op.stage
                    if not steady and not (0 <= iteration <= last_iter):
                        continue  # prologue/epilogue gating
                    pr = op.pred_reader
                    if pr is not None:
                        if ((pr(iteration) & 1) != 0) == op.pred_negate:
                            squashed += 1
                            continue
                        weight = op.weight
                        fu_ops[op.fu] += weight
                        op_groups[op.group] += weight
                        pred_weight += weight
                    kind = op.kind
                    if kind == KIND_DATAFLOW:
                        value = op.compute(iteration)
                    else:
                        base = op.base_reader(iteration) & MASK32
                        off_reader = op.off_reader
                        if off_reader is None:
                            addr = (base + op.off_const) & MASK32
                        else:
                            addr = (base + (off_reader(iteration) & MASK32)) & MASK32
                        if kind == KIND_LOAD:
                            raw, extra = timed_read(physical, addr, op.mem_size)
                            stall_offset += extra
                            value = op.load_convert(raw)
                        else:  # store: no latch write-back
                            value = op.store_reader(iteration) & op.store_mask
                            stall_offset += timed_write(
                                physical, addr, value, op.mem_size
                            )
                            continue
                    ring[(logical + op.latency) % n_ring].append(
                        (op.fu, value, op.dsts, iteration)
                    )
                    in_flight += 1
            else:
                # Steady-state fast path: no memory ops in this context,
                # hence no arbiter calls and no stall possibility.
                for op in ctx.ops:
                    iteration = iter_slot - op.stage
                    if not steady and not (0 <= iteration <= last_iter):
                        continue
                    pr = op.pred_reader
                    if pr is not None:
                        if ((pr(iteration) & 1) != 0) == op.pred_negate:
                            squashed += 1
                            continue
                        weight = op.weight
                        fu_ops[op.fu] += weight
                        op_groups[op.group] += weight
                        pred_weight += weight
                    ring[(logical + op.latency) % n_ring].append(
                        (op.fu, op.compute(iteration), op.dsts, iteration)
                    )
                    in_flight += 1
            phase += 1
            if phase == ii:
                phase = 0
                iter_slot += 1

        # Drain: in-flight results commit during the epilogue window; the
        # ring bounds visibility at MAX_OP_LATENCY cycles past issue.
        drain = 0
        while in_flight:
            drain += 1
            if drain > MAX_OP_LATENCY:
                raise CgaFault(
                    "kernel %s: pending write not visible within %d cycles "
                    "after the last context" % (kernel.name, MAX_OP_LATENCY)
                )
            slot = ring[(total_logical - 1 + drain) % n_ring]
            if slot:
                for wr_fu, value, dsts, iteration in slot:
                    out_latch[wr_fu] = value
                    for write, last_only in dsts:
                        if last_only and iteration != last_iter:
                            continue
                        write(value)
                in_flight -= len(slot)
                del slot[:]

        # Batched accounting: unpredicated ops execute a trip-dependent
        # number of times that decode precomputed symbolically; config
        # words and mode cycles accrue once per logical cycle.
        unpred_weight = 0
        for op_fu, group, weight, stage in dk.unpred_counts:
            n_exec = trip + stages - 1 - stage
            if n_exec > trip:
                n_exec = trip
            if n_exec <= 0:
                continue
            total_w = weight * n_exec
            fu_ops[op_fu] += total_w
            op_groups[group] += total_w
            unpred_weight += total_w
        stats.cga_ops += pred_weight + unpred_weight
        stats.squashed_ops += squashed
        stats.config_words += kernel.context_words * total_logical
        stats.cga_cycles += preload_cycles + total_logical + drain + stall_offset
        stats.add_stall(StallCause.BANK_CONFLICT, stall_offset)
        return start_cycle + total_logical + stall_offset + drain

    # ------------------------------------------------------------------

    def run_reference(self, kernel: CgaKernel, start_cycle: int) -> int:
        """Reference interpreter: the original per-cycle re-decoding loop.

        Kept as the ground truth the decoded fast path is differentially
        tested against; every static fact is re-derived each cycle.
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
        # Reset in place: decoded source readers capture the list object.
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
