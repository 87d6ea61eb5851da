"""VLIW-mode execution engine: 3-issue, in-order, scoreboarded.

The engine executes :class:`~repro.sim.program.VliwBundle` streams:

* bundles issue in order; a bundle waits until every source register it
  reads is ready (scoreboard interlock covers multi-cycle latencies and
  variable load latency from L1 bank contention);
* instruction fetch goes through the I$ timing model; misses stall;
* taken branches pay the Table 1 latency (2 absolute / 3 PC-relative)
  as dead cycles; not-taken (squashed) branches pay nothing;
* predication reads the CPRF; squashed operations have no architectural
  effect and are counted separately.

The engine stops when it reaches a ``cga`` instruction (handing the
kernel id to the core), a ``halt``, or the end of the bundle stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.bits import MASK32
from repro.isa.instruction import Imm, Instruction, PredReg, Reg
from repro.isa.opcodes import Opcode, OpGroup, group_of, latency_of
from repro.isa.semantics import execute as exec_semantics
from repro.sim import memops
from repro.sim.icache import InstructionCache
from repro.sim.memory import Scratchpad
from repro.sim.program import VliwBundle
from repro.sim.regfile import PredicateFile, RegisterFile
from repro.sim.stats import ActivityStats
from repro.trace.events import StallCause
from repro.trace.tracer import NULL_TRACER, Tracer


class VliwFault(Exception):
    """Raised on malformed VLIW code (bad operands, slot capability)."""


@dataclass
class StopEvent:
    """Why the engine returned control to the core."""

    reason: str  # "cga", "halt", "end"
    kernel_id: Optional[int] = None
    next_pc: int = 0


class VliwEngine:
    """Executes the VLIW instruction stream of a program."""

    def __init__(
        self,
        bundles: List[VliwBundle],
        cdrf: RegisterFile,
        cprf: PredicateFile,
        scratchpad: Scratchpad,
        icache: InstructionCache,
        stats: ActivityStats,
        slot_fus: Optional[List[int]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.bundles = bundles
        self.cdrf = cdrf
        self.cprf = cprf
        self.scratchpad = scratchpad
        self.icache = icache
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: FU index behind each issue slot (for per-FU op accounting).
        self.slot_fus = slot_fus if slot_fus is not None else [0, 1, 2]
        #: Scoreboard: register index -> cycle at which the value is usable.
        self._reg_ready: Dict[int, int] = {}
        self._pred_ready: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def _src_value(self, operand, cycle: int) -> int:
        if isinstance(operand, Reg):
            return self.cdrf.read(operand.index)
        if isinstance(operand, PredReg):
            return self.cprf.read(operand.index)
        if isinstance(operand, Imm):
            # Two's-complement encode negative immediates into 64 bits.
            return operand.value & ((1 << 64) - 1)
        raise VliwFault("bad VLIW operand: %r" % (operand,))

    def _ready_cycle(self, inst: Instruction) -> int:
        """Earliest cycle at which every source (and guard) of *inst* is ready."""
        ready = 0
        for operand in inst.srcs:
            if isinstance(operand, Reg):
                ready = max(ready, self._reg_ready.get(operand.index, 0))
            elif isinstance(operand, PredReg):
                ready = max(ready, self._pred_ready.get(operand.index, 0))
        if inst.pred is not None and isinstance(inst.pred, PredReg):
            ready = max(ready, self._pred_ready.get(inst.pred.index, 0))
        return ready

    def _guard_passes(self, inst: Instruction) -> bool:
        if inst.pred is None:
            return True
        value = self.cprf.read(inst.pred.index)
        return bool(value) != inst.pred_negate

    # ------------------------------------------------------------------

    def run_reference(
        self, start_pc: int, start_cycle: int, max_cycle: Optional[int] = None
    ) -> Tuple[StopEvent, int]:
        """Execute from *start_pc*; returns (stop event, cycle after stop).

        The interpreted loop: each bundle is re-decoded on every issue.
        It is the oracle the compiled tier
        (:class:`repro.sim.batch.BatchProgramRunner`) is checked against
        and the runner's fallback for segments the code generator
        refuses.  Raises :class:`VliwFault` when *max_cycle* is exceeded
        (runaway loop protection).
        """
        pc = start_pc
        cycle = start_cycle
        n_bundles = len(self.bundles)
        while 0 <= pc < n_bundles:
            if max_cycle is not None and cycle > max_cycle:
                raise VliwFault("exceeded %d cycles in VLIW mode" % max_cycle)
            bundle = self.bundles[pc]
            # Instruction fetch.
            miss = self.icache.fetch(pc, cycle)
            if miss:
                self.stats.add_stall(StallCause.ICACHE_MISS, miss)
                self.stats.vliw_cycles += miss
                cycle += miss
            # Scoreboard interlock: the whole bundle waits for its sources.
            need = 0
            for inst in bundle:
                if inst is not None and inst.opcode is not Opcode.NOP:
                    need = max(need, self._ready_cycle(inst))
            if need > cycle:
                wait = need - cycle
                self.stats.add_stall(StallCause.INTERLOCK, wait)
                self.stats.vliw_cycles += wait
                if self.tracer.enabled:
                    self.tracer.instant(
                        "stall.interlock",
                        cycle,
                        cat="stall",
                        args={"pc": pc, "cycles": wait},
                    )
                cycle = wait + cycle
            # Issue.
            self.cdrf.begin_cycle()
            self.cprf.begin_cycle()
            taken_branch: Optional[Tuple[int, int]] = None  # (target, latency)
            stop: Optional[StopEvent] = None
            writebacks: List[Tuple[Instruction, int, int]] = []  # inst, value, ready
            for slot, inst in enumerate(bundle):
                if inst is None or inst.opcode is Opcode.NOP:
                    continue
                if not self._guard_passes(inst):
                    self.stats.squashed_ops += 1
                    continue
                group = group_of(inst.opcode)
                fu = self.slot_fus[slot] if slot < len(self.slot_fus) else slot
                self.stats.count_op(fu, inst.opcode, in_cga=False)
                if group is OpGroup.CONTROL:
                    if inst.opcode is Opcode.CGA:
                        kid = inst.srcs[0].value if inst.srcs else 0
                        stop = StopEvent("cga", kernel_id=kid, next_pc=pc + 1)
                    elif inst.opcode is Opcode.HALT:
                        stop = StopEvent("halt", next_pc=pc + 1)
                    continue
                if group is OpGroup.BRANCH:
                    taken_branch = self._exec_branch(inst, pc, cycle)
                    continue
                if group is OpGroup.LDMEM:
                    writebacks.append(self._exec_load(inst, cycle))
                    continue
                if group is OpGroup.STMEM:
                    self._exec_store(inst, cycle)
                    continue
                srcs = [self._src_value(s, cycle) for s in inst.srcs]
                value = exec_semantics(inst.opcode, srcs)
                writebacks.append((inst, value, cycle + latency_of(inst.opcode)))
            # Write-back phase (two-phase so intra-bundle reads see old values).
            for inst, value, ready in writebacks:
                self._write_dst(inst, value, ready)
            self.stats.vliw_cycles += 1
            cycle += 1
            if stop is not None:
                return stop, cycle
            if taken_branch is not None:
                target, latency = taken_branch
                dead = latency - 1
                self.stats.add_stall(StallCause.BRANCH, dead)
                self.stats.vliw_cycles += dead
                if self.tracer.enabled:
                    self.tracer.instant(
                        "stall.branch",
                        cycle,
                        cat="stall",
                        args={"pc": pc, "target": target, "cycles": dead},
                    )
                cycle += dead
                pc = target
            else:
                pc += 1
        return StopEvent("end", next_pc=pc), cycle

    # ------------------------------------------------------------------

    def _write_dst(self, inst: Instruction, value: int, ready: int) -> None:
        dst = inst.dst
        if dst is None:
            return
        if isinstance(dst, Reg):
            self.cdrf.write(dst.index, value)
            self._reg_ready[dst.index] = ready
        elif isinstance(dst, PredReg):
            self.cprf.write(dst.index, value & 1)
            self._pred_ready[dst.index] = ready
        else:
            raise VliwFault("bad VLIW destination: %r" % (dst,))

    def _exec_branch(self, inst: Instruction, pc: int, cycle: int) -> Tuple[int, int]:
        op = inst.opcode
        latency = latency_of(op)
        if op in (Opcode.JMP, Opcode.JMPL):
            target_src = inst.srcs[0]
            target = (
                target_src.value
                if isinstance(target_src, Imm)
                else self.cdrf.read(target_src.index) & MASK32
            )
        else:  # br / brl: PC-relative in bundle units
            offset = inst.srcs[0]
            if not isinstance(offset, Imm):
                raise VliwFault("relative branch needs an immediate offset")
            target = pc + 1 + offset.value
        if op in (Opcode.JMPL, Opcode.BRL):
            link = inst.dst if inst.dst is not None else Reg(9)
            self.cdrf.write(link.index, pc + 1)
            self._reg_ready[link.index] = cycle + latency
        return target, latency

    def _exec_load(self, inst: Instruction, cycle: int) -> Tuple[Instruction, int, int]:
        base_op, off_op = inst.srcs[0], inst.srcs[1]
        base = self._src_value(base_op, cycle) & MASK32
        offset_is_imm = isinstance(off_op, Imm)
        offset = off_op.value if offset_is_imm else self._src_value(off_op, cycle) & MASK32
        addr = memops.effective_address(inst.opcode, base, offset, offset_is_imm)
        info = memops.mem_info(inst.opcode)
        raw, extra = self.scratchpad.timed_read(cycle, addr, info.size)
        value = memops.load_result(inst.opcode, raw)
        return inst, value, cycle + latency_of(inst.opcode) + extra

    def _exec_store(self, inst: Instruction, cycle: int) -> None:
        base_op, off_op, val_op = inst.srcs
        base = self._src_value(base_op, cycle) & MASK32
        if not isinstance(off_op, Imm):
            raise VliwFault("stores use immediate offsets (Table 1)")
        addr = memops.effective_address(inst.opcode, base, off_op.value, True)
        value = self._src_value(val_op, cycle)
        raw, size = memops.store_payload(inst.opcode, value)
        self.scratchpad.timed_write(cycle, addr, raw, size)
