"""The VLIW emitter: one branch-free bundle segment's lane-batched
function.

A segment runs from a start pc through its first bundle holding a live
branch or control instruction (:func:`vliw_segment_end`).  Its
canonical walk (:func:`vliw_layout`) yields the structural signature,
the runtime pool and the pool slot of every immediate; :class:`_VliwGen`
emits the bundles as straight-line code with the scoreboard, the
instruction cache and the scratchpad inlined.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.bits import MASK64
from repro.isa.instruction import Imm, PredReg, Reg
from repro.isa.opcodes import Opcode, OpGroup, group_of, latency_of, op_weight
from repro.isa.semantics import DATAFLOW_GROUPS, operand_count
from repro.sim import memops
from repro.sim.codegen.templates import (
    _CRF_COUNTERS, _INT, _L1_COUNTERS, _LANE_SHIFTS, _LANES, _SCALAR_EXPR, CodegenUnsupported,
    _as_int, _emit_flush, _emit_inline_read, _emit_inline_write, _emit_lane_batch, _emit_lanes,
    _emit_zero, _issue_counters, _lane_operand,
)
from repro.sim.program import VliwBundle


def vliw_segment_end(bundles: List[VliwBundle], start_pc: int) -> int:
    """Exclusive end of the straight-line segment starting at *start_pc*:
    through the first bundle containing a live branch or control
    instruction (inclusive), or the end of the stream."""
    pc = start_pc
    n = len(bundles)
    while pc < n:
        for inst in bundles[pc]:
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            group = group_of(inst.opcode)
            if group is OpGroup.BRANCH or group is OpGroup.CONTROL:
                return pc + 1
        pc += 1
    return n


def _vliw_imm_encoding(inst, src_index: int) -> Tuple[int, int]:
    """``(mask, shift)`` of one VLIW immediate's runtime pool value
    ``(value & mask) << shift``: branch targets and CGA kernel ids stay
    raw, memory offsets are pre-scaled raw, everything else is encoded
    into 64 bits two's-complement."""
    group = group_of(inst.opcode)
    if group in (OpGroup.BRANCH, OpGroup.CONTROL):
        return -1, 0
    if src_index == 1 and group in (OpGroup.LDMEM, OpGroup.STMEM):
        return -1, memops.mem_info(inst.opcode).imm_scale
    return MASK64, 0



def _operand_sig(operand) -> tuple:
    if isinstance(operand, Reg):
        return ("r", operand.index)
    if isinstance(operand, PredReg):
        return ("p", operand.index)
    if isinstance(operand, Imm):
        return ("i",)  # values live in the pool, not the key
    return ("?", repr(operand))


def vliw_layout(bundles, start_pc: int, end_pc: int):
    """``(signature, pool, site_index)`` of a segment, in one walk: its
    structural identity (immediate values excluded, so
    ``patch_constants`` program variants share one compiled artifact),
    its runtime pool and ``site_index[(pc, slot, i)]``, the pool slot of
    that source."""
    values: List[int] = []
    index: Dict[tuple, int] = {}
    seg = []
    for pc in range(start_pc, end_pc):
        insts = []
        for slot, inst in enumerate(bundles[pc]):
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            for i, operand in enumerate(inst.srcs):
                if isinstance(operand, Imm):
                    index[(pc, slot, i)] = len(values)
                    mask, shift = _vliw_imm_encoding(inst, i)
                    values.append((operand.value & mask) << shift)
            insts.append((slot, inst.opcode.value,
                          None if inst.dst is None else _operand_sig(inst.dst),
                          None if inst.pred is None else (inst.pred.index, inst.pred_negate),
                          tuple(_operand_sig(s) for s in inst.srcs)))
        seg.append(tuple(insts))
    return (start_pc, tuple(seg)), tuple(values), index


def vliw_patch_sites(bundles, index: Dict[tuple, int]) -> Dict[int, List[tuple]]:
    """Raw immediate -> its patch sites (see
    :func:`~repro.sim.codegen.analysis.patched_pool`) in the pool of
    the segment whose :func:`vliw_layout` site index is *index*."""
    sites: Dict[int, List[tuple]] = {}
    for (pc, slot, i), pool_slot in index.items():
        inst = bundles[pc].slots[slot]
        mask, shift = _vliw_imm_encoding(inst, i)
        sites.setdefault(inst.srcs[i].value, []).append((pool_slot, mask, shift, False))
    return sites


#: Instruction-cache counter locals and the ActivityStats fields they
#: flush into.
_IC_COUNTERS = {"n_ic_h": "icache_hits", "n_ic_m": "icache_misses"}


class _VliwGen:
    """Emits the straight-line function of one branch-free segment."""

    def __init__(self, bundles, start_pc: int, end_pc: int, slot_fus,
                 cdrf, cprf, fault, l1_geom: Tuple[int, int],
                 icache_geom: Tuple[int, int, int]) -> None:
        self.start_pc = start_pc
        self.end_pc = end_pc
        self.slot_fus = slot_fus
        self.cdrf_mask = (1 << cdrf.width) - 1
        self.word_bits = max(64, cdrf.width)
        self.ports = (cdrf.read_ports, cdrf.write_ports,
                      cprf.read_ports, cprf.write_ports)
        self.fault = fault
        self.l1_geom = l1_geom  # (n_banks, size_bytes)
        self.icache_geom = icache_geom  # (n_lines, bundles_per_line, miss_penalty)
        _sig, self.pool, self.pool_index = vliw_layout(bundles, start_pc, end_pc)
        self.lane_imms: set = set()
        self.wb_counter = 0
        #: Per pc, ``(slot, inst)`` of its live instructions.
        self.live = {pc: [(slot, inst) for slot, inst in enumerate(bundles[pc])
                          if inst is not None and inst.opcode is not Opcode.NOP]
                     for pc in range(start_pc, end_pc)}
        groups = [group_of(inst.opcode) for live in self.live.values() for _slot, inst in live]
        self.has_mem = any(g in (OpGroup.LDMEM, OpGroup.STMEM) for g in groups)
        self.has_load = OpGroup.LDMEM in groups

    # -- operand helpers -----------------------------------------------

    def _fu(self, slot: int) -> int:
        return self.slot_fus[slot] if slot < len(self.slot_fus) else slot

    def _read(self, lines: List[str], ind: str, pc: int, slot: int,
              i: int, operand) -> str:
        if isinstance(operand, Reg):
            lines.append(ind + "n_cdrf_r += 1")
            return "CD[%d]" % operand.index
        if isinstance(operand, PredReg):
            lines.append(ind + "n_cprf_r += 1")
            return "CP[%d]" % operand.index
        if isinstance(operand, Imm):
            return "imm_%d" % self.pool_index[(pc, slot, i)]
        raise self.fault("bad VLIW operand: %r" % (operand,))

    def _check_ports(self, live) -> None:
        """Static worst case of one bundle against the central-RF ports
        (see :meth:`.analysis.CgaSchedule._check_port_pressure` for the
        rationale)."""
        r_d = r_p = w_d = w_p = 0
        for _slot, inst in live:
            if inst.pred is not None:
                r_p += 1
            group = group_of(inst.opcode)
            for operand in inst.srcs:
                if isinstance(operand, Reg):
                    r_d += 1
                elif isinstance(operand, PredReg):
                    r_p += 1
            if group is OpGroup.BRANCH:
                if inst.opcode in (Opcode.JMPL, Opcode.BRL):
                    w_d += 1  # link write happens at issue time
            elif group in (OpGroup.LDMEM, *DATAFLOW_GROUPS) and inst.dst is not None:
                if isinstance(inst.dst, PredReg):
                    w_p += 1
                else:
                    w_d += 1
        for used, ports, what in (
            (r_d, self.ports[0], "CDRF reads"),
            (w_d, self.ports[1], "CDRF writes"),
            (r_p, self.ports[2], "CPRF reads"),
            (w_p, self.ports[3], "CPRF writes"),
        ):
            if used > ports:
                raise CodegenUnsupported(
                    "VLIW segment at pc %d: worst-case %s (%d) exceed %d ports"
                    % (self.start_pc, what, used, ports)
                )

    # -- per-instruction issue emission --------------------------------

    def _emit_inst(self, lines: List[str], ind: str, pc: int, slot: int,
                   inst, wb: Optional[dict]) -> None:
        group = group_of(inst.opcode)
        weight = op_weight(inst.opcode)
        fu = self._fu(slot)
        body = ind
        if inst.pred is not None:
            lines.append(ind + "n_cprf_r += 1")
            if inst.pred_negate:
                lines.append(ind + "if CP[%d] != 0:" % inst.pred.index)
            else:
                lines.append(ind + "if CP[%d] == 0:" % inst.pred.index)
            lines.append(ind + "    squashed += 1")
            lines.append(ind + "else:")
            body = ind + "    "
        lines.append(body + "n_fu%d += %d" % (fu, weight))
        lines.append(body + "n_g_%s += %d" % (group.name, weight))
        lines.append(body + "vliw_ops += %d" % weight)
        if group in DATAFLOW_GROUPS:
            arity = operand_count(inst.opcode)
            names = []
            for i, operand in enumerate(inst.srcs):
                names.append(self._read(lines, body, pc, slot, i, operand))
            if wb is None:
                return  # no destination: reads already accounted
            target = wb["var"]
            if group in (OpGroup.SIMD1, OpGroup.SIMD2):
                # Registers hold ints: lanes in at the reads, out at the
                # write-back.
                a = _lane_operand(names[0], _INT, self.lane_imms)
                b = None
                if arity == 2:
                    b = (names[1] if inst.opcode in _LANE_SHIFTS
                         else _lane_operand(names[1], _INT, self.lane_imms))
                lanes = _emit_lanes(lines, body, inst.opcode, a, b, self.word_bits)
                lines.append(body + "%s = %s" % (target, _as_int(lanes, _LANES)))
            else:
                use = names[:arity] + ["0"] * (2 - min(arity, 2))
                lines.append(
                    body + "%s = %s" % (target, _SCALAR_EXPR[inst.opcode](use[0], use[1]))
                )
        elif group is OpGroup.LDMEM:
            if len(inst.srcs) < 2:
                raise self.fault("%s needs base and offset sources" % inst.opcode.value)
            info = memops.mem_info(inst.opcode)
            base = self._read(lines, body, pc, slot, 0, inst.srcs[0])
            off = inst.srcs[1]
            if isinstance(off, Imm):
                lines.append(
                    body + "addr = (((%s) & 4294967295) + imm_%d) & 4294967295"
                    % (base, self.pool_index[(pc, slot, 1)])
                )
            else:
                offx = self._read(lines, body, pc, slot, 1, off)
                lines.append(
                    body + "addr = (((%s) & 4294967295) + ((%s) & 4294967295)) & 4294967295"
                    % (base, offx)
                )
            _emit_inline_read(lines, body, "cycle", info.size, *self.l1_geom)
            if wb is None:
                return
            target = wb["var"]
            if info.size == 8:
                lines.append(body + "%s = raw" % target)
            elif info.signed:
                hb = 1 << (info.size * 8 - 1)
                lines.append(body + "%s = ((raw ^ %d) - %d) & 4294967295" % (target, hb, hb))
            else:
                lines.append(body + "%s = raw & %d" % (target, (1 << (info.size * 8)) - 1))
            lines.append(body + "%s = cycle + %d + extra" % (wb["rdy"], latency_of(inst.opcode)))
        elif group is OpGroup.STMEM:
            if len(inst.srcs) != 3:
                raise self.fault("%s needs base, offset and value sources" % inst.opcode.value)
            if not isinstance(inst.srcs[1], Imm):
                raise self.fault("stores use immediate offsets (Table 1)")
            info = memops.mem_info(inst.opcode)
            base = self._read(lines, body, pc, slot, 0, inst.srcs[0])
            lines.append(
                body + "addr = (((%s) & 4294967295) + imm_%d) & 4294967295"
                % (base, self.pool_index[(pc, slot, 1)])
            )
            sv = self._read(lines, body, pc, slot, 2, inst.srcs[2])
            mask = (1 << (info.size * 8)) - 1
            # The write's conflict delay is ignored in VLIW mode (the
            # reference tier discards ``timed_write``'s return the same way).
            lines.append(body + "v_st = (%s) & %d" % (sv, mask))
            _emit_inline_write(lines, body, "cycle", info.size, *self.l1_geom)
        elif group is OpGroup.BRANCH:
            latency = latency_of(inst.opcode)
            lines.append(body + "taken = True")
            lines.append(body + "bl = %d" % latency)
            target_src = inst.srcs[0]
            if inst.opcode in (Opcode.JMP, Opcode.JMPL):
                if isinstance(target_src, Imm):
                    lines.append(body + "tgt = imm_%d" % self.pool_index[(pc, slot, 0)])
                else:
                    lines.append(body + "n_cdrf_r += 1")
                    lines.append(body + "tgt = CD[%d] & 4294967295" % target_src.index)
            else:  # br / brl: PC-relative in bundle units
                if not isinstance(target_src, Imm):
                    raise self.fault("relative branch needs an immediate offset")
                lines.append(
                    body + "tgt = %d + imm_%d" % (pc + 1, self.pool_index[(pc, slot, 0)])
                )
            if inst.opcode in (Opcode.JMPL, Opcode.BRL):
                link = inst.dst.index if inst.dst is not None else 9
                lines.append(body + "n_cdrf_w += 1")
                lines.append(body + "CD[%d] = %d" % (link, (pc + 1) & self.cdrf_mask))
                lines.append(body + "reg_ready[%d] = cycle + %d" % (link, latency))
        else:  # control
            if inst.opcode is Opcode.CGA:
                if inst.srcs:
                    if not isinstance(inst.srcs[0], Imm):
                        raise CodegenUnsupported("cga kernel id must be an immediate")
                    kid = "imm_%d" % self.pool_index[(pc, slot, 0)]
                else:
                    kid = "0"
                lines.append(
                    body + "stop = _Stop('cga', kernel_id=%s, next_pc=%d)" % (kid, pc + 1)
                )
            elif inst.opcode is Opcode.HALT:
                lines.append(body + "stop = _Stop('halt', next_pc=%d)" % (pc + 1))
            else:
                lines.append(body + "pass")

    # -- whole-function assembly ---------------------------------------

    def generate_batch(self) -> str:
        """One function advancing any number of packets through the
        segment: structure-of-arrays arguments, the scratchpad *and* the
        instruction cache inlined (per-lane tag lists with compile-time
        line index/tag constants), no tracer hooks — the lockstep
        runner requires tracing disabled.  Per-lane results land in
        ``stops``/``next_pcs``/``cycles_out``; a faulting lane lands its
        exception in ``faults[lane]`` (partial state unusable, re-run
        from scratch) while the remaining lanes complete."""
        lines = _emit_lane_batch(
            "def _vliw_run_batch(start_cycles, max_cycle, imms_s, CD_s, CP_s,"
            " reg_ready_s, pred_ready_s, icache_s, mem_s, stats_s,"
            " stops, next_pcs, cycles_out, faults):",
            "start_cycles", ("start_cycle = start_cycles[_b]", "imms = imms_s[_b]",
                             "CD = CD_s[_b]", "CP = CP_s[_b]", "reg_ready = reg_ready_s[_b]",
                             "pred_ready = pred_ready_s[_b]", "IT = icache_s[_b]._tags",
                             "stats = stats_s[_b]"),
            self.has_load, self.has_mem, len(self.pool), self._emit_lane, "_BF")
        return "\n".join(lines) + "\n"

    def _emit_fetch(self, lines: List[str], bind: str, pc: int) -> None:
        """Instruction fetch: the cache probe inlined with compile-time
        index/tag constants (``pc`` is a literal, so both are)."""
        w = lines.append
        n_lines_, bundles_per_line, penalty = self.icache_geom
        line_addr = pc // bundles_per_line
        index = line_addr % n_lines_
        tag = line_addr // n_lines_
        w(bind + "if IT[%d] == %d:" % (index, tag))
        w(bind + "    n_ic_h += 1")
        w(bind + "else:")
        w(bind + "    IT[%d] = %d" % (index, tag))
        w(bind + "    n_ic_m += 1")
        if penalty > 0:
            w(bind + "    add_stall(_IC, %d)" % penalty)
            w(bind + "    vliw_cycles += %d" % penalty)
            w(bind + "    cycle += %d" % penalty)

    def _emit_lane(self, lines: List[str], ind: str) -> set:
        w = lines.append
        # Issue counters accumulate in one integer local per FU / op
        # group the segment can touch and flush once in the epilogue: a
        # dict update per issued op is the dominant cost of a warm lane.
        used_fus, used_groups = _issue_counters(
            (self._fu(slot), group_of(inst.opcode))
            for live in self.live.values() for slot, inst in live)
        _emit_zero(lines, ind, ["n_fu%d" % fu for fu in used_fus])
        _emit_zero(lines, ind, ["n_g_%s" % g for g in used_groups])
        w(ind + "add_stall = stats.add_stall")
        w(ind + "rrg = reg_ready.get")
        w(ind + "prg = pred_ready.get")
        w(ind + "cycle = start_cycle")
        w(ind + "vliw_cycles = 0")
        w(ind + "vliw_ops = 0")
        w(ind + "squashed = 0")
        _emit_zero(lines, ind, _CRF_COUNTERS)
        if self.has_mem:
            _emit_zero(lines, ind, _L1_COUNTERS)
        _emit_zero(lines, ind, _IC_COUNTERS)
        w(ind + "stop = None")
        w(ind + "next_pc = %d" % self.end_pc)
        has_branch = any(group_of(inst.opcode) is OpGroup.BRANCH
                         for _slot, inst in self.live.get(self.end_pc - 1, ()))
        if has_branch:
            # A predicated terminator branch may squash: pre-clear the
            # taken flag so the epilogue always sees a bound value.
            w(ind + "taken = False")
            w(ind + "bl = 0")
            w(ind + "tgt = 0")
        w(ind + "try:")
        bind = ind + "    "
        for pc, live in self.live.items():
            self._check_ports(live)
            w(bind + "# pc %d" % pc)
            w(bind + "if max_cycle is not None and cycle > max_cycle:")
            w(bind + "    raise _VF('exceeded %d cycles in VLIW mode' % max_cycle)")
            self._emit_fetch(lines, bind, pc)
            # Scoreboard interlock over statically-deduped source lists.
            need_regs: List[int] = []
            need_preds: List[int] = []
            for _slot, inst in live:
                for operand in inst.srcs:
                    if isinstance(operand, Reg) and operand.index not in need_regs:
                        need_regs.append(operand.index)
                    elif isinstance(operand, PredReg) and operand.index not in need_preds:
                        need_preds.append(operand.index)
                if inst.pred is not None and inst.pred.index not in need_preds:
                    need_preds.append(inst.pred.index)
            if need_regs or need_preds:
                w(bind + "need = 0")
                for index in need_regs:
                    w(bind + "t = rrg(%d, 0)" % index)
                    w(bind + "if t > need:")
                    w(bind + "    need = t")
                for index in need_preds:
                    w(bind + "t = prg(%d, 0)" % index)
                    w(bind + "if t > need:")
                    w(bind + "    need = t")
                w(bind + "if need > cycle:")
                w(bind + "    wait = need - cycle")
                w(bind + "    add_stall(_IL, wait)")
                w(bind + "    vliw_cycles += wait")
                w(bind + "    cycle = need")
            # Issue: pre-clear predicated writeback slots, then the
            # instructions in slot order; two-phase write-back follows.
            wbs = []
            for slot, inst in live:
                group = group_of(inst.opcode)
                wb = None
                if inst.dst is not None and (
                    group is OpGroup.LDMEM or group in DATAFLOW_GROUPS
                ):
                    j = self.wb_counter
                    self.wb_counter += 1
                    wb = {
                        "var": "wb%d" % j,
                        "rdy": "rdy%d" % j,
                        "is_pred": isinstance(inst.dst, PredReg),
                        "index": inst.dst.index,
                        "latency": latency_of(inst.opcode),
                        "is_load": group is OpGroup.LDMEM,
                        "guarded": inst.pred is not None,
                    }
                    wbs.append(wb)
                    if wb["guarded"]:
                        w(bind + "%s = _A" % wb["var"])
                self._emit_inst(lines, bind, pc, slot, inst, wb)
            for wb in wbs:
                sub = bind
                if wb["guarded"]:
                    w(bind + "if %s is not _A:" % wb["var"])
                    sub = bind + "    "
                ready = "%s" % wb["rdy"] if wb["is_load"] else "cycle + %d" % wb["latency"]
                if wb["is_pred"]:
                    w(sub + "n_cprf_w += 1")
                    w(sub + "CP[%d] = %s & 1" % (wb["index"], wb["var"]))
                    w(sub + "pred_ready[%d] = %s" % (wb["index"], ready))
                else:
                    w(sub + "n_cdrf_w += 1")
                    w(sub + "CD[%d] = %s & %d" % (wb["index"], wb["var"], self.cdrf_mask))
                    w(sub + "reg_ready[%d] = %s" % (wb["index"], ready))
            w(bind + "vliw_cycles += 1")
            w(bind + "cycle += 1")
        # Terminator epilogue: the last bundle may have taken a branch
        # (stop wins over a taken branch, exactly like the reference loop).
        if has_branch:
            w(bind + "if stop is None and taken:")
            w(bind + "    dead = bl - 1")
            w(bind + "    add_stall(_BR, dead)")
            w(bind + "    vliw_cycles += dead")
            w(bind + "    cycle += dead")
            w(bind + "    next_pc = tgt")
        w(ind + "finally:")
        if used_fus:
            w(ind + "    fu_ops = stats.fu_ops")
            for fu in used_fus:
                w(ind + "    fu_ops[%d] += n_fu%d" % (fu, fu))
        if used_groups:
            w(ind + "    op_groups = stats.op_groups")
            for g in used_groups:
                w(ind + "    op_groups[_G_%s] += n_g_%s" % (g, g))
        w(ind + "    stats.vliw_cycles += vliw_cycles")
        w(ind + "    stats.vliw_ops += vliw_ops")
        w(ind + "    stats.squashed_ops += squashed")
        _emit_flush(lines, ind + "    ",
                    {**_CRF_COUNTERS, **(_L1_COUNTERS if self.has_mem else {}), **_IC_COUNTERS})
        w(ind + "stops[_b] = stop")
        w(ind + "next_pcs[_b] = next_pc")
        w(ind + "cycles_out[_b] = cycle")
        return self.lane_imms
