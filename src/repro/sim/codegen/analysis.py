"""The schedule analysis of a CGA kernel at a trip count.

A pure function of the kernel, the architecture and the trip, found
once before any source is emitted (:class:`CgaSchedule`): the
kernel's canonical walk (structural signature, runtime pool and pool
site of every operand), each operation's commit chain, the static
central-RF port check, the unrolled prologue/epilogue around the
steady-state window, the per-slot step list both the location events
and the CGA emitter (:mod:`.emit_cga`) walk, and per location event
which lanes of its value are read later (lane liveness) and, for a
SIMD result, the int16 interval each lane lies in (lane ranges).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.isa.bits import MASK64
from repro.isa.opcodes import MAX_OP_LATENCY, Opcode, OpGroup, group_of, latency_of, op_weight
from repro.isa.semantics import DATAFLOW_GROUPS, operand_count
from repro.sim import memops
from repro.sim.codegen.templates import (
    _FULL, _I16, _LANE_INFIX, _LANE_SHIFTS, CodegenUnsupported, _exact, _lane_raw, _lane_reads,
    _lane_result, _literal_lanes,
)
from repro.sim.program import CgaKernel, DstKind, SrcKind, SrcSel

# ----------------------------------------------------------------------
# Structural signature and immediate pool
# ----------------------------------------------------------------------
#
# The signature keys the cache; the pool carries everything the
# signature excludes (immediate and phi-init values, central-RF
# register indices read or written) as runtime arguments, so kernels
# that differ only in those share one source.  One walk yields both, in
# one canonical order (contexts in sequence, FUs sorted within a
# context, pred before srcs before dsts within an op), so a signature
# hit guarantees pool-slot agreement.


def _iter_cga_ops(kernel: CgaKernel) -> Iterator[Tuple[int, int, int, object]]:
    """Yield ``(ctx_index, position, fu, op)`` in canonical order."""
    for ci, ctx in enumerate(kernel.contexts):
        for pos, fu in enumerate(sorted(ctx.ops)):
            yield ci, pos, fu, ctx.ops[fu]


def _pool_shift(op, src_index: Optional[int], sel: SrcSel) -> int:
    """The left shift an IMM selection's pool value carries: the
    mem-offset pre-scaling :func:`repro.sim.memops.effective_address`
    applies (IMM offset, no phi init), else 0."""
    if (
        src_index == 1
        and sel.init is None
        and group_of(op.opcode) in (OpGroup.LDMEM, OpGroup.STMEM)
    ):
        return memops.mem_info(op.opcode).imm_scale
    return 0


def _pool_value(op, src_index: Optional[int], sel: SrcSel) -> int:
    """The runtime value of an IMM selection (see :func:`_pool_shift`)."""
    return (sel.value & MASK64) << _pool_shift(op, src_index, sel)


#: Source kinds whose register index lives in the pool, not the source.
_POOLED_SRCS = (SrcKind.CDRF, SrcKind.CPRF)

#: The lane-select opcodes: with an operand whose four 16-bit lanes are
#: each 0 or -1 (a mask, e.g. ``MASK_EVEN``/``MASK_ODD`` of
#: ``kernels/common.py``, or a routing move's 0), each result lane is an
#: operand lane or a constant, which the emitter folds while generating
#: (``templates._fold_lane``).
_LANE_SELECT = frozenset(_LANE_INFIX)

#: Lane-select opcodes that return their first operand when the second
#: is 0.  The scheduler's routing moves (``MOVE_OPCODE``, ``c4add x, 0``)
#: are the common case; the generator emits such an op as a plain copy.
_IDENTITY_WITH_ZERO = frozenset({Opcode.C4ADD, Opcode.C4SUB, Opcode.C4OR, Opcode.C4XOR})


#: The opcodes with baked sites (see :func:`_baked_site`).
_BAKING = _LANE_SELECT | _LANE_SHIFTS


def _is_mask(word: int) -> bool:
    """Is each 16-bit lane of the 64-bit *word* 0 or -1?"""
    return all((word >> s) & 65535 in (0, 65535) for s in (0, 16, 32, 48))


def _baked_site(op, i: Optional[int]) -> bool:
    """Is source *i* of *op* a non-phi immediate whose value decides the
    emitted code: an operand of a lane-select opcode (whether it is a
    mask, and which) or a shift amount?  The signature records what
    such a site bakes (:func:`_bake`); every other immediate value stays
    out of the key."""
    if i is None or op.opcode not in _BAKING or (i != 1 and op.opcode in _LANE_SHIFTS):
        return False
    sel = op.srcs[i]
    return sel.kind is SrcKind.IMM and sel.init is None


def _bake(op, value: int) -> Optional[int]:
    """The constant generated code reads at a baked site of *op* holding
    the raw *value*: a shift's amount (its low 4 bits), a lane select's
    mask, or ``None`` (any other value is read from the pool)."""
    value &= MASK64
    if op.opcode in _LANE_SHIFTS:
        return value & 15
    return value if _is_mask(value) else None


def _baked(op, i: Optional[int]) -> Optional[int]:
    """The constant source *i* of *op* is baked as, or ``None``."""
    return _bake(op, op.srcs[i].value) if _baked_site(op, i) else None


def _is_identity(op) -> bool:
    """Does *op* return exactly its first operand (e.g. a routing move)?"""
    return op.opcode in _IDENTITY_WITH_ZERO and len(op.srcs) == 2 and _baked(op, 1) == 0


def _sel_sig(sel: Optional[SrcSel], baked: Optional[int] = None) -> Optional[tuple]:
    if sel is None:
        return None
    return (
        sel.kind.value,
        baked if sel.kind is SrcKind.IMM or sel.kind in _POOLED_SRCS else sel.value,
        sel.init is not None,
    )


def cga_layout(kernel: CgaKernel) -> Tuple[tuple, Tuple[int, ...], Dict[tuple, tuple]]:
    """``(signature, pool, site_index)`` of *kernel*, in one walk.

    The signature is the kernel's structural identity: everything except
    immediate and phi-init *values* and central-RF register indices (all
    pooled), the trip count, preloads and the name.  The one
    value-dependent part is what each baked site holds (:func:`_bake`:
    a lane select's mask, ``None`` when it holds none, or a shift
    amount), which the emitter bakes in, so a hit stays valid under
    ``patch_constants`` unless a replacement changes that.  ``site_index``
    maps ``(ctx, fu, role, index)`` to ``(slot, init_slot)``: the pool slot of an immediate's value or a
    central register's index, and of a phi's init.  Role ``"dst"``
    sites are central-RF writes."""
    values: List[int] = []
    index: Dict[tuple, Tuple[Optional[int], Optional[int]]] = {}
    ctxs = []
    for ci, ctx in enumerate(kernel.contexts):
        ops = []
        for fu in sorted(ctx.ops):
            op = ctx.ops[fu]
            sites = [("pred", None, op.pred)] if op.pred is not None else []
            sites += [("src", i, sel) for i, sel in enumerate(op.srcs)]
            for role, i, sel in sites:
                imm_slot = init_slot = None
                if sel.kind is SrcKind.IMM:
                    imm_slot = len(values)
                    values.append(_pool_value(op, i, sel))
                elif sel.kind in _POOLED_SRCS:
                    imm_slot = len(values)
                    values.append(sel.value)
                if sel.init is not None:
                    init_slot = len(values)
                    values.append(sel.init & MASK64)
                index[(ci, fu, role, i)] = (imm_slot, init_slot)
            for j, dst in enumerate(op.dsts):
                if dst.kind is not DstKind.LRF:
                    index[(ci, fu, "dst", j)] = (len(values), None)
                    values.append(dst.index)
            srcs = tuple(_sel_sig(s, _baked(op, i)) for i, s in enumerate(op.srcs))
            ops.append((fu, op.opcode.value, op.stage, op.pred_negate, _sel_sig(op.pred), srcs,
                        tuple((d.kind.value, d.index if d.kind is DstKind.LRF else None,
                               d.last_iteration_only) for d in op.dsts)))
        ctxs.append(tuple(ops))
    return (kernel.ii, kernel.stage_count, tuple(ctxs)), tuple(values), index


# ----------------------------------------------------------------------
# Pools of patched clones
# ----------------------------------------------------------------------
#
# ``patch_constants`` replaces immediates by raw value and leaves the
# structure alone, so a clone's pool is its template's with the patched
# slots re-encoded.  A patch site is ``(slot, mask, shift, baked)``: the
# slot holds ``(raw & mask) << shift``, and *baked* is the op of a baked
# site (:func:`_baked_site`), whose baked constant the signature sees,
# else ``None``.


def cga_patch_sites(kernel: CgaKernel, index: Dict[tuple, tuple]) -> Dict[int, List[tuple]]:
    """Raw immediate or phi-init value -> its patch sites in the pool
    of *kernel*, whose :func:`cga_layout` site index is *index*."""
    sites: Dict[int, List[tuple]] = {}
    for (ci, fu, role, i), (imm_slot, init_slot) in index.items():
        if role == "dst":
            continue
        op = kernel.contexts[ci].ops[fu]
        sel = op.pred if role == "pred" else op.srcs[i]
        if sel.kind is SrcKind.IMM:
            sites.setdefault(sel.value, []).append(
                (imm_slot, MASK64, _pool_shift(op, i, sel), op if _baked_site(op, i) else None))
        if sel.init is not None:
            sites.setdefault(sel.init, []).append((init_slot, MASK64, 0, None))
    return sites


def patched_pool(pool: tuple, sites: Dict[int, List[tuple]],
                 mapping: Dict[int, int]) -> Optional[tuple]:
    """The pool a layout walk of ``patch_constants(obj, mapping)`` would
    build, from *obj*'s *pool* and patch *sites*; ``None`` when a
    replacement changes what a baked site bakes, which changes the
    signature too (the caller walks the clone instead)."""
    values = None
    for raw, new in mapping.items():
        for slot, mask, shift, baked in sites.get(raw, ()):
            if baked is not None and _bake(baked, raw) != _bake(baked, new):
                return None
            if values is None:
                values = list(pool)
            values[slot] = (new & mask) << shift
    return pool if values is None else tuple(values)


# ----------------------------------------------------------------------
# Commit chains and the per-slot step list
# ----------------------------------------------------------------------
#
# Values are held by *locations*: the output latches ``l_<fu>``, the
# local-RF entries ``r<fu>_<e>`` and the shift registers ``w<oid>_<j>``.
# A read or write of a location is an *event*.  The step list says, per
# slot, which chains commit (whether a value is present, whether it is
# the last iteration's) and which ops issue (whether a phi reads its
# init, whether the op is its context's first memory access); the events
# of a step follow from it and the sites and writes of its chain alone
# (:meth:`_CgaChain.issue_log`, :meth:`_CgaChain.commit_log`).
# The emitter walks the same steps and makes the same events in the same
# order, so what :meth:`CgaSchedule._lane_passes` finds per logged event
# holds for that event of the emission.
#
# Each event also says how its value flows: a write where its value
# comes from (a constant at kernel entry, the read just before it, an
# op's operands), a read what it needs of the value it reads.  Needs
# are lane masks: bit ``k`` for lane ``k`` of a value, and
# :data:`_INT_USE` when a consumer reads it as a whole int inside the
# kernel (an address, a scalar operand, a central-RF write).  Backwards
# over the log, the *live mask* of an event is what is read of the value
# it leaves before it is overwritten, and an op's operand reads need
# only what its live result lanes read (:func:`templates._lane_reads`):
# a lane nothing reads is never computed.  Forwards, each value carries
# an int16 interval per lane (:func:`templates._lane_raw`), so a lane
# clamps only where its interval can cross int16's.

#: Lane-mask bits: the four lanes, a whole-int use, and both; a scalar
#: operand or an address reads only the low 32 bits, lanes 0 and 1.
_LANE_USE = 15
_INT_USE = 16
_ANY_USE = _LANE_USE | _INT_USE
_LOW_USE = 0b0011 | _INT_USE

#: Lane intervals of a value whose upper 32 bits are zero: a scalar
#: result or a load of at most 4 bytes.
_LOW32 = (_I16, _I16, (0, 0), (0, 0))

#: What a store reads of its value, by access size: 8 and 4 bytes are
#: written from lanes, narrower ones from the int's low bits.
_STORE_USE = {8: _LANE_USE, 4: 0b0011}

#: What an operand needs, indexed by what is read of its op's result:
#: a scalar op's reads its low 32 bits as an int, a routing move's the
#: same as its result.
_WHOLE_NEED = (0,) + (_LOW_USE,) * _ANY_USE
_SAME_NEED = tuple(range(_ANY_USE + 1))
_NEED_TABLES: Dict[tuple, tuple] = {}


def _lane_need(masks: tuple) -> tuple:
    """The need table of a SIMD operand whose lanes ``masks[k]`` result
    lane ``k`` reads (a whole-int use of the result reads its lanes)."""
    table = _NEED_TABLES.get(masks)
    if table is None:
        lanes = [0] * 16
        for r in range(1, 16):
            low = r & -r
            lanes[r] = lanes[r ^ low] | masks[low.bit_length() - 1]
        table = _NEED_TABLES[masks] = tuple(lanes * 2)
    return table


# An event is ``(location, kind, x, y)``; its other events are named
# by their distance from it, so a chain logs the same tuples wherever
# its issue or commit falls.  Reads (kinds below ``_W_CONST``) need:
# ``x`` (``_R_MASK``); ``y[live mask of the write x events on]``
# (``_R_NEED``, an operand of the op that write computes); the live
# mask of the next event, their copy (``_R_COPY``); or, for a commit,
# ``y`` plus per ``(distance, whole)`` of ``x`` that write's live mask,
# or every use if *whole* (a masked local-RF write).  ``_R_KEEP`` is a
# conditional write (a predicated op's commit): it keeps the old value
# live, and the location then holds either.  Writes hold: the
# intervals ``x`` (``_W_CONST``; ``None``: an empty register), what the
# read ``x`` events back read (``_W_COPY``) or the result of the SIMD
# op of chain ``x`` (its oid) from the operand reads ``y`` events back
# (``_W_OP``).
_R_MASK, _R_NEED, _R_COPY, _R_COMMIT, _R_KEEP, _W_CONST, _W_COPY, _W_OP = range(8)

#: The SIMD ops a lane's interval can make clamp (add, sub, the q15
#: products, negate) or wrap (the left shift).
_CLAMPING = frozenset({Opcode.C4ADD, Opcode.C4SUB, Opcode.D4PROD, Opcode.C4PROD,
                       Opcode.C4NEGB, Opcode.C4SHIFTL})


class _CgaChain:
    """One operation's result pipeline: issue phase, commit phase, the
    shift registers carrying the in-flight value, its operand sites and
    its destination writes."""

    __slots__ = ("oid", "ci", "pos", "fu", "op", "group", "kind", "latency",
                 "weight", "stage", "q", "delta", "n", "arity", "simd", "identity",
                 "shifts", "key", "latch", "regs", "pred_site", "src_sites", "sites",
                 "fires", "lane_reads", "size", "lanes", "src_lanes", "amount",
                 "_issue_logs", "_commit_logs")

    def __init__(self, oid, ci, pos, fu, op, group, kind, ii):
        self.oid = oid
        self.ci = ci
        self.pos = pos
        self.fu = fu
        self.op = op
        self.group = group
        self.kind = kind  # "dataflow" | "load" | "store"
        self.latency = latency_of(op.opcode)
        self.weight = op_weight(op.opcode)
        self.stage = op.stage
        self.arity = operand_count(op.opcode) if kind == "dataflow" else 0
        self.simd = group in (OpGroup.SIMD1, OpGroup.SIMD2)
        self.identity = self.simd and _is_identity(op)
        self.shifts = op.opcode in _LANE_SHIFTS
        self.key = "x%d" % oid  # the locals its values are named after
        self.latch = "l_%d" % fu
        if kind == "store":
            self.q = self.delta = self.n = 0
        else:
            self.q = (ci + self.latency) % ii
            self.delta = (ci + self.latency) // ii
            self.n = self.delta + (1 if self.q > ci else 0)
        self.regs = ["w%d_%d" % (oid, j) for j in range(self.n)]
        self.size = memops.mem_info(op.opcode).size if kind != "dataflow" else 0
        #: The lane intervals of every result, when they do not depend
        #: on the operands: a load's or a scalar op's (see
        #: :meth:`CgaSchedule._result_lanes`).
        self.lanes = None
        if kind == "load":
            self.lanes = _FULL if self.size == 8 else _LOW32
        elif not self.simd:
            self.lanes = _LOW32
        #: Per result lane, the ``(source, lane)`` pairs it reads, and per
        #: source the lanes of an operand that is no location: a baked
        #: mask's literals, else anything.
        self.lane_reads = None
        self.src_lanes = [_FULL, _FULL]
        #: A shift's baked amount (``None``: read at run time).
        self.amount = _baked(op, 1) if self.shifts else None
        if self.simd and not self.identity:
            lits = [None, None]
            if op.opcode in _LANE_SELECT:
                for i in range(len(op.srcs)):
                    baked = _baked(op, i)
                    if baked is not None:
                        lits[i] = _literal_lanes(baked)
                        self.src_lanes[i] = tuple(_exact(x) for x in lits[i])
            self.lane_reads = _lane_reads(op.opcode, lits)
        #: Per ``it0``, and per ``(register, present, last, shift)``,
        #: the events of an issue and of a commit (:meth:`issue_log`,
        #: :meth:`commit_log`).
        self._issue_logs = None
        self._commit_logs = {}

    def _operand_need(self, i: int):
        """What source *i* of an unpredicated op needs of its operand: a
        mask, or a table from what is read of the op's result (the
        index) to what the operand must supply.  An address needs the
        int's low 32 bits; a store's value the lanes or the int it
        writes (:data:`_STORE_USE`); a scalar operand the int's low 32
        bits; a SIMD operand
        the lanes its live result lanes read (:attr:`lane_reads`); a
        routing move's what its result must."""
        if self.kind == "load" or (self.kind == "store" and i < 2):
            return _LOW_USE
        if self.kind == "store":
            return _STORE_USE.get(self.size, _LOW_USE)
        if not self.simd:
            return _WHOLE_NEED
        if self.identity:
            return _SAME_NEED
        return _lane_need(tuple(sum(1 << lane for src, lane in set(reads) if src == i)
                                for reads in self.lane_reads))

    def issue_log(self, it0: bool) -> list:
        """The events of an issue: its operand reads of locations (a phi
        in the op's first iteration reads none), then, unless it is a
        store or predicated, its result entering the last shift
        register.  A predicate needs its low bit; a predicated op
        computes its whole result."""
        if self._issue_logs is None:
            self._issue_logs = [self._make_issue_log(False), self._make_issue_log(True)]
        return self._issue_logs[it0]

    def _make_issue_log(self, it0: bool) -> list:
        pred = self.op.pred is not None
        reads = [(j - pred, loc) for j, (init, _c, loc, _v) in enumerate(self.sites)
                 if loc is not None and not (it0 and init is not None)]
        if self.kind == "store" or pred:
            log = []
            for i, loc in reads:
                need = 1 if i < 0 else self._operand_need(i)
                log.append((loc, _R_MASK, need if need.__class__ is int else need[_ANY_USE], None))
            return log
        n = len(reads)
        log = []
        for k, (i, loc) in enumerate(reads):
            need = self._operand_need(i)
            log.append((loc, _R_MASK, need, None) if need.__class__ is int
                       else (loc, _R_NEED, n - k, need))
        back = {i: n - k for k, (i, _loc) in enumerate(reads)}
        if self.lanes is not None:
            log.append((self.regs[-1], _W_CONST, self.lanes, None))
        elif not self.identity:
            log.append((self.regs[-1], _W_OP, self.oid, (back.get(0), back.get(1))))
        elif 0 in back:
            log.append((self.regs[-1], _W_COPY, back[0], None))
        else:
            log.append((self.regs[-1], _W_CONST, _FULL, None))
        return log

    def commit_log(self, j: int, present: bool, last: bool, shift: bool) -> list:
        """The events of a commit of register *j* (the head, in a slot;
        any, in the drain, which does not *shift*): its read and the
        latch and local-RF writes, which a predicated op's conditional
        write makes reads (its locations keep their old values live).
        The read needs what its writes' values need, plus lane 0 for a
        predicate register write and the int for a central register
        write; a local-RF file narrower than a value stores it masked,
        as an int."""
        key = (j, present, last, shift)
        log = self._commit_logs.get(key)
        if log is not None:
            return log
        log = self._commit_logs[key] = []
        writes = [(loc, mask) for d, loc, _c, mask in self.fires[last] if d.kind is DstKind.LRF]
        if self.op.pred is not None:
            if present:
                log += [(loc, _R_KEEP, None, None)
                        for loc in [self.latch] + [loc for loc, _m in writes]]
            return log
        if present:
            central = 0
            for d, _loc, _c, _m in self.fires[last]:
                if d.kind is DstKind.CDRF:
                    central |= _ANY_USE
                elif d.kind is DstKind.CPRF:
                    central |= 1
            if writes or central:
                log.append((self.regs[j], _R_COMMIT, tuple(
                    [(1, False)] + [(2 + k, mask is not None)
                                    for k, (_l, mask) in enumerate(writes)]), central))
            else:
                log.append((self.regs[j], _R_COPY, None, None))
            log.append((self.latch, _W_COPY, 1, None))
            for k, (loc, mask) in enumerate(writes):
                log.append((loc, _W_COPY, 2 + k, None) if mask is None
                           else (loc, _W_CONST, _FULL, None))
        if shift:
            regs = self.regs
            for k in range(self.n - 1):
                log.append((regs[k + 1], _R_COPY, None, None))
                log.append((regs[k], _W_COPY, 1, None))
            log.append((regs[-1], _W_CONST, None, None))
        return log


class CgaSchedule:
    """The analysis of one kernel at one trip count (see the module
    docstring); raises *fault* for a malformed kernel and
    :class:`CodegenUnsupported` for one the compiled tier refuses."""

    #: Most prologue + epilogue slots a kernel may unroll; the modem's
    #: kernels unroll at most 18.
    _MAX_UNROLLED_SLOTS = 192

    def __init__(self, kernel: CgaKernel, arch: CgaArchitecture, fault,
                 cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int],
                 trip: int) -> None:
        self.kernel = kernel
        self.arch = arch
        self.fault = fault
        self.cdrf_ports = cdrf_ports
        self.cprf_ports = cprf_ports
        #: The widest value an operand can hold: loads, immediates and
        #: op results are at most 64 bits; register files may be wider.
        self.word_bits = max([64, arch.cdrf.width]
                             + [fu.local_rf.width for fu in arch.fus
                                if fu.local_rf is not None])
        #: The trip count (>= 1) makes the whole modulo schedule
        #: compile-time (see :meth:`_plan`).
        self.trip = trip
        _sig, self.pool, self.pool_index = cga_layout(kernel)
        self.latch_fus = set()
        self.lrf_fus = set()
        #: (fu, entry) of every local-RF access; the entries live in
        #: locals ``r<fu>_<entry>`` while the kernel runs.
        self.lrf_entries = set()
        #: The written ones, stored back to the register file at the end.
        self.lrf_written = set()
        self.ops: List[_CgaChain] = []
        self.by_issue: Dict[int, List[_CgaChain]] = {}
        self.by_commit: Dict[int, List[_CgaChain]] = {}
        self._classify()
        self.has_mem = any(rec.kind != "dataflow" for rec in self.ops)
        self.has_load = any(rec.kind == "load" for rec in self.ops)
        #: Entries never written but read as a SIMD operand: held in
        #: both forms from function entry.
        self.lrf_lanes = {
            (rec.fu, sel.value) for rec in self.ops
            if rec.simd and not rec.identity
            for i, sel in enumerate(rec.op.srcs)
            if sel.kind is SrcKind.LRF and not (i == 1 and rec.shifts)
        } - self.lrf_written
        #: ``(T, lo, hi)``, see :meth:`_plan`.
        self.plan = self._plan()
        self._walk()
        self._lane_passes()

    # -- validation + classification ------------------------------------

    def _classify(self) -> None:
        arch, fault = self.arch, self.fault
        ii = self.kernel.ii
        for oid, (ci, pos, fu, op) in enumerate(_iter_cga_ops(self.kernel)):
            if fu >= arch.n_units:
                raise fault("context names FU%d beyond %d units" % (fu, arch.n_units))
            if not arch.fus[fu].supports(op.opcode):
                raise fault("FU%d cannot execute %s" % (fu, op.opcode.value))
            if op.stage < 0:
                raise fault("FU%d op has negative pipeline stage %d" % (fu, op.stage))
            group = group_of(op.opcode)
            if group is OpGroup.LDMEM:
                kind = "load"
                if len(op.srcs) < 2:
                    raise fault("%s needs base and offset sources" % op.opcode.value)
            elif group is OpGroup.STMEM:
                kind = "store"
                if len(op.srcs) < 3:
                    raise fault("%s needs base, offset and value sources" % op.opcode.value)
            elif group in DATAFLOW_GROUPS:
                kind = "dataflow"
                arity = operand_count(op.opcode)
                if arity == 2 and len(op.srcs) != 2:
                    raise fault("%s expects 2 sources" % op.opcode.value)
                if arity == 1 and len(op.srcs) not in (1, 2):
                    raise fault("%s expects 1 source" % op.opcode.value)
            else:
                raise fault(
                    "opcode %s (%s group) cannot execute on the array"
                    % (op.opcode.value, group.value)
                )
            rec = _CgaChain(oid, ci, pos, fu, op, group, kind, ii)
            self.ops.append(rec)
            self.by_issue.setdefault(ci, []).append(rec)
            if kind != "store":
                self.latch_fus.add(fu)
                self.by_commit.setdefault(rec.q, []).append(rec)
            self._validate_sites(rec)
        for chains in self.by_commit.values():
            chains.sort(key=lambda r: (-r.latency, r.pos))
        self._check_port_pressure()

    def _validate_sites(self, rec: _CgaChain) -> None:
        """Check *rec*'s operands and destinations and record its read
        sites and destination writes."""
        fault, arch, fu = self.fault, self.arch, rec.fu
        sels = ([] if rec.op.pred is None else [rec.op.pred]) + list(rec.op.srcs)
        for sel in sels:
            kind = sel.kind
            if kind is SrcKind.WIRE:
                if not arch.interconnect.connected(sel.value, fu):
                    raise fault(
                        "no wire from FU%d to FU%d in %s" % (sel.value, fu, arch.name)
                    )
                self.latch_fus.add(sel.value)
            elif kind is SrcKind.LRF:
                self._lrf_entry(fu, sel.value)
            elif kind in (SrcKind.CDRF, SrcKind.CPRF):
                if not arch.fus[fu].has_cdrf_port:
                    raise fault("FU%d has no central RF port" % fu)
            elif kind is SrcKind.SELF:
                self.latch_fus.add(fu)
        fires = ([], [])  # the writes of a commit not in / in the last iteration
        for j, dst in enumerate(rec.op.dsts):
            if dst.kind is DstKind.LRF:
                self.lrf_written.add(self._lrf_entry(fu, dst.index))
                width = arch.fus[fu].local_rf.width
                # Only a file narrower than the widest operand value masks.
                mask = (1 << width) - 1 if width < self.word_bits else None
                write = (dst, "r%d_%d" % (fu, dst.index), "n_lrf_w", mask)
            elif not arch.fus[fu].has_cdrf_port:
                raise fault("FU%d has no central RF port" % fu)
            else:
                slot = self.pool_index[(rec.ci, fu, "dst", j)][0]
                cd = dst.kind is DstKind.CDRF
                write = (dst, "%s[imm_%d]" % ("CD" if cd else "CP", slot),
                         "n_cdrf_w" if cd else "n_cprf_w", None)
            if not dst.last_iteration_only:
                fires[0].append(write)
            fires[1].append(write)
        rec.fires = fires
        rec.pred_site = None if rec.op.pred is None else self._site(rec, "pred", None, rec.op.pred)
        srcs = rec.op.srcs if rec.kind == "dataflow" else rec.op.srcs[:2 if rec.kind == "load" else 3]
        rec.src_sites = [self._site(rec, "src", i, sel) for i, sel in enumerate(srcs)]
        rec.sites = ([] if rec.pred_site is None else [rec.pred_site]) + rec.src_sites

    def _site(self, rec: _CgaChain, role: str, i: Optional[int], sel: SrcSel) -> tuple:
        """``(phi init, access counter, location, value)`` of one operand
        site: a read of a location returns what it holds, any other read
        returns the expression *value*; a phi read in the op's first
        iteration returns the atom *init* and touches nothing."""
        imm_slot, init_slot = self.pool_index[(rec.ci, rec.fu, role, i)]
        init = None if sel.init is None else "imm_%d" % init_slot
        kind = sel.kind
        if kind is SrcKind.SELF:
            return (init, None, rec.latch, None)
        if kind is SrcKind.WIRE:
            return (init, "n_itx", "l_%d" % sel.value, None)
        if kind is SrcKind.LRF:
            return (init, "n_lrf_r", "r%d_%d" % (rec.fu, sel.value), None)
        if kind is SrcKind.CDRF:
            return (init, "n_cdrf_r", None, "CD[imm_%d]" % imm_slot)
        if kind is SrcKind.CPRF:
            return (init, "n_cprf_r", None, "CP[imm_%d]" % imm_slot)
        baked = _baked(rec.op, i)
        if baked is not None:
            return (init, None, None, str(baked))  # in the signature: a literal
        return (init, None, None, "imm_%d" % imm_slot)

    def _lrf_entry(self, fu: int, index: int) -> Tuple[int, int]:
        spec = self.arch.fus[fu].local_rf
        if spec is None:
            raise self.fault("FU%d has no local register file" % fu)
        if not 0 <= index < spec.entries:
            # The reference tier fails only if the access executes;
            # entries held in locals would be read at kernel entry.
            raise CodegenUnsupported("FU%d local RF has no entry %d" % (fu, index))
        self.lrf_fus.add(fu)
        self.lrf_entries.add((fu, index))
        return fu, index

    def _drain_entries(self):
        """``(D, chain, j)`` commits that can still be pending after the
        last context, sorted in ring order.  Register ``w<oid>_<j>``
        commits ``j*ii + q + 1`` cycles past the final logical cycle."""
        ii = self.kernel.ii
        entries = []
        for chains in self.by_commit.values():
            for rec in chains:
                for j in range(rec.delta):
                    d = j * ii + rec.q + 1
                    assert d <= MAX_OP_LATENCY, (rec.op.opcode, d)
                    entries.append((d, rec, j))
        entries.sort(key=lambda e: (e[0], -e[1].latency, e[1].pos))
        return entries

    def _check_port_pressure(self) -> None:
        """Static worst case per logical cycle vs. the central-RF ports.

        The reference tier enforces this dynamically (``RegisterFile``
        raises ``PortOverflowError``); the compiled tier skips the
        per-access bookkeeping, which is only sound when no cycle *can*
        overflow.  Squashed operations read fewer ports, so counting
        every site is conservative.  During the drain the reference tier
        never calls ``begin_cycle``, so its port window spans the last
        logical cycle plus the whole drain — modelled the same here.
        It counts the chains' operand sites and destination writes (a
        last iteration's: all of them) by their access counters.
        """
        ii = self.kernel.ii
        # Per counter, its count per logical cycle and, last, the drain's.
        used = {c: [0] * (ii + 1) for c in ("n_cdrf_r", "n_cprf_r", "n_cdrf_w", "n_cprf_w")}
        for rec in self.ops:
            for _init, counter, _loc, _value in rec.sites:
                if counter in used:
                    used[counter][rec.ci] += 1
            if rec.kind != "store":
                for _dst, _loc, counter, _mask in rec.fires[True]:
                    if counter in used:
                        used[counter][rec.q] += 1
        for _d, rec, _j in self._drain_entries():
            for _dst, _loc, counter, _mask in rec.fires[True]:
                if counter in used:
                    used[counter][ii] += 1
        for counter, ports, what in (("n_cdrf_r", self.cdrf_ports[0], "CDRF reads"),
                                     ("n_cprf_r", self.cprf_ports[0], "CPRF reads"),
                                     ("n_cdrf_w", self.cdrf_ports[1], "CDRF writes"),
                                     ("n_cprf_w", self.cprf_ports[1], "CPRF writes")):
            n = used[counter]
            worst = max(max(n[:ii]), n[ii - 1] + n[ii])
            if worst > ports:
                raise CodegenUnsupported(
                    "kernel %s: worst-case %s (%d) exceed %d ports"
                    % (self.kernel.name, what, worst, ports)
                )

    # -- slots -----------------------------------------------------------
    #
    # The batch runner groups lanes by resolved trip count, so the batch
    # function bakes the trip into the source.  With a concrete trip the
    # entire modulo schedule is compile-time: which stages are active,
    # whether a latch chain holds a value, whether an operand is in its
    # phi iteration and whether a ``last_iteration_only`` write fires all
    # become functions of the slot index alone.  The iteration space
    # then splits into unrolled prologue/epilogue slots (each emitted
    # with its static schedule state) around a guard-free steady-state
    # loop.

    def _plan(self) -> Tuple[int, int, int]:
        """``(T, lo, hi)``: total slots and the inclusive steady-state
        window where every op issues, every chain commits a present
        value, no phi initializes and no last-iteration write fires.

        Raises :class:`CodegenUnsupported` when more than
        :attr:`_MAX_UNROLLED_SLOTS` slots would unroll, bounding the
        generated code for degenerate shapes."""
        trip = self.trip
        T = trip + self.kernel.stage_count - 1
        lo, hi = 0, T - 1
        for rec in self.ops:
            has_phi = any(init is not None for init, _c, _l, _v in rec.sites)
            lo = max(lo, rec.stage + (1 if has_phi else 0))
            hi = min(hi, rec.stage + trip - 1)
            if rec.kind != "store":
                lo = max(lo, rec.stage + rec.delta)
                if any(d.last_iteration_only for d in rec.op.dsts):
                    hi = min(hi, trip - 2 + rec.delta + rec.stage)
        if lo > hi:
            lo, hi = T, T - 1  # no steady window: everything unrolls
        unrolled = lo + (T - 1 - hi)
        if unrolled > self._MAX_UNROLLED_SLOTS:
            raise CodegenUnsupported(
                "kernel %s: %d unrolled slots exceed %d"
                % (self.kernel.name, unrolled, self._MAX_UNROLLED_SLOTS)
            )
        return (T, lo, hi)

    def _walk(self) -> None:
        """Build the step list and log its location events, in emission
        order (the steady body once): the entry writes, the unrolled
        slots before the steady window (``prologue``, ``(I, steps)``
        each), the steady slot's steps (``steady``, ``None`` without a
        window), the slots after it (``epilogue``), the ``drain`` and
        the exit reads (events: see above)."""
        log = self.ev_log = []
        ev = log.append
        T, lo, hi = self.plan
        for fu, entry in sorted(self.lrf_entries):
            ev(("r%d_%d" % (fu, entry), _W_CONST, _FULL, None))
        for fu in sorted(self.latch_fus):
            ev(("l_%d" % fu, _W_CONST, ((0, 0),) * 4, None))
        for rec in self.ops:
            if rec.kind != "store" and rec.op.pred is None:
                for reg in rec.regs:
                    ev((reg, _W_CONST, None, None))
        self.prologue = [(I, self._slot(I, log)) for I in range(min(lo, T))]
        start = len(log)
        self.steady = self._slot(None, log) if lo <= hi else None
        self.body_span = (start, len(log))
        self.epilogue = [(I, self._slot(I, log)) for I in range(max(lo, hi + 1), T)]
        #: ``(D, chain, j, last, present)`` per drain commit: register
        #: ``w<oid>_<j>`` commits ``D`` cycles past the last context.  It
        #: holds the value issued in slot ``T-delta+j``, iteration
        #: ``T-delta+j-stage``: present if that slot issued the op (a
        #: predicated register commits under a run-time test) and the
        #: last iteration exactly when ``j == stage + delta - stages``.
        self.drain = []
        for d, rec, j in self._drain_entries():
            last = j == rec.stage + rec.delta - self.kernel.stage_count
            present = rec.op.pred is not None or (
                rec.stage <= T - rec.delta + j <= rec.stage + self.trip - 1)
            self.drain.append((d, rec, j, last, present))
            log.extend(rec.commit_log(j, present, last, False))
        # Kernel exit writes every latch and written local-RF entry back.
        for fu in sorted(self.latch_fus):
            ev(("l_%d" % fu, _R_MASK, _LANE_USE, None))
        for fu, entry in sorted(self.lrf_written):
            ev(("r%d_%d" % (fu, entry), _R_MASK, _LANE_USE, None))

    def _slot(self, I: Optional[int], log: list) -> list:
        """The steps of slot *I*, or of a steady slot (``I is None``),
        with their events logged into *log*: per context ``p`` with
        work, ``(p, commits, issues, memory)``.  A commit ``(chain,
        present, last)`` says whether a value reaches the chain's head
        and whether it is the last iteration's; an issue ``(chain, it0,
        idle)`` whether a phi reads its init and whether it is the
        context's first memory access (every bank is idle then, see
        :meth:`.emit_cga._CgaGen.generate_batch`)."""
        trip, steady = self.trip, I is None
        steps = []
        for p in range(self.kernel.ii):
            commits = []
            for rec in self.by_commit.get(p, ()):
                first = rec.stage + rec.delta  # the first slot a value commits
                # Could a register hold a value in this commit phase?
                # (Issue runs first when the commit context follows it.)
                if steady or max(rec.stage, I - rec.delta) <= min(
                        rec.stage + trip - 1, I if rec.q > rec.ci else I - 1):
                    step = (rec, steady or first <= I <= first + trip - 1,
                            (not steady) and I == first + trip - 1)
                    commits.append(step)
                    log.extend(rec.commit_log(0, step[1], step[2], True))
            issues = []
            idle = True
            for rec in self.by_issue.get(p, ()):
                if not (steady or rec.stage <= I <= rec.stage + trip - 1):
                    continue
                memory = rec.kind != "dataflow"
                it0 = (not steady) and I == rec.stage
                issues.append((rec, it0, idle and memory))
                idle = idle and not memory
                # Its operand reads of locations, then its value entering
                # the last shift register (a predicated op's registers
                # are not locations).
                log.extend(rec.issue_log(it0))
            if commits or issues:
                steps.append((p, commits, issues, not idle))
        return steps

    # -- lane liveness and lane ranges -----------------------------------

    def _lane_passes(self) -> None:
        """Run both passes over the event log (see above).

        Sets ``live_after`` (per event, the live mask of the value it
        leaves), ``need`` (per read, what it needs), ``body_live_in``
        (the locations live into the steady body), ``carried`` (per such
        location, the lanes its value must keep across the loop's edges)
        and ``lane_raw`` (per result write of an unpredicated SIMD op,
        its lanes' intervals before saturation and after it).  The steady body runs
        to a fixpoint: backwards, what its start needs is also needed at
        its end; forwards, its entry intervals join its exit's, widened
        to int16 once three rounds did not settle."""
        log = self.ev_log
        lo, hi = self.body_span
        self.live_after = [0] * len(log)
        self.need = [0] * len(log)
        post: Dict[str, int] = {}
        self._backward(hi, len(log), post)
        start: Dict[str, int] = {}
        while True:
            dem = dict(post)
            for loc, m in start.items():
                dem[loc] = dem.get(loc, 0) | m
            end = dict(dem)
            self._backward(lo, hi, dem)
            dem = {loc: m for loc, m in dem.items() if m}
            if dem == start:
                break
            start = dem
        self.body_live_in = sorted(start)
        self.carried = {loc: start[loc] | end.get(loc, 0) for loc in start}
        self._backward(0, lo, dict(start))

        self.lane_raw: Dict[int, tuple] = {}
        if not any(rec.op.opcode in _CLAMPING for rec in self.ops
                   if rec.lane_reads is not None and rec.op.pred is None):
            return  # no lane can saturate or wrap
        val: List[Optional[tuple]] = [None] * len(log)
        #: ``(raw, result)`` lane intervals per ``(opcode, operand
        #: intervals, shift amount)``: ops repeat across slots.
        self._ranges: Dict[tuple, tuple] = {}
        state: Dict[str, Optional[tuple]] = {}
        self._forward(0, lo, state, val)
        for rounds in itertools.count():
            out = dict(state)
            self._forward(lo, hi, out, val)
            joined = {loc: _join(state.get(loc), r) for loc, r in out.items()}
            if all(state.get(loc) == r for loc, r in joined.items()):
                break
            if rounds >= 2:
                joined = {loc: _widen(state.get(loc), r) for loc, r in joined.items()}
            state.update(joined)
        self._forward(hi, len(log), out, val)

    def _backward(self, a: int, b: int, dem: Dict[str, int]) -> None:
        """Events ``b-1`` down to ``a``: *dem* holds, per location, what
        is read of its value after the current event."""
        log, live, need = self.ev_log, self.live_after, self.need
        get = dem.get
        for k in range(b - 1, a - 1, -1):
            loc, kind, x, y = log[k]
            m = get(loc, 0)
            live[k] = m
            if kind >= _W_CONST:
                dem[loc] = 0
                continue
            if kind == _R_MASK:
                d = x
            elif kind == _R_NEED:
                d = y[live[k + x]]
            elif kind == _R_COPY:
                d = live[k + 1]
            elif kind == _R_COMMIT:
                d = y
                for off, whole in x:
                    if live[k + off]:
                        d |= _ANY_USE if whole else live[k + off]
            else:  # a conditional write keeps what is read after it
                d = m
            need[k] = d
            dem[loc] = m | d

    def _forward(self, a: int, b: int, state: Dict[str, Optional[tuple]], val: list) -> None:
        """Events ``a`` to ``b-1``: *state* holds, per location, the lane
        intervals of its value (``None``: an empty register); *val*
        gets those of each read's value."""
        log = self.ev_log
        get = state.get
        for k in range(a, b):
            loc, kind, x, y = log[k]
            if kind < _W_CONST:
                val[k] = get(loc)
                if kind == _R_KEEP:  # a predicated op's value may land
                    state[loc] = _FULL
            elif kind == _W_COPY:
                state[loc] = val[k - x]
            elif kind == _W_OP:
                state[loc] = self._result_lanes(self.ops[x], y, val, k)
            else:
                state[loc] = x

    def _result_lanes(self, rec: _CgaChain, dist: tuple, val: list, w: int) -> tuple:
        """The lane intervals of the result of unpredicated SIMD op *rec*
        whose write is event *w*, its operand reads *dist* events back
        (``None``: no location); records ``lane_raw[w]``, the intervals
        before and after saturation."""
        d0, d1 = dist
        a = rec.src_lanes[0] if d0 is None else val[w - d0] or _FULL
        b = None
        if rec.arity == 2 and not rec.shifts:
            b = rec.src_lanes[1] if d1 is None else val[w - d1] or _FULL
        key = (rec.op.opcode.value, a, b, rec.amount)
        hit = self._ranges.get(key)
        if hit is None:
            raw = _lane_raw(rec.op.opcode, a, b, rec.amount)
            hit = self._ranges[key] = (raw, _lane_result(rec.op.opcode, raw))
        self.lane_raw[w] = hit
        return hit[1]


def _join(a: Optional[tuple], b: Optional[tuple]) -> Optional[tuple]:
    """The lane intervals covering both *a* and *b*."""
    if a is None or b is None or a == b:
        return b if a is None else a
    return tuple((min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(a, b))


def _widen(old: Optional[tuple], new: tuple) -> tuple:
    """*new*, with every lane that moved from *old* widened to int16."""
    if old is None or new is None:
        return new
    return tuple(x if x == y else _I16 for x, y in zip(old, new))
