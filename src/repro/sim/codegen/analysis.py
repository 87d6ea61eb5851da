"""The schedule analysis of a CGA kernel at a trip count.

A pure function of the kernel, the architecture and the trip, found
once before any source is emitted (:class:`CgaSchedule`): the
kernel's canonical walk (structural signature, runtime pool and pool
site of every operand), each operation's commit chain, the static
central-RF port check, the unrolled prologue/epilogue around the
steady-state window, the per-slot step list both the location events
and the CGA emitter (:mod:`.emit_cga`) walk, and the liveness of every
location event.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.isa.bits import MASK64
from repro.isa.opcodes import MAX_OP_LATENCY, Opcode, OpGroup, group_of, latency_of, op_weight
from repro.isa.semantics import DATAFLOW_GROUPS, operand_count
from repro.sim import memops
from repro.sim.codegen.templates import _LANE_SHIFTS, CodegenUnsupported
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


def _pool_value(op, src_index: Optional[int], sel: SrcSel) -> int:
    """The runtime value of an IMM selection, with the mem-offset
    pre-scaling :func:`repro.sim.memops.effective_address` applies (IMM
    offset, no phi init)."""
    value = sel.value & MASK64
    if (
        src_index == 1
        and sel.init is None
        and group_of(op.opcode) in (OpGroup.LDMEM, OpGroup.STMEM)
    ):
        value <<= memops.mem_info(op.opcode).imm_scale
    return value


#: Source kinds whose register index lives in the pool, not the source.
_POOLED_SRCS = (SrcKind.CDRF, SrcKind.CPRF)

#: SIMD opcodes that return their first operand when the second is 0.
#: The scheduler's routing moves (``MOVE_OPCODE``, ``c4add x, 0``) are
#: the common case; the generator emits such an op as a plain copy.
_IDENTITY_WITH_ZERO = frozenset({Opcode.C4ADD, Opcode.C4SUB, Opcode.C4OR, Opcode.C4XOR})


def _zero_site(op) -> bool:
    """Is *op*'s second source the non-phi immediate of an identity-with-zero
    opcode?  Its zero-ness decides the emitted code, so the signature
    records it; every other immediate value stays out of the key."""
    return (op.opcode in _IDENTITY_WITH_ZERO and len(op.srcs) == 2
            and op.srcs[1].kind is SrcKind.IMM and op.srcs[1].init is None)


def _is_identity(op) -> bool:
    """Does *op* return exactly its first operand (e.g. a routing move)?"""
    return _zero_site(op) and op.srcs[1].value & MASK64 == 0


def _sel_sig(sel: Optional[SrcSel]) -> Optional[tuple]:
    if sel is None:
        return None
    return (
        sel.kind.value,
        None if sel.kind is SrcKind.IMM or sel.kind in _POOLED_SRCS else sel.value,
        sel.init is not None,
    )


def cga_layout(kernel: CgaKernel) -> Tuple[tuple, Tuple[int, ...], Dict[tuple, tuple]]:
    """``(signature, pool, site_index)`` of *kernel*, in one walk.

    The signature is the kernel's structural identity: everything except
    immediate and phi-init *values* and central-RF register indices (all
    pooled), the trip count, preloads and the name.  The one
    value-dependent bit is whether an identity-with-zero site
    (:func:`_zero_site`) holds 0, so a hit stays valid under
    ``patch_constants``.  ``site_index`` maps ``(ctx, fu, role, index)``
    to ``(slot, init_slot)``: the pool slot of an immediate's value or a
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
            srcs = tuple(_sel_sig(s) for s in op.srcs)
            if _zero_site(op):
                srcs += (op.srcs[1].value & MASK64 == 0,)
            ops.append((fu, op.opcode.value, op.stage, op.pred_negate, _sel_sig(op.pred), srcs,
                        tuple((d.kind.value, d.index if d.kind is DstKind.LRF else None,
                               d.last_iteration_only) for d in op.dsts)))
        ctxs.append(tuple(ops))
    return (kernel.ii, kernel.stage_count, tuple(ctxs)), tuple(values), index


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
# (:meth:`CgaSchedule._slot`, :meth:`CgaSchedule._commit_events`).
# The emitter walks the same steps and makes the same events in the same
# order, so :meth:`CgaSchedule._liveness` of the logged events says, per
# event of the emission, whether the value it leaves is read again.


class _CgaChain:
    """One operation's result pipeline: issue phase, commit phase, the
    shift registers carrying the in-flight value, its operand sites and
    its destination writes."""

    __slots__ = ("oid", "ci", "pos", "fu", "op", "group", "kind", "latency",
                 "weight", "stage", "q", "delta", "n", "arity", "simd", "identity",
                 "shifts", "key", "latch", "regs", "pred_site", "src_sites", "sites",
                 "fires")

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
        self.live_after, self.body_live_in = self._liveness()

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
        the exit reads."""
        log = self.ev_log = []
        ev = log.append
        T, lo, hi = self.plan
        for fu, entry in sorted(self.lrf_entries):
            ev(("r%d_%d" % (fu, entry), False))
        for fu in sorted(self.latch_fus):
            ev(("l_%d" % fu, False))
        for rec in self.ops:
            if rec.kind != "store" and rec.op.pred is None:
                for reg in rec.regs:
                    ev((reg, False))
        self.prologue = [(I, self._slot(I, ev)) for I in range(min(lo, T))]
        start = len(log)
        self.steady = self._slot(None, ev) if lo <= hi else None
        self.body_span = (start, len(log))
        self.epilogue = [(I, self._slot(I, ev)) for I in range(max(lo, hi + 1), T)]
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
            self._commit_events(ev, rec, j, present, last, False)
        for fu in sorted(self.latch_fus):
            ev(("l_%d" % fu, True))
        for fu, entry in sorted(self.lrf_written):
            ev(("r%d_%d" % (fu, entry), True))

    def _slot(self, I: Optional[int], ev) -> list:
        """The steps of slot *I*, or of a steady slot (``I is None``),
        with their events logged through *ev*: per context ``p`` with
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
                    self._commit_events(ev, rec, 0, step[1], step[2], True)
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
                for init, _counter, loc, _value in rec.sites:
                    if loc is not None and not (it0 and init is not None):
                        ev((loc, True))
                if rec.kind != "store" and rec.op.pred is None:
                    ev((rec.regs[-1], False))
            if commits or issues:
                steps.append((p, commits, issues, not idle))
        return steps

    @staticmethod
    def _commit_events(ev, rec: _CgaChain, j: int, present: bool, last: bool,
                       shift: bool) -> None:
        """A commit of register *j* (the head, in a slot; any, in the
        drain, which does not *shift*): its read and the latch and
        local-RF writes, which a predicated op's conditional write makes
        reads (its locations keep their old values live)."""
        writes = [loc for d, loc, _c, _m in rec.fires[last] if d.kind is DstKind.LRF]
        if rec.op.pred is not None:
            if present:
                for loc in [rec.latch] + writes:
                    ev((loc, True))
            return
        if present:
            ev((rec.regs[j], True))
            for loc in [rec.latch] + writes:
                ev((loc, False))
        if shift:
            for k in range(rec.n - 1):
                ev((rec.regs[k + 1], True))
                ev((rec.regs[k], False))
            ev((rec.regs[-1], False))

    def _liveness(self) -> Tuple[List[bool], List[str]]:
        """Per logged event, whether the value after it is read again
        (the steady body's last event on a location also reaches the
        body's first and the events after the loop); and the locations
        live into the steady body."""
        log = self.ev_log
        lo, hi = self.body_span
        live = [False] * len(log)
        # Backwards: the next event on each location, then per location
        # its first event in the body and after it.
        nxt: Dict[str, int] = {}
        first_body: Dict[str, int] = {}
        first_post: Dict[str, int] = {}
        last_body: Dict[str, int] = {}
        last_before: Dict[str, int] = {}
        for k in range(len(log) - 1, -1, -1):
            loc, _read = log[k]
            n = nxt.get(loc)
            live[k] = n is not None and log[n][1]
            nxt[loc] = k
            if k >= hi:
                first_post[loc] = k
            elif k >= lo:
                first_body[loc] = k
                last_body.setdefault(loc, k)
            else:
                last_before.setdefault(loc, k)
        for loc, k in last_body.items():
            post = first_post.get(loc)
            live[k] = log[first_body[loc]][1] or (post is not None and log[post][1])
        live_in = [loc for loc in nxt
                   if (log[first_body[loc]][1] if loc in first_body
                       else loc in last_before and live[last_before[loc]])]
        return live, sorted(live_in)
