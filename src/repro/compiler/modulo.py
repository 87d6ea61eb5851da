"""Modulo scheduling of loop DFGs onto the CGA (the DRESC core idea).

The scheduler implements iterative modulo scheduling with explicit
placement and routing, in the spirit of Mei et al. (the paper's ref [6]):

1. compute the minimum initiation interval
   ``MII = max(ResMII, RecMII)`` from resource pressure (16 units, 4
   memory ports, 2 dividers) and recurrence cycles;
2. for ``II = MII, MII+1, ...``: place operations one by one, highest
   criticality first, onto ``(unit, cycle)`` slots of the modulo routing
   resource graph; every data edge is *routed*: the value waits in a
   storage row the MRRG offers — its unit's output latch, which the
   consumer reads over the interconnect, or, when the consumer sits on
   that unit, one of its local-RF entries — or pass-through move
   operations (64-bit ``c4add x, 0``) are inserted to re-latch the value
   closer in space or time, each waiting the same way;
3. a few randomised restarts are attempted per II before giving up and
   growing II.

The search (:meth:`ModuloScheduler.schedule`) never reads register
numbers, the kernel's name or its trip count: it returns a register-free
:class:`SchedulePlan`.  :meth:`SchedulePlan.bind` then applies one
caller's calling convention and yields a :class:`ScheduleResult` — a
:class:`~repro.sim.program.CgaKernel` directly executable by the
simulator, plus scheduling metadata (II, stages, inserted moves,
utilization).  One plan therefore serves every kernel with the same
loop body, whatever its registers.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.compiler.dfg import CompileError, Const, Dfg, LiveIn, Node, NodeRef
from repro.compiler.mrrg import LATCH, Mrrg
from repro.isa.bits import MASK64
from repro.isa.opcodes import Opcode, OpGroup
from repro.sim.program import (
    CgaContext,
    CgaKernel,
    CgaOp,
    DstKind,
    DstSel,
    Preload,
    SrcSel,
)
from repro.trace.tracer import get_tracer

#: Pass-through move: 64-bit lane add with zero (single cycle, any unit).
MOVE_OPCODE = Opcode.C4ADD
MOVE_LATENCY = 1


@dataclass
class _Placed:
    uid: int
    fu: int
    time: int
    latency: int

    @property
    def avail(self) -> int:
        """Absolute cycle at which the result appears in the output latch."""
        return self.time + self.latency


@dataclass
class _Resolution:
    """How one consumer operand is fetched at run time."""

    kind: str  # "imm" | "cdrf:<live-in>" | "lrf" | "latch"
    value: int = 0  # immediate value / local-RF entry
    read_fu: int = -1  # latch source for "latch"
    init: Optional[int] = None  # recurrence first-iteration value


def _read(fu: int, row: int, init: Optional[int] = None) -> _Resolution:
    """The read of a value waiting in storage *row* of unit *fu*."""
    if row == LATCH:
        return _Resolution("latch", 0, fu, init)
    return _Resolution("lrf", row - 1, fu, init)


@dataclass
class _Move:
    uid: int
    fu: int
    time: int
    src: _Resolution  # where the moved value waits
    stage_key: int  # uid of the value's producing node (for diagnostics)


@dataclass
class ScheduleResult:
    """A successfully scheduled kernel plus metadata."""

    kernel: CgaKernel
    ii: int
    stage_count: int
    n_ops: int
    n_moves: int
    utilization: float
    mii: int
    #: The two lower bounds MII is the larger of.
    res_mii: int
    rec_mii: int
    #: The search this kernel was bound from (shared by every kernel
    #: with the same loop body).
    plan: "SchedulePlan" = field(repr=False, compare=False)


@dataclass
class SchedulePlan:
    """A register-free modulo schedule: what the search decided.

    Placements, routing moves and operand resolutions depend only on
    the loop body's structure, the architecture, ``max_ii`` and the
    seed; live-ins and live-outs are still referred to by name.
    :meth:`bind` applies one caller's calling convention.
    """

    ii: int
    mii: int
    res_mii: int
    rec_mii: int
    stage_count: int
    placements: Dict[int, _Placed]
    moves: List[_Move]
    resolutions: Dict[Tuple[int, object], _Resolution]
    #: node id -> uid of the move that writes its live-out to the CDRF
    liveout_moves: Dict[int, int]
    #: (fu, entry, live-in name) local-RF preloads
    preloads: List[Tuple[int, int, str]]
    #: uid of a node or move -> local-RF entry its commit writes
    lrf_writes: Dict[int, int]
    utilization: float
    #: Placement attempts the search made: failed IIs x restarts, plus
    #: the one that succeeded.  Deterministic for a body and seed.
    attempts: int = 1

    def bind(
        self,
        dfg: Dfg,
        live_in_regs: Optional[Dict[str, int]] = None,
        live_out_regs: Optional[Dict[str, int]] = None,
        trip_count: Optional[int] = None,
        trip_count_reg: Optional[int] = None,
    ) -> ScheduleResult:
        """The kernel for *dfg* (the loop body this plan was searched
        for, under any name) with its named live values in the given
        central registers."""
        live_in_regs = live_in_regs or {}
        live_out_regs = live_out_regs or {}
        missing = [n for n in dfg.live_ins if n not in live_in_regs]
        if missing:
            raise CompileError("no central register for live-ins %r" % missing)
        missing = [n for n in dfg.live_outs if n not in live_out_regs]
        if missing:
            raise CompileError("no central register for live-outs %r" % missing)

        ii = self.ii
        contexts = [CgaContext() for _ in range(ii)]

        def src_sel(res: _Resolution, self_fu: int) -> SrcSel:
            if res.kind == "imm":
                return SrcSel.imm(res.value)
            if res.kind.startswith("cdrf:"):
                name = res.kind.split(":", 1)[1]
                return SrcSel.cdrf(live_in_regs[name])
            if res.kind == "lrf":
                base = SrcSel.lrf(res.value)
            elif res.kind == "latch":
                base = (
                    SrcSel.self_() if res.read_fu == self_fu else SrcSel.wire(res.read_fu)
                )
            else:
                raise CompileError("unresolved operand (%s)" % res.kind)
            return base if res.init is None else base.with_init(res.init)

        def lrf_dst(uid: int) -> List[DstSel]:
            entry = self.lrf_writes.get(uid)
            return [] if entry is None else [DstSel(DstKind.LRF, entry)]

        for node in dfg.nodes.values():
            p = self.placements[node.node_id]
            phase, stage = p.time % ii, p.time // ii
            srcs = tuple(
                src_sel(self.resolutions[(node.node_id, i)], p.fu)
                for i in range(len(node.srcs))
            )
            pred_sel = None
            if node.pred is not None:
                pred_sel = src_sel(self.resolutions[(node.node_id, "pred")], p.fu)
            dsts = lrf_dst(node.node_id)
            if node.live_out is not None and node.node_id not in self.liveout_moves:
                dsts.append(
                    DstSel(
                        DstKind.CDRF,
                        live_out_regs[node.live_out],
                        last_iteration_only=True,
                    )
                )
            contexts[phase].ops[p.fu] = CgaOp(
                opcode=node.opcode,
                srcs=srcs,
                dsts=tuple(dsts),
                stage=stage,
                pred=pred_sel,
                pred_negate=node.pred_negate,
            )

        for m in self.moves:
            phase, stage = m.time % ii, m.time // ii
            dsts = lrf_dst(m.uid) + [
                DstSel(
                    DstKind.CDRF,
                    live_out_regs[dfg.nodes[nid].live_out],
                    last_iteration_only=True,
                )
                for nid, uid in self.liveout_moves.items()
                if uid == m.uid
            ]
            contexts[phase].ops[m.fu] = CgaOp(
                opcode=MOVE_OPCODE,
                srcs=(src_sel(m.src, m.fu), SrcSel.imm(0)),
                dsts=tuple(dsts),
                stage=stage,
            )

        kernel = CgaKernel(
            name=dfg.name,
            ii=ii,
            stage_count=self.stage_count,
            contexts=contexts,
            trip_count=trip_count,
            trip_count_reg=trip_count_reg,
            preloads=[
                Preload(fu, entry, live_in_regs[name]) for fu, entry, name in self.preloads
            ],
        )
        return ScheduleResult(
            kernel=kernel,
            ii=ii,
            stage_count=self.stage_count,
            n_ops=len(self.placements),
            n_moves=len(self.moves),
            utilization=self.utilization,
            mii=self.mii,
            res_mii=self.res_mii,
            rec_mii=self.rec_mii,
            plan=self,
        )


class _RouteFail(Exception):
    pass


class ModuloScheduler:
    """Schedules one loop DFG onto one architecture."""

    def __init__(
        self,
        dfg: Dfg,
        arch: CgaArchitecture,
        max_ii: int = 32,
        restarts: int = 6,
        seed: int = 0,
    ) -> None:
        self.dfg = dfg
        self.arch = arch
        self.max_ii = max_ii
        self.restarts = restarts
        self.seed = seed
        self._mem_capable = set(arch.fus_with_group(OpGroup.LDMEM))
        self._vliw = {fu.index for fu in arch.vliw_fus}
        #: Units able to run each operation group, looked up once.
        self._group_fus = {group: arch.fus_with_group(group) for group in OpGroup}

    # ------------------------------------------------------------------

    def min_ii(self) -> int:
        """MII = max(ResMII, RecMII)."""
        return max(self.res_mii(), self.rec_mii())

    def rec_mii(self) -> int:
        """RecMII: the bound the loop-carried dependence cycles set."""
        return max(self.dfg.recurrence_mii(), 1)

    def res_mii(self) -> int:
        """ResMII: the bound unit, memory-port, divider and bank pressure set."""
        n_units = self.arch.n_units
        n_mem_units = len(self.arch.fus_with_group(OpGroup.LDMEM))
        n_div_units = len(self.arch.fus_with_group(OpGroup.DIV))
        n_ops = self.dfg.op_count()
        n_mem = self.dfg.mem_op_count()
        n_div = sum(
            1 for n in self.dfg.nodes.values() if n.group is OpGroup.DIV
        )
        # L1 bank pressure: 64-bit accesses claim two (adjacent) banks.
        word_accesses = 0
        for node in self.dfg.nodes.values():
            if node.is_load or node.is_store:
                word_accesses += 2 if node.opcode in (Opcode.LD_Q, Opcode.ST_Q) else 1
        n_banks = self.arch.l1.banks
        return max(
            -(-n_ops // n_units),
            -(-n_mem // max(n_mem_units, 1)) if n_mem else 1,
            -(-n_div // max(n_div_units, 1)) if n_div else 1,
            -(-word_accesses // n_banks) if word_accesses else 1,
        )

    def schedule(self) -> SchedulePlan:
        """Search for a modulo schedule of the DFG; returns the plan.

        The search never reads the calling convention; bind the plan
        with :meth:`SchedulePlan.bind` to get the executable kernel.
        """
        tracer = get_tracer()
        bounds = (self.res_mii(), self.rec_mii())
        mii = max(bounds)
        if tracer.enabled:
            tracer.instant(
                "modulo.search",
                tracer.tick(),
                cat="compiler",
                args={"kernel": self.dfg.name, "mii": mii, "max_ii": self.max_ii},
            )
        # Attempt-invariant analyses, computed once per search.
        heights = self._heights()
        _asap, alap = self.dfg.asap_alap()
        last_error: Optional[Exception] = None
        # Large DFGs take noticeably longer per attempt; fewer restarts
        # per II keeps compile times reasonable at a minor II cost.
        restarts = self.restarts if self.dfg.op_count() <= 60 else 2
        attempts = 0
        for ii in range(mii, self.max_ii + 1):
            for restart in range(restarts):
                rng = random.Random(self.seed * 7919 + ii * 131 + restart)
                attempts += 1
                try:
                    plan = self._attempt(ii, bounds, rng, heights, alap)
                except CompileError as exc:
                    last_error = exc
                    if tracer.enabled:
                        tracer.instant(
                            "modulo.attempt_failed",
                            tracer.tick(),
                            cat="compiler",
                            args={
                                "kernel": self.dfg.name,
                                "ii": ii,
                                "restart": restart,
                                "error": str(exc),
                            },
                        )
                    continue
                plan.attempts = attempts
                if tracer.enabled:
                    tracer.instant(
                        "modulo.scheduled",
                        tracer.tick(),
                        cat="compiler",
                        args={
                            "kernel": self.dfg.name,
                            "ii": plan.ii,
                            "mii": plan.mii,
                            "stages": plan.stage_count,
                            "moves": len(plan.moves),
                            "attempts": attempts,
                            "utilization": plan.utilization,
                        },
                    )
                return plan
        if tracer.enabled:
            tracer.instant(
                "modulo.unschedulable",
                tracer.tick(),
                cat="compiler",
                args={
                    "kernel": self.dfg.name,
                    "max_ii": self.max_ii,
                    "error": str(last_error),
                },
            )
        raise CompileError(
            "kernel %s unschedulable up to II=%d: %s"
            % (self.dfg.name, self.max_ii, last_error)
        )

    # ------------------------------------------------------------------

    def _heights(self) -> Dict[int, int]:
        """Longest latency chain from each node over distance-0 edges."""
        heights: Dict[int, int] = {}

        def height(nid: int) -> int:
            if nid in heights:
                return heights[nid]
            node = self.dfg.nodes[nid]
            best = node.latency
            for consumer, ref in self.dfg.consumers(nid):
                if ref.distance == 0:
                    best = max(best, node.latency + height(consumer.node_id))
            heights[nid] = best
            return best

        for nid in self.dfg.nodes:
            height(nid)
        return heights

    def _priority_order(self, rng: random.Random, heights: Dict[int, int]) -> List[Node]:
        """Topological order by descending height with seeded jitter."""
        # Topological over distance-0 edges: node ids are already in
        # creation order, and distance-0 refs always point backwards, so
        # id order is a valid topological order.  Sort stably by height
        # descending within windows of the topological order: schedule
        # in id order but, among ready nodes, pick the tallest.
        unmet: Dict[int, int] = {}
        consumers: Dict[int, List[int]] = {nid: [] for nid in self.dfg.nodes}
        for nid, node in self.dfg.nodes.items():
            deps = [
                ref.node_id
                for _key, ref in self._operands(node)
                if isinstance(ref, NodeRef) and ref.distance == 0
            ]
            unmet[nid] = len(deps)
            for dep in deps:
                consumers[dep].append(nid)
        ready = {nid for nid, count in unmet.items() if count == 0}
        order: List[Node] = []
        while ready:
            # Ascending id order before the keyed sort, so each
            # rng.random() draw lands on the same node for a given seed.
            candidates = sorted(ready)
            candidates.sort(key=lambda nid: (-heights[nid], rng.random()))
            pick = candidates[0]
            order.append(self.dfg.nodes[pick])
            ready.remove(pick)
            for consumer in consumers[pick]:
                unmet[consumer] -= 1
                if not unmet[consumer]:
                    ready.add(consumer)
        if len(order) < len(self.dfg.nodes):  # pragma: no cover - guarded by Dfg validation
            raise CompileError("cyclic distance-0 dependences")
        return order

    def _candidate_fus(self, node: Node, rng: random.Random) -> List[int]:
        fus = self._group_fus[node.group]
        avoid_mem = node.group not in (OpGroup.LDMEM, OpGroup.STMEM)
        needs_cdrf = node.live_out is not None or any(
            isinstance(s, LiveIn) for s in node.srcs
        )

        def klass(fu: int) -> int:
            # Prefer plain units, keep memory units for memory ops and
            # ported units for ops that need the central RF.
            score = 0
            if avoid_mem and fu in self._mem_capable:
                score += 2
            if needs_cdrf and fu in self._vliw:
                score -= 1  # being on a ported unit avoids extra moves
            elif fu in self._vliw:
                score += 1
            return score

        return sorted(fus, key=lambda fu: (klass(fu), rng.random()))

    # ------------------------------------------------------------------

    def _attempt(
        self,
        ii: int,
        bounds: Tuple[int, int],
        rng: random.Random,
        heights: Dict[int, int],
        alap: Dict[int, int],
    ) -> SchedulePlan:
        mrrg = Mrrg(self.arch, ii)
        placements: Dict[int, _Placed] = {}
        moves: List[_Move] = []
        resolutions: Dict[Tuple[int, object], _Resolution] = {}
        liveout_moves: Dict[int, _Move] = {}  # node id -> final move with CDRF write
        move_uid = [10_000]

        order = self._priority_order(rng, heights)
        window = 2 * ii + 8
        for node in order:
            self._place_one(
                node, ii, mrrg, placements, moves, resolutions, liveout_moves,
                move_uid, window, rng, alap,
            )
        for node in self.dfg.nodes.values():
            for i in range(len(node.srcs)):
                if (node.node_id, i) not in resolutions:
                    raise CompileError(
                        "operand %d of node %d unresolved" % (i, node.node_id)
                    )
            if node.pred is not None and (node.node_id, "pred") not in resolutions:
                raise CompileError("guard of node %d unresolved" % node.node_id)
        max_time = max(
            [p.time for p in placements.values()] + [m.time for m in moves], default=0
        )
        return SchedulePlan(
            ii=ii,
            mii=max(bounds),
            res_mii=bounds[0],
            rec_mii=bounds[1],
            stage_count=max_time // ii + 1,
            placements=placements,
            moves=moves,
            resolutions=resolutions,
            liveout_moves={nid: m.uid for nid, m in liveout_moves.items()},
            preloads=mrrg.preload_list(),
            lrf_writes=self._lrf_writes(mrrg, placements, moves),
            utilization=mrrg.utilization(),
        )

    def _lrf_writes(
        self, mrrg: Mrrg, placements: Dict[int, _Placed], moves: List[_Move]
    ) -> Dict[int, int]:
        """uid -> local-RF entry, for every commit routed into one."""
        commits = [
            (p.uid, p.fu, p.avail)
            for p in placements.values()
            if not self.dfg.nodes[p.uid].is_store
        ] + [(m.uid, m.fu, m.time + MOVE_LATENCY) for m in moves]
        out: Dict[int, int] = {}
        for uid, fu, commit_time in commits:
            entry = mrrg.lrf_write_at(fu, commit_time)
            if entry is not None:
                out[uid] = entry
        return out

    def _operands(self, node: Node) -> List[Tuple[object, object]]:
        """(key, operand) pairs including the guard predicate."""
        out: List[Tuple[object, object]] = [
            (i, src) for i, src in enumerate(node.srcs)
        ]
        if node.pred is not None:
            out.append(("pred", node.pred))
        return out

    def _place_one(
        self,
        node: Node,
        ii: int,
        mrrg: Mrrg,
        placements: Dict[int, _Placed],
        moves: List[_Move],
        resolutions: Dict[Tuple[int, object], _Resolution],
        liveout_moves: Dict[int, _Move],
        move_uid: List[int],
        window: int,
        rng: random.Random,
        alap: Optional[Dict[int, int]] = None,
    ) -> None:
        lat = node.latency
        earliest = 0
        for _key, ref in self._operands(node):
            if isinstance(ref, NodeRef) and ref.node_id in placements:
                p = placements[ref.node_id]
                earliest = max(earliest, p.avail - ref.distance * ii)
        deadline = earliest + window
        for consumer, ref in self.dfg.consumers(node.node_id):
            if consumer.node_id in placements and consumer.node_id != node.node_id:
                c = placements[consumer.node_id]
                deadline = min(deadline, c.time + ref.distance * ii - lat)
        if deadline < earliest:
            raise CompileError(
                "node %d (%s): empty scheduling window"
                % (node.node_id, node.opcode.value)
            )

        # Prefer times near the node's static ALAP so short side chains
        # (address generation) land next to their consumers instead of
        # at the top of the schedule, which would make their values
        # unroutably stale by the time the consumer reads them.
        target = max(earliest, alap.get(node.node_id, earliest) if alap else earliest)
        target = min(target, deadline)
        times = sorted(range(earliest, deadline + 1), key=lambda t: (abs(t - target), t))

        produces = not node.is_store
        fus = self._candidate_fus(node, rng)
        for t in times:
            for fu in fus:
                if not mrrg.slot_free(fu, t):
                    continue
                if produces and not mrrg.commit_free(fu, t + lat):
                    continue
                snap = mrrg.checkpoint()
                moves_snap = len(moves)
                res_snap = dict(resolutions)
                lo_snap = dict(liveout_moves)
                try:
                    self._commit_placement(
                        node, fu, t, ii, mrrg, placements, moves,
                        resolutions, liveout_moves, move_uid,
                    )
                    return
                except (_RouteFail, CompileError):
                    mrrg.restore(snap)
                    placements.pop(node.node_id, None)
                    del moves[moves_snap:]
                    resolutions.clear()
                    resolutions.update(res_snap)
                    liveout_moves.clear()
                    liveout_moves.update(lo_snap)
        raise CompileError(
            "node %d (%s): no feasible placement at II=%d"
            % (node.node_id, node.opcode.value, ii)
        )

    def _commit_placement(
        self,
        node: Node,
        fu: int,
        t: int,
        ii: int,
        mrrg: Mrrg,
        placements: Dict[int, _Placed],
        moves: List[_Move],
        resolutions: Dict[Tuple[int, object], _Resolution],
        liveout_moves: Dict[int, _Move],
        move_uid: List[int],
    ) -> None:
        lat = node.latency
        mrrg.claim_slot(fu, t, node.node_id)
        produces = not node.is_store
        if produces:
            mrrg.claim_commit(fu, t + lat)
        placed = _Placed(node.node_id, fu, t, lat)

        # Resolve this node's operands.
        for key, ref in self._operands(node):
            if isinstance(ref, Const):
                resolutions[(node.node_id, key)] = _Resolution(
                    "imm", ref.value & MASK64
                )
            elif isinstance(ref, LiveIn):
                if self.arch.fus[fu].has_cdrf_port:
                    if not mrrg.cdrf_read_free(t):
                        raise _RouteFail()
                    mrrg.claim_cdrf_read(t)
                    resolutions[(node.node_id, key)] = _Resolution(
                        "cdrf:%s" % ref.name, 0, fu
                    )
                else:
                    if not (mrrg.lrf_alloc_free(fu, ref.name)
                            and mrrg.lrf_read_free(fu, t)):
                        raise _RouteFail()
                    entry = mrrg.claim_lrf(fu, ref.name)
                    mrrg.claim_lrf_read(fu, t)
                    resolutions[(node.node_id, key)] = _Resolution("lrf", entry, fu)
            elif isinstance(ref, NodeRef):
                if ref.node_id == node.node_id:
                    producer: _Placed = placed
                elif ref.node_id in placements:
                    producer = placements[ref.node_id]
                else:
                    # Back edge whose producer is not placed yet; the
                    # producer resolves it when it is placed.
                    continue
                resolutions[(node.node_id, key)] = self._route(
                    producer, fu, t + ref.distance * ii, ii, mrrg, moves,
                    move_uid, ref.init,
                )

        placements[node.node_id] = placed

        # Resolve back edges into already-placed consumers.
        for consumer, ref in self.dfg.consumers(node.node_id):
            if consumer.node_id == node.node_id:
                continue
            if consumer.node_id not in placements:
                continue
            c = placements[consumer.node_id]
            # Identify the operand keys of this edge.
            for key, operand in self._operands(consumer):
                if (
                    isinstance(operand, NodeRef)
                    and operand.node_id == node.node_id
                    and (consumer.node_id, key) not in resolutions
                ):
                    resolutions[(consumer.node_id, key)] = self._route(
                        placed, c.fu, c.time + operand.distance * ii, ii, mrrg,
                        moves, move_uid, operand.init,
                    )

        # Live-out write-back.
        if node.live_out is not None:
            if self.arch.fus[fu].has_cdrf_port:
                mrrg.claim_cdrf_write(t + lat)
            else:
                self._place_liveout_move(
                    node, placed, ii, mrrg, moves, liveout_moves, move_uid
                )

    # ------------------------------------------------------------------

    def _route(
        self,
        producer: _Placed,
        dst_fu: int,
        read_time: int,
        ii: int,
        mrrg: Mrrg,
        moves: List[_Move],
        move_uid: List[int],
        init: Optional[int],
    ) -> _Resolution:
        """Route *producer*'s value so *dst_fu* can read it at *read_time*.

        Every wait, before each re-latching move and before the final
        read, takes the storage row :meth:`Mrrg.place_to_wait` offers.
        Returns how the consumer reads the value (a phi with *init*);
        claims all resources (waits, move slots/commits).  Raises
        :class:`_RouteFail` when no route exists.
        """
        avail = producer.avail
        if read_time < avail:
            raise _RouteFail()
        path: List[Tuple[int, int]] = []
        if mrrg.place_to_wait(producer.fu, avail, read_time - avail, dst_fu) is None:
            path = self._relatch_path(producer, dst_fu, read_time, ii, mrrg)
        fu, at = producer.fu, avail
        for hop_fu, t_m in path:
            row = mrrg.hold(fu, at, t_m - at, hop_fu)
            mrrg.claim_slot(hop_fu, t_m, move_uid[0])
            mrrg.claim_commit(hop_fu, t_m + MOVE_LATENCY)
            moves.append(_Move(move_uid[0], hop_fu, t_m, _read(fu, row), producer.uid))
            move_uid[0] += 1
            fu, at = hop_fu, t_m + MOVE_LATENCY
        return _read(fu, mrrg.hold(fu, at, read_time - at, dst_fu), init)

    def _relatch_path(
        self, producer: _Placed, dst_fu: int, read_time: int, ii: int, mrrg: Mrrg
    ) -> List[Tuple[int, int]]:
        """The fewest re-latching moves ``[(unit, issue time)]`` (at most 3)
        after which the value can wait for *dst_fu*: a breadth-first
        search that tries each successor unit at its earliest feasible
        re-latch time."""
        successors = self.arch.interconnect.successors
        frontier = deque([(producer.fu, producer.avail, [])])
        visited = {(producer.fu, producer.avail)}
        while frontier:
            cur_fu, cur_avail, path = frontier.popleft()
            if len(path) >= 3:
                continue
            t_hi = min(cur_avail + ii - 1, read_time - MOVE_LATENCY)
            for nxt_fu in successors(cur_fu):
                for t_m in range(cur_avail, t_hi + 1):
                    if (
                        mrrg.slot_free(nxt_fu, t_m)
                        and mrrg.commit_free(nxt_fu, t_m + MOVE_LATENCY)
                        and mrrg.place_to_wait(cur_fu, cur_avail, t_m - cur_avail, nxt_fu)
                        is not None
                    ):
                        break
                else:
                    continue
                new_avail = t_m + MOVE_LATENCY
                if (nxt_fu, new_avail) in visited:
                    continue
                visited.add((nxt_fu, new_avail))
                new_path = path + [(nxt_fu, t_m)]
                if mrrg.place_to_wait(nxt_fu, new_avail, read_time - new_avail, dst_fu) is not None:
                    return new_path
                frontier.append((nxt_fu, new_avail, new_path))
        raise _RouteFail()

    def _place_liveout_move(
        self,
        node: Node,
        placed: _Placed,
        ii: int,
        mrrg: Mrrg,
        moves: List[_Move],
        liveout_moves: Dict[int, _Move],
        move_uid: List[int],
    ) -> None:
        """Route a live-out value to a CDRF-ported unit and write it there."""
        avail = placed.avail
        for vliw_fu in [fu.index for fu in self.arch.vliw_fus]:
            for t_m in range(avail, avail + ii):
                if not mrrg.slot_free(vliw_fu, t_m):
                    continue
                if not mrrg.commit_free(vliw_fu, t_m + MOVE_LATENCY):
                    continue
                if not mrrg.cdrf_write_free(t_m + MOVE_LATENCY):
                    continue
                if mrrg.place_to_wait(placed.fu, avail, t_m - avail, vliw_fu) is None:
                    continue
                row = mrrg.hold(placed.fu, avail, t_m - avail, vliw_fu)
                mrrg.claim_slot(vliw_fu, t_m, move_uid[0])
                mrrg.claim_commit(vliw_fu, t_m + MOVE_LATENCY)
                mrrg.claim_cdrf_write(t_m + MOVE_LATENCY)
                move = _Move(
                    move_uid[0], vliw_fu, t_m, _read(placed.fu, row), node.node_id
                )
                moves.append(move)
                liveout_moves[node.node_id] = move
                move_uid[0] += 1
                return
        raise _RouteFail()
