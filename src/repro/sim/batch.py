"""The compiled tier: a lockstep runner over lane-batched generated code.

:class:`BatchProgramRunner` advances one or more
:class:`~repro.sim.core.Core` instances ("lanes") to completion in
lockstep, replicating the interpreted :meth:`Core.run` loop bit-exactly
while replacing the hot inner execution with the lane-batched functions
emitted by :mod:`repro.sim.codegen`
(:func:`~repro.sim.codegen.cga_batch_runner` /
:func:`~repro.sim.codegen.vliw_batch_runner`): one Python frame advances
every lane of a group through a VLIW segment or a whole CGA steady-state
window.  It is the only executor of generated code: a single packet
(``Core(interpreter="compiled").run()``) is a one-lane run.

Lanes are expected to run ``patch_constants`` variants of one linked
program — immediate *values* may differ per lane (delivered as per-lane
imm pools), structure may not.  The runner does not trust that contract
blindly: every dispatch groups lanes by structural signature (and, for
kernels, by resolved trip count), and each group runs through one call
of the generated function at the group's width — so lanes that diverge
(different ``pc``, structure or trip) simply form smaller groups, down
to width 1.  The width is a call-time value, so one compile serves
every width; a kernel's function is specialized on the group's
resolved trip count.  Only a segment or kernel the code generator
refuses (:class:`~repro.sim.codegen.CodegenUnsupported`: a port-pressure
bound it cannot prove statically, or a kernel that would unroll too
many prologue/epilogue slots) runs on the engines' interpreted
``run_reference`` loops instead, lane by lane, which are bit-identical
by the codegen contract.

Faults are per-lane: a lane whose generated code raises (scratchpad
bounds, VLIW runaway) stops and its exception, mapped exactly as
:meth:`Core.run` maps it, is recorded in its :class:`LaneResult`.  The
batched fault leaves deferred counters unflushed, so the caller must not
reuse the lane's partial state; the modem runtime replays such a lane
alone on a fresh core.

Tracing must be disabled on every lane: the batched code omits tracer
hooks entirely (that is what makes it fast), so lockstep execution under
an enabled tracer would silently drop events.  :meth:`run` refuses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim import codegen
from repro.sim.cga import CgaFault
from repro.sim.core import MODE_SWITCH_CYCLES, Core, SimulationError
from repro.sim.vliw import StopEvent, VliwFault

MASK32 = 0xFFFFFFFF

_UNSET = object()


class LaneResult:
    """Outcome of one lane: the core holding final state and the error
    (if the lane faulted)."""

    __slots__ = ("core", "error")

    def __init__(self, core: Core, error: Optional[BaseException] = None) -> None:
        self.core = core
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchProgramRunner:
    """Resident lockstep driver over a fixed set of lane slots.

    One runner instance is meant to live as long as its lane set (e.g.
    the resident cores of one receiver region, at any width): the
    signature/imm-pool memos are keyed by kernel slot or pc and lane,
    and invalidated by program-object identity, so re-dispatching the
    same (or a freshly patched) program costs no signature walks after
    the first packet — the 27% of warm per-packet time the profile
    blamed on pool/signature recomputation.  A lane's miss first looks
    for the same object in the other lanes' entries at that slot or
    pc, so lanes sharing a kernel or bundle list walk it once.  Batch
    functions are cached per signature, and for kernels per
    ``(signature, trip)``: every CGA window runs the function
    :func:`~repro.sim.codegen.cga_batch_runner` specialized on its
    group's resolved trip count.
    """

    def __init__(self, max_cycles: int = 10_000_000) -> None:
        self.max_cycles = max_cycles
        #: signature id -> batch fn (any width) | None (codegen refused).
        self._vliw_fns: Dict[int, object] = {}
        #: (signature id, trip) -> trip-specialized batch fn | None.
        self._cga_fns: Dict[tuple, object] = {}
        #: (pc, lane) -> (bundles, signature id, imms, end_pc).
        self._vliw_lane: Dict[tuple, tuple] = {}
        #: (kernel_id_slot, lane) -> (kernel, signature id, imms).
        self._cga_lane: Dict[tuple, tuple] = {}
        #: signature tuple -> small interned id.  Group keys and batch-fn
        #: cache keys carry the id, so the (large) signature tuple is
        #: hashed once per memo fill, not once per lane per round.
        self._sig_ids: Dict[tuple, int] = {}
        #: signature id -> signature, handed to the code generator.
        self._sigs: List[tuple] = []
        #: The most lanes a :meth:`run` had: a memo miss searches their
        #: entries for a lane sharing the object.
        self._width = 0

    # -- per-lane memoization (identity-guarded: strong refs pin ids) ---

    def _intern(self, sig: tuple) -> int:
        sid = self._sig_ids.get(sig)
        if sid is None:
            sid = self._sig_ids[sig] = len(self._sigs)
            self._sigs.append(sig)
        return sid

    def _shared(self, memo: Dict[tuple, tuple], slot, obj) -> Optional[tuple]:
        """Another lane's entry at *slot* for the very object *obj*."""
        for lane in range(self._width):
            ent = memo.get((slot, lane))
            if ent is not None and ent[0] is obj:
                return ent
        return None

    def _lane_vliw(self, lane: int, core: Core, pc: int) -> tuple:
        key = (pc, lane)
        ent = self._vliw_lane.get(key)
        bundles = core.program.bundles
        if ent is not None and ent[0] is bundles:
            return ent
        ent = self._shared(self._vliw_lane, pc, bundles)
        if ent is None:
            end_pc = codegen.vliw_segment_end(bundles, pc)
            sig, imms, _sites = codegen.vliw_layout(bundles, pc, end_pc)
            ent = (bundles, self._intern(sig), imms, end_pc)
        self._vliw_lane[key] = ent
        return ent

    def _lane_cga(self, lane: int, kid, kernel) -> tuple:
        key = (kid, lane)
        ent = self._cga_lane.get(key)
        if ent is not None and ent[0] is kernel:
            return ent
        ent = self._shared(self._cga_lane, kid, kernel)
        if ent is None:
            sig, imms, _sites = codegen.cga_layout(kernel)
            ent = (kernel, self._intern(sig), imms)
        self._cga_lane[key] = ent
        return ent

    # -- batch-function lookup ------------------------------------------

    def _vliw_fn(self, core0: Core, pc: int, sid: int):
        fn = self._vliw_fns.get(sid, _UNSET)
        if fn is _UNSET:
            try:
                fn, _end = codegen.vliw_batch_runner(
                    core0.program.bundles, pc, core0.vliw.slot_fus,
                    core0.cdrf, core0.cprf, core0.scratchpad, core0.icache,
                    VliwFault, signature=self._sigs[sid],
                )
            except codegen.CodegenUnsupported:
                fn = None
            self._vliw_fns[sid] = fn
        return fn

    def _cga_fn(self, core0: Core, kernel0, sid: int, trip: int):
        key = (sid, trip)
        fn = self._cga_fns.get(key, _UNSET)
        if fn is _UNSET:
            try:
                fn = codegen.cga_batch_runner(
                    kernel0, core0.arch, CgaFault,
                    cdrf_ports=(core0.cdrf.read_ports, core0.cdrf.write_ports),
                    cprf_ports=(core0.cprf.read_ports, core0.cprf.write_ports),
                    trip=trip, signature=self._sigs[sid],
                )
            except codegen.CodegenUnsupported:
                fn = None
            self._cga_fns[key] = fn
        return fn

    # -- driving --------------------------------------------------------

    def run(self, cores: List[Core]) -> List[LaneResult]:
        """Drive every lane to halt (or error); returns per-lane results.

        A lane that faults stops with its exception recorded, mapped
        exactly as :meth:`Core.run` would map it.
        """
        for core in cores:
            if core.tracer.enabled:
                raise ValueError("batch execution requires tracing disabled")
        n = len(cores)
        self._width = max(self._width, n)
        results = [LaneResult(core) for core in cores]

        def fail(lane: int, exc: BaseException) -> None:
            results[lane].error = exc

        while True:
            act = [i for i in range(n)
                   if results[i].error is None and not results[i].core.halted]
            if not act:
                break
            # Core.run's loop-top runaway check, once per stop round.
            for i in list(act):
                if results[i].core.cycle > self.max_cycles:
                    fail(i, SimulationError(
                        "exceeded %d cycles; runaway program?" % self.max_cycles))
                    act.remove(i)
            if not act:
                continue
            stop_ev = self._vliw_phase(act, results, fail)
            self._stop_phase(stop_ev, results, fail)
        return results

    # -- VLIW phase: run every active lane to its next stop event -------

    def _vliw_phase(self, act: List[int], results: List[LaneResult],
                    fail) -> Dict[int, StopEvent]:
        stop_ev: Dict[int, StopEvent] = {}
        pending = list(act)
        while pending:
            # Fell off the instruction stream: same stop the engine makes.
            regroup: List[int] = []
            for i in pending:
                core = results[i].core
                if 0 <= core.pc < len(core.program.bundles):
                    regroup.append(i)
                else:
                    stop_ev[i] = StopEvent("end", next_pc=core.pc)
            groups: Dict[tuple, List[int]] = {}
            lane_imms: Dict[int, tuple] = {}
            for i in regroup:
                core = results[i].core
                _bundles, sid, imms, _end = self._lane_vliw(i, core, core.pc)
                lane_imms[i] = imms
                groups.setdefault((core.pc, sid), []).append(i)
            pending = []
            for (pc, sid), lanes in groups.items():
                core0 = results[lanes[0]].core
                try:
                    fn = self._vliw_fn(core0, pc, sid)
                except VliwFault as exc:
                    for i in lanes:
                        fail(i, SimulationError(str(exc)))
                    continue
                if fn is None:
                    self._vliw_reference(lanes, results, stop_ev, fail)
                    continue
                pending.extend(
                    self._vliw_batch_step(fn, lanes, lane_imms, results,
                                          stop_ev, fail))
        return stop_ev

    def _vliw_reference(self, lanes, results, stop_ev, fail) -> None:
        """Fallback for a segment codegen refused: one full
        ``run_reference`` per lane to its next stop event."""
        for i in lanes:
            core = results[i].core
            try:
                stop, cycle = core.vliw.run_reference(
                    core.pc, core.cycle, max_cycle=self.max_cycles)
            except VliwFault as exc:
                fail(i, SimulationError(str(exc)))
                continue
            except Exception as exc:
                fail(i, exc)
                continue
            core.cycle = cycle
            core.pc = stop.next_pc
            stop_ev[i] = stop

    def _vliw_batch_step(self, fn, lanes, lane_imms, results, stop_ev,
                         fail) -> List[int]:
        """One batched segment; returns the lanes that continue (their
        segment ended without a stop event, e.g. a fallthrough branch)."""
        mcores = [results[i].core for i in lanes]
        m = len(lanes)
        stops: List[object] = [None] * m
        next_pcs = [0] * m
        cycles_out = [0] * m
        faults: List[object] = [None] * m
        fn(
            [c.cycle for c in mcores],
            self.max_cycles,
            [lane_imms[i] for i in lanes],
            [c.cdrf._regs for c in mcores],
            [c.cprf._regs for c in mcores],
            [c.vliw._reg_ready for c in mcores],
            [c.vliw._pred_ready for c in mcores],
            [c.icache for c in mcores],
            [c.scratchpad for c in mcores],
            [c.stats for c in mcores],
            stops, next_pcs, cycles_out, faults,
        )
        carry_on: List[int] = []
        for k, i in enumerate(lanes):
            if faults[k] is not None:
                exc = faults[k]
                if isinstance(exc, VliwFault):
                    exc = SimulationError(str(exc))
                fail(i, exc)
                continue
            core = results[i].core
            core.cycle = cycles_out[k]
            core.pc = next_pcs[k]
            if stops[k] is not None:
                stop_ev[i] = stops[k]
            else:
                carry_on.append(i)
        return carry_on

    # -- stop phase: halts and (batched) kernel execution ---------------

    def _stop_phase(self, stop_ev: Dict[int, StopEvent], results, fail) -> None:
        groups: Dict[tuple, List[int]] = {}
        ginfo: Dict[int, tuple] = {}
        for i, stop in stop_ev.items():
            if stop.reason in ("halt", "end"):
                results[i].core.halted = True
                continue
            if stop.reason != "cga":
                fail(i, SimulationError("unknown stop reason %r" % stop.reason))
                continue
            core = results[i].core
            kid = stop.kernel_id
            if kid is None or kid not in core.program.kernels:
                fail(i, SimulationError("cga references unknown kernel %r" % kid))
                continue
            kernel = core.program.kernels[kid]
            # Mode switch in (Core._run_kernel).
            core.stats.cga_cycles += MODE_SWITCH_CYCLES
            core.cycle += MODE_SWITCH_CYCLES
            trip = kernel.trip_count
            if trip is None:
                if kernel.trip_count_reg is None:
                    fail(i, CgaFault("kernel %s has no trip count" % kernel.name))
                    continue
                trip = core.cdrf.peek(kernel.trip_count_reg) & MASK32
            if trip <= 0:
                core.kernel_log.append({"kernel": kernel.name, "cycles": 0})
                core.stats.cga_cycles += MODE_SWITCH_CYCLES
                core.cycle += MODE_SWITCH_CYCLES
                continue
            # Preload targets are structural but outside the signature:
            # fault the lane here, before any preload side effect.
            bad = next((p for p in kernel.preloads
                        if p.fu not in core.local_rfs), None)
            if bad is not None:
                fail(i, CgaFault(
                    "preload targets FU%d without a local RF" % bad.fu))
                continue
            _kernel, sid, imms = self._lane_cga(i, kid, kernel)
            ginfo[i] = (kernel, imms)
            groups.setdefault((sid, trip), []).append(i)
        for (sid, trip), lanes in groups.items():
            core0 = results[lanes[0]].core
            try:
                fn = self._cga_fn(core0, ginfo[lanes[0]][0], sid, trip)
            except CgaFault as exc:
                for i in lanes:
                    fail(i, exc)
                continue
            if fn is None:
                self._cga_reference(lanes, ginfo, results, fail)
                continue
            self._cga_batch_step(fn, trip, lanes, ginfo, results, fail)

    def _cga_reference(self, lanes, ginfo, results, fail) -> None:
        """Fallback for a kernel codegen refused: ``run_reference`` per
        lane (the engine applies preloads and resolves the trip itself,
        exactly as in Core.run)."""
        for i in lanes:
            core = results[i].core
            kernel = ginfo[i][0]
            start = core.cycle
            try:
                end = core.cga.run_reference(kernel, core.cycle)
            except Exception as exc:
                fail(i, exc)
                continue
            core.cycle = end
            core.kernel_log.append({"kernel": kernel.name, "cycles": end - start})
            core.stats.cga_cycles += MODE_SWITCH_CYCLES
            core.cycle += MODE_SWITCH_CYCLES

    def _cga_batch_step(self, fn, trip, lanes, ginfo, results, fail) -> None:
        ready = []
        starts = []
        preload_cycles_s = []
        start_cycles = []
        for i in lanes:
            core = results[i].core
            kernel = ginfo[i][0]
            pre = (len(kernel.preloads) + 1) // 2
            if max(core.scratchpad._bank_next_free) > core.cycle + pre:
                # The generated code assumes every bank is idle at the
                # kernel's first cycle (see ``codegen.cga_batch_runner``).
                self._cga_reference([i], ginfo, results, fail)
                continue
            ready.append(i)
            local_rfs = core.local_rfs
            cdrf_peek = core.cdrf.peek
            for preload in kernel.preloads:
                local_rfs[preload.fu].write(
                    preload.lrf_index, cdrf_peek(preload.cdrf_reg))
                core.stats.cdrf_reads += 1
            out_latch = core.cga._out_latch
            for j in range(len(out_latch)):
                out_latch[j] = 0
            starts.append(core.cycle)
            preload_cycles_s.append(pre)
            start_cycles.append(core.cycle + pre)
        if not ready:
            return
        lanes = ready
        m = len(lanes)
        mcores = [results[i].core for i in lanes]
        ends = [0] * m
        faults: List[object] = [None] * m
        fn(
            [trip] * m,
            start_cycles,
            preload_cycles_s,
            [ginfo[i][1] for i in lanes],
            [c.cga._out_latch for c in mcores],
            [c.cdrf._regs for c in mcores],
            [c.cprf._regs for c in mcores],
            [c.local_rfs for c in mcores],
            [c.scratchpad for c in mcores],
            [c.stats for c in mcores],
            ends, faults,
        )
        for k, i in enumerate(lanes):
            if faults[k] is not None:
                fail(i, faults[k])
                continue
            core = results[i].core
            core.cycle = ends[k]
            core.kernel_log.append(
                {"kernel": ginfo[i][0].name, "cycles": ends[k] - starts[k]})
            core.stats.cga_cycles += MODE_SWITCH_CYCLES
            core.cycle += MODE_SWITCH_CYCLES

