"""The modem runtime: compile once, stream packets through resident programs.

The paper's toolflow compiles a baseband program once and the control
processor then streams every packet through the resident configuration,
patching only packet-dependent constants.  :class:`ModemRuntime` is that
split on top of :class:`repro.modem.receiver.SimReceiver`, whose region
programs are pure functions of the region, not of the packet or its
shape: the first packet links each of the 18 region programs once
(hitting the schedule cache), and every later packet, of any shape,
only simulates.

It is the one driver of :meth:`SimReceiver._pipeline`, on every tier and
with or without a tracer.  It advances up to B packets' pipeline
generators together, whatever their shapes, region by region.  Like the
paper's one processor loading one configuration after another, it keeps
one resident lane set of at most B cores: every region runs on its
first lanes, one per packet, each :meth:`~repro.sim.core.Core.reset` to
the lane's program and pre-region image:

* On the untraced ``compiled`` tier (the default) the lanes run in
  lockstep through :class:`repro.sim.batch.BatchProgramRunner`: one
  Python frame per VLIW segment or CGA window for the whole batch.  A
  single packet is a batch of one.
* On the ``reference`` tier, or while the tracer is enabled, each lane
  runs alone through :meth:`Core.run` on the interpreted loop, which
  emits every trace event.

What makes lockstep safe:

* Every packet requests the same region sequence and the same linked
  programs: packet data, the sample count included, reaches them only
  through per-lane scratchpad images (including the parameter block)
  and per-lane ``patch_constants`` immediate pools.  The batch functions
  take both as structure-of-arrays arguments, so all lanes share one
  compile per kernel signature, and any mix of shapes shares one
  lockstep call.
* Divergence (differing data-dependent trip counts, or packets whose
  pipelines request different regions) only splits the lanes into
  smaller groups, each run through the generated code at its own width.

A lane that faults in lockstep is reset on its own core to its
pre-region image and replayed alone, the way a lane that is not in
lockstep always runs; that reproduces the single-packet result or
exception bit-identically.  A lane that runs alone is already that
single-packet run, so its fault is final.

The speed comes from resident state: the lane cores (no ``Core``
construction, configuration DMA or allocator traffic per packet; at
most :attr:`ModemRuntime.batch` of them, shared by every region), and
one :class:`~repro.modem.receiver.LinkedRegion` per region id, held by
:class:`SimReceiver`, so one set of 18 serves every shape: the linked
program and its lockstep runner (cached batch functions plus per-lane
signature/immediate pools, a patched lane's derived from its
template's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.builder import PhysReg
from repro.compiler.linker import configure_schedule_cache
from repro.modem.receiver import (
    RegionRequest,
    RegionRun,
    ReceiverOutput,
    SimReceiver,
)
from repro.sim import Core
from repro.sim.core import check_interpreter
from repro.sim.program import Program, patch_constants
from repro.sim.stats import ActivityStats, KernelProfile
from repro.trace.tracer import NULL_TRACER, Tracer


@dataclass
class BatchPacketResult:
    """Per-packet outcome of a batched run: exactly one of *output* /
    *error* is set; *fell_back* marks packets that needed any region
    replay (lockstep fault) or hit a host-side error."""

    output: Optional[ReceiverOutput] = None
    error: Optional[BaseException] = None
    fell_back: bool = False


class _Lane:
    """One packet's pipeline generator while its batch is in flight."""

    __slots__ = ("index", "gen", "request", "done")

    def __init__(self, index: int, gen) -> None:
        self.index = index
        self.gen = gen
        self.request: Optional[RegionRequest] = None
        self.done = False


class ModemRuntime:
    """A resident receiver: links each region program once, for every
    packet shape, and runs packets on them over one set of at most
    :attr:`batch` lane cores, up to :attr:`batch` packets of any shapes
    per lockstep call on the compiled tier."""

    def __init__(
        self,
        interpreter: str = "compiled",
        batch: int = 8,
        cache_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        check_interpreter(interpreter)
        if batch < 1:
            raise ValueError("batch must be >= 1, got %d" % batch)
        if cache_dir is not None:
            configure_schedule_cache(cache_dir)
        self.interpreter = interpreter
        self.receiver = SimReceiver()
        #: Receives one ``region`` span per simulated region of every
        #: packet, plus every event the region cores emit.  While it is
        #: enabled, lanes run one at a time on the reference loop, since
        #: generated code has no tracer hooks.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.batch = int(batch)
        #: Cumulative activity across every packet this runtime has run.
        #: Fabric worker heartbeats sample it (``host_cycles``, per-cause
        #: stall attribution).
        self.activity = ActivityStats()
        #: Packets run by this runtime instance.
        self.packets_run = 0
        #: Packets that needed any region replay (fault) or errored.
        self.fallbacks = 0
        #: The resident lane cores, grown on demand up to :attr:`batch`;
        #: a region's lanes are the first ``len(members)`` of them.
        self._cores: List[Core] = []

    @property
    def compiled_programs(self) -> int:
        """Region programs linked so far: 18 after the first packet,
        whatever shapes follow."""
        return self.receiver.compiled_programs

    @property
    def host_cycles(self) -> int:
        """Total simulated cycles across every packet run so far."""
        return int(self.activity.total_cycles)

    @property
    def stall_causes(self) -> Dict[str, int]:
        """Cumulative per-cause stall attribution (cause name -> cycles)."""
        return self.activity.stall_breakdown()

    def run_packet(self, rx: np.ndarray) -> ReceiverOutput:
        """Run one packet: a batch of one."""
        return self.run_batch([rx])[0]

    # -- batched entry points -------------------------------------------

    def run_batch(self, packets: Sequence[np.ndarray]) -> List[ReceiverOutput]:
        """Process *packets*; raises the first per-packet error after finishing the rest."""
        results = self.run_batch_results(packets)
        for result in results:
            if result.error is not None:
                raise result.error
        return [result.output for result in results]

    def run_batch_results(
        self, packets: Sequence[np.ndarray]
    ) -> List[BatchPacketResult]:
        """Like :meth:`run_batch` but never raises: one
        :class:`BatchPacketResult` per input packet, in input order.

        The input is cut, in order, into chunks of at most :attr:`batch`
        lanes (the final chunk may be ragged), whatever the packets'
        shapes; chunk results are bit-identical to running each packet
        alone, on either interpreter tier.
        """
        packets = [np.atleast_2d(np.asarray(rx)) for rx in packets]
        results = [BatchPacketResult() for _ in packets]
        for lo in range(0, len(packets), self.batch):
            self._run_chunk(packets[lo : lo + self.batch], results[lo : lo + self.batch])
        for result in results:
            if result.output is not None:
                self.activity.merge(result.output.stats)
                self.packets_run += 1
            if result.fell_back:
                self.fallbacks += 1
        return results

    # -- chunk driver ---------------------------------------------------

    def _run_chunk(
        self, packets: List[np.ndarray], results: List[BatchPacketResult]
    ) -> None:
        receiver = self.receiver
        lanes = [_Lane(i, receiver._pipeline(rx)) for i, rx in enumerate(packets)]

        def step(lane: _Lane, resp) -> None:
            """Advance one pipeline; record output/error at the end."""
            try:
                lane.request = lane.gen.send(resp)
            except StopIteration as stop:
                lane.done = True
                results[lane.index].output = stop.value
            except Exception as exc:
                lane.done = True
                results[lane.index].error = exc
                results[lane.index].fell_back = True

        for lane in lanes:
            step(lane, None)
        while True:
            live = [lane for lane in lanes if not lane.done]
            if not live:
                return
            groups: Dict[tuple, List[_Lane]] = {}
            for lane in live:
                rid = (lane.request.name,) + tuple(lane.request.key)
                groups.setdefault(rid, []).append(lane)
            # Every packet, of any shape, requests the same region
            # sequence, so normally there is exactly one group; a
            # divergent pipeline just forms its own (smaller) group,
            # run after the others on the same first lane cores.
            for rid, members in groups.items():
                responses = self._run_region_batch(rid, members, results)
                for lane, resp in zip(members, responses):
                    if resp is None:
                        continue  # lane errored; already recorded
                    step(lane, resp)

    # -- region execution -----------------------------------------------

    def _run_region_batch(
        self,
        rid: tuple,
        members: List[_Lane],
        results: List[BatchPacketResult],
    ) -> List[Optional[Tuple[RegionRun, bytearray]]]:
        """Run one region for every lane in *members* on the first
        ``len(members)`` lane cores; ``None`` marks a lane whose packet
        failed."""
        req0 = members[0].request
        region = self.receiver._region_program(rid, req0.name, req0.build)
        program = region.program
        while len(self._cores) < len(members):
            self._cores.append(self._new_core(program))
        cores = self._cores[: len(members)]
        programs = [
            patch_constants(program, lane.request.patch) if lane.request.patch else program
            for lane in members
        ]
        lockstep = self.interpreter == "compiled" and not self.tracer.enabled
        faults: List[Optional[BaseException]] = [None] * len(members)
        if lockstep:
            for core, lane_program, lane in zip(cores, programs, members):
                core.reset(lane_program, lane.request.image)
            faults = [lr.error for lr in region.runner.run(cores)]
        responses: List[Optional[Tuple[RegionRun, bytearray]]] = []
        for core, lane_program, lane, fault in zip(cores, programs, members, faults):
            if lockstep and fault is None:
                delta, error = core.stats.take().validate(), None
            else:
                # Alone on the lane's own core, reset: the canonical run.
                # A lockstep fault leaves deferred counters unflushed, so
                # its lane replays; a lane that already ran alone is not
                # replayed (that would repeat its trace events).
                if fault is not None:
                    results[lane.index].fell_back = True
                delta, error = self._run_lane(core, lane_program, lane.request.image)
            if error is not None:
                lane.done = True
                results[lane.index].error = error
                results[lane.index].fell_back = True
                responses.append(None)
                continue
            responses.append(self._region_run(req0.name, core, delta, region.handles))
        return responses

    def _new_core(self, program: Program) -> Core:
        return Core(
            self.receiver.arch, program, tracer=self.tracer, interpreter=self.interpreter
        )

    @staticmethod
    def _run_lane(
        core: Core, program: Program, image: bytearray
    ) -> Tuple[Optional[ActivityStats], Optional[Exception]]:
        """Reset *core* to *program* and *image* and run it alone;
        returns the region's statistics, or the exception it raised."""
        try:
            core.reset(program, image)
            core.run()
            return core.stats.take().validate(), None
        except Exception as exc:
            return None, exc

    def _region_run(
        self, name: str, core: Core, delta: ActivityStats, handles: Dict[str, object]
    ) -> Tuple[RegionRun, bytearray]:
        """The pipeline's response for one finished lane.  When tracing,
        emits the region span and advances the tracer's base past it:
        every core restarts its cycle counter at zero, so the regions of
        every packet line up on one timeline."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.complete(name, 0, delta.total_cycles, cat="region")
            tracer.advance_base(delta.total_cycles)
        outputs = {
            out_name: core.cdrf.peek(handle.index)
            for out_name, handle in handles.items()
            if isinstance(handle, PhysReg)
        }
        run = RegionRun(name, KernelProfile(name, delta), outputs)
        return run, bytearray(core.scratchpad._mem)


#: The runtime's former batched-only name.  The serving benchmark's
#: span recorder (``benchmarks/suite/spans.py``) wraps
#: ``repro.runtime.batched.BatchedModemRuntime.run_batch_results`` by
#: attribute path, so the alias must stay one object with the class.
BatchedModemRuntime = ModemRuntime
