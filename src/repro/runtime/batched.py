"""The modem runtime: compile once, stream packets through resident programs.

The paper's toolflow compiles a baseband program once and the control
processor then streams every packet through the resident configuration,
patching only packet-dependent constants.  :class:`ModemRuntime` is that
split on top of :class:`repro.modem.receiver.SimReceiver`, whose region
programs are pure functions of (architecture, seed, memory map, OFDM
params, packet shape): the first packet of a shape links every region
program (hitting the schedule cache), and every later packet of that
shape only simulates.

It is the one driver of :meth:`SimReceiver._pipeline`, on every tier and
with or without a tracer.  It advances up to B same-shape packets'
pipeline generators together, region by region, and runs each region
on that region's resident cores, one per lane, each
:meth:`~repro.sim.core.Core.reset` to the lane's program and
pre-region image:

* On the untraced ``compiled`` tier (the default) the lanes run in
  lockstep through :class:`repro.sim.batch.BatchProgramRunner`: one
  Python frame per VLIW segment or CGA window for the whole batch.  A
  single packet is a batch of one.
* On the ``reference`` tier, or while the tracer is enabled, each lane
  runs alone through :meth:`Core.run` on the interpreted loop, which
  emits every trace event.

What makes lockstep safe:

* Region programs are pure functions of the packet *shape*: packets
  are bucketed by ``(n_samples, n_symbols)`` and only same-shape packets
  share a batch, so every lane requests the same region sequence.
* Packet data reaches the programs through per-lane scratchpad images
  (including the parameter block) and per-lane ``patch_constants``
  immediate pools; the batch functions take both as structure-of-arrays
  arguments, so all lanes share one compile per kernel signature.
* Divergence (differing data-dependent trip counts, or packets whose
  pipelines request different regions) only splits the lanes into
  smaller groups, each run through the generated code at its own width.

A lane that faults in lockstep is replayed alone on a fresh core reset
to its pre-region image, which reproduces the single-packet result or
exception bit-identically.  A lane that runs alone is already that
single-packet run, so its fault is final.

The speed comes from three resident structures, all per region id: the
lane cores (no ``Core`` construction, configuration DMA or allocator
traffic per packet), the :class:`BatchProgramRunner` (cached batch
functions plus per-lane signature/immediate pools), and the linked
region programs cached by :class:`SimReceiver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch import CgaArchitecture
from repro.compiler.builder import PhysReg
from repro.compiler.linker import configure_schedule_cache
from repro.modem.memory_map import DEFAULT_MAP, MemoryMap
from repro.modem.receiver import (
    RegionRequest,
    RegionRun,
    ReceiverOutput,
    SimReceiver,
)
from repro.phy.params import PARAMS_20MHZ_2X2, OfdmParams
from repro.sim import Core
from repro.sim.batch import BatchProgramRunner
from repro.sim.core import check_interpreter
from repro.sim.program import Program, patch_constants
from repro.sim.stats import ActivityStats, KernelProfile
from repro.trace.tracer import NULL_TRACER, Tracer


@dataclass
class BatchPacketResult:
    """Per-packet outcome of a batched run: exactly one of *output* /
    *error* is set; *fell_back* marks packets that needed any fresh-core
    region replay (fault) or hit a host-side error."""

    output: Optional[ReceiverOutput] = None
    error: Optional[BaseException] = None
    fell_back: bool = False


class _RegionLanes:
    """Resident execution state for one region id: lane cores reset in
    place per packet, plus the lockstep runner with its warm caches."""

    __slots__ = ("cores", "runner")

    def __init__(self) -> None:
        self.cores: List[Core] = []
        self.runner = BatchProgramRunner()


class _Lane:
    """One packet's pipeline generator while its batch is in flight."""

    __slots__ = ("index", "gen", "request", "done")

    def __init__(self, index: int, gen) -> None:
        self.index = index
        self.gen = gen
        self.request: Optional[RegionRequest] = None
        self.done = False


class ModemRuntime:
    """A resident receiver: links each shape's region programs once and
    runs packets on them, up to :attr:`batch` same-shape packets per
    lockstep call on the compiled tier."""

    def __init__(
        self,
        arch: Optional[CgaArchitecture] = None,
        params: OfdmParams = PARAMS_20MHZ_2X2,
        mem: MemoryMap = DEFAULT_MAP,
        seed: int = 0,
        interpreter: str = "compiled",
        batch: int = 8,
        cache_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        check_interpreter(interpreter)
        if cache_dir is not None:
            configure_schedule_cache(cache_dir)
        self.interpreter = interpreter
        self.receiver = SimReceiver(arch=arch, params=params, mem=mem, seed=seed)
        #: Receives one ``region`` span per simulated region of every
        #: packet, plus every event the region cores emit.  While it is
        #: enabled, lanes run one at a time on the reference loop, since
        #: generated code has no tracer hooks.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.batch = max(1, int(batch))
        #: Packet shapes ``(n_samples, n_symbols)`` this runtime has run
        #: (== shapes whose region programs are linked and resident).
        #: ``repro.fabric`` uses this to seed shape-affinity state for
        #: workers forked from a warm template.
        self.warmed_shapes: set = set()
        #: Cumulative activity across every packet this runtime has run.
        #: Fabric worker heartbeats sample it (``host_cycles``, per-cause
        #: stall attribution).
        self.activity = ActivityStats()
        #: Packets run by this runtime instance.
        self.packets_run = 0
        #: Packets that needed any fresh-core replay (fault) or errored.
        self.fallbacks = 0
        self._regions: Dict[tuple, _RegionLanes] = {}

    @property
    def compiled_programs(self) -> int:
        """Region programs linked so far (grows only on new shapes)."""
        return self.receiver.compiled_programs

    @property
    def host_cycles(self) -> int:
        """Total simulated cycles across every packet run so far."""
        return int(self.activity.total_cycles)

    @property
    def stall_causes(self) -> Dict[str, int]:
        """Cumulative per-cause stall attribution (cause name -> cycles)."""
        return self.activity.stall_breakdown()

    def run_packet(
        self,
        rx: np.ndarray,
        n_symbols: int = 2,
        detect_hint: Optional[int] = None,
    ) -> ReceiverOutput:
        """Run one packet: a batch of one."""
        return self.run_batch([rx], n_symbols=n_symbols, detect_hint=detect_hint)[0]

    # -- batched entry points -------------------------------------------

    def run_batch(
        self,
        packets: Sequence[np.ndarray],
        n_symbols: int = 2,
        detect_hint: Optional[int] = None,
    ) -> List[ReceiverOutput]:
        """Process *packets*; raises the first per-packet error after finishing the rest."""
        results = self.run_batch_results(
            packets, n_symbols=n_symbols, detect_hint=detect_hint
        )
        for result in results:
            if result.error is not None:
                raise result.error
        return [result.output for result in results]

    def run_batch_results(
        self,
        packets: Sequence[np.ndarray],
        n_symbols: int = 2,
        detect_hint: Optional[int] = None,
    ) -> List[BatchPacketResult]:
        """Like :meth:`run_batch` but never raises: one
        :class:`BatchPacketResult` per input packet, in input order.

        Packets are bucketed by shape ``(n_samples, n_symbols)`` and each
        bucket is cut into chunks of at most :attr:`batch` lanes (the
        final chunk may be ragged); chunk results are bit-identical to
        running each packet alone, on either interpreter tier.
        """
        packets = [np.atleast_2d(np.asarray(rx)) for rx in packets]
        results = [BatchPacketResult() for _ in packets]
        buckets: Dict[tuple, List[int]] = {}
        for i, rx in enumerate(packets):
            buckets.setdefault((int(rx.shape[1]), int(n_symbols)), []).append(i)
        for shape, indices in buckets.items():
            self.warmed_shapes.add(shape)
            for lo in range(0, len(indices), self.batch):
                chunk = indices[lo : lo + self.batch]
                self._run_chunk(
                    [packets[i] for i in chunk],
                    [results[i] for i in chunk],
                    n_symbols,
                    detect_hint,
                )
        for result in results:
            if result.output is not None:
                self.activity.merge(result.output.stats)
                self.packets_run += 1
            if result.fell_back:
                self.fallbacks += 1
        return results

    # -- chunk driver ---------------------------------------------------

    def _run_chunk(
        self,
        packets: List[np.ndarray],
        results: List[BatchPacketResult],
        n_symbols: int,
        detect_hint: Optional[int],
    ) -> None:
        receiver = self.receiver
        lanes = [
            _Lane(i, receiver._pipeline(rx, n_symbols=n_symbols, detect_hint=detect_hint))
            for i, rx in enumerate(packets)
        ]

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
            # Same-shape packets request identical region sequences, so
            # normally there is exactly one group; a divergent pipeline
            # just forms its own (smaller) group on its region's cores.
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
        """Run one region for every lane in *members* on the region's
        resident cores; ``None`` marks a lane whose packet failed."""
        receiver = self.receiver
        req0 = members[0].request
        program, handles = receiver._region_program(rid, req0.name, req0.build)
        region = self._regions.get(rid)
        if region is None:
            region = self._regions[rid] = _RegionLanes()
        while len(region.cores) < len(members):
            region.cores.append(self._new_core(program))
        cores = region.cores[: len(members)]
        programs = [
            patch_constants(program, lane.request.patch) if lane.request.patch else program
            for lane in members
        ]
        lockstep = self.interpreter == "compiled" and not self.tracer.enabled
        if lockstep:
            for core, lane_program, lane in zip(cores, programs, members):
                core.reset(lane_program, lane.request.image)
            errors = [lr.error for lr in region.runner.run(cores)]
        responses: List[Optional[Tuple[RegionRun, bytearray]]] = []
        for k, (core, lane_program, lane) in enumerate(zip(cores, programs, members)):
            image = lane.request.image
            if not lockstep:
                # Alone on a reset core: already the canonical run, so a
                # fault is final (a replay would repeat its trace events).
                delta, error = self._run_lane(core, lane_program, image)
            elif errors[k] is not None:
                # A lockstep fault leaves deferred counters unflushed:
                # replay the region alone on a fresh core for the
                # canonical result or exception.
                results[lane.index].fell_back = True
                core = self._new_core(lane_program)
                delta, error = self._run_lane(core, lane_program, image)
            else:
                delta, error = core.stats.take().validate(), None
            if error is not None:
                lane.done = True
                results[lane.index].error = error
                results[lane.index].fell_back = True
                responses.append(None)
                continue
            responses.append(self._region_run(req0.name, core, delta, handles))
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
