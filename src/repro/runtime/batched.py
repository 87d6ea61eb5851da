"""The modem runtime: compile once, stream packets through resident programs.

The paper's toolflow compiles a baseband program once and the control
processor then streams every packet through the resident configuration,
patching only packet-dependent constants.  :class:`ModemRuntime` is that
split on top of :class:`repro.modem.receiver.SimReceiver`, whose region
programs are pure functions of (architecture, seed, memory map, OFDM
params, packet shape): the first packet of a shape links every region
program (hitting the schedule cache), and every later packet of that
shape only simulates.

On the ``compiled`` tier (the default) the runtime drives B packets'
:meth:`SimReceiver._pipeline` generators in lockstep, region by region,
executing each region's program across all B lanes with
:class:`repro.sim.batch.BatchProgramRunner` (one Python frame per VLIW
segment / CGA window for the whole batch); a single packet is a batch
of one.  What makes this safe:

* Region programs are pure functions of the packet *shape* — packets
  are bucketed by ``(n_samples, n_symbols)`` and only same-shape packets
  share a batch, so every lane requests the same region sequence.
* Packet data reaches the programs through per-lane scratchpad images
  (including the parameter block) and per-lane ``patch_constants``
  immediate pools; the batch functions take both as structure-of-arrays
  arguments, so all lanes share one compile per kernel signature.
* Divergence — differing data-dependent trip counts, or packets whose
  pipelines request different regions — only splits the lanes into
  smaller groups, each run through the generated code at its own width
  (a single packet is a group of one).  A lane that faults is replayed
  from its pre-region image on the canonical
  :meth:`SimReceiver._run_region` path, reproducing the single-packet
  result or exception bit-identically.

The speed comes from three resident structures, all per region id: the
lane cores (no ``Core`` construction, configuration DMA or allocator
traffic per packet — they are reset in place), the
:class:`BatchProgramRunner` (cached batch functions plus per-lane
signature/immediate pools), and the linked region programs already
cached by :class:`SimReceiver`.

On the ``decoded`` and ``reference`` tiers every packet runs through
:meth:`SimReceiver.run_packet`, a fresh core per region: the oracle path
the compiled tier is checked against.
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
    ) -> None:
        check_interpreter(interpreter)
        if cache_dir is not None:
            configure_schedule_cache(cache_dir)
        self.interpreter = interpreter
        self.receiver = SimReceiver(
            arch=arch, params=params, mem=mem, seed=seed, interpreter=interpreter
        )
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

    def warm_up(self, rx: np.ndarray, **kwargs) -> ReceiverOutput:
        """Run one representative packet to link that shape's programs."""
        return self.run_packet(rx, **kwargs)

    # -- batched entry points -------------------------------------------

    def run_batch(
        self,
        packets: Sequence[np.ndarray],
        n_symbols: int = 2,
        detect_hint: Optional[int] = None,
    ) -> List[ReceiverOutput]:
        """Process *packets* (in lockstep batches on the compiled tier);
        raises the first per-packet error after finishing the rest."""
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
        running each packet alone on any interpreter tier.  Off the
        compiled tier each packet runs alone through
        :meth:`SimReceiver.run_packet`.
        """
        packets = [np.atleast_2d(np.asarray(rx)) for rx in packets]
        results = [BatchPacketResult() for _ in packets]
        buckets: Dict[tuple, List[int]] = {}
        for i, rx in enumerate(packets):
            buckets.setdefault((int(rx.shape[1]), int(n_symbols)), []).append(i)
        run_chunk = self._run_chunk if self.interpreter == "compiled" else self._run_each
        for shape, indices in buckets.items():
            self.warmed_shapes.add(shape)
            for lo in range(0, len(indices), self.batch):
                chunk = indices[lo : lo + self.batch]
                run_chunk(
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

    def _run_each(
        self,
        packets: List[np.ndarray],
        results: List[BatchPacketResult],
        n_symbols: int,
        detect_hint: Optional[int],
    ) -> None:
        """Run each packet alone on fresh cores (decoded/reference tiers)."""
        for rx, result in zip(packets, results):
            try:
                result.output = self.receiver.run_packet(
                    rx, n_symbols=n_symbols, detect_hint=detect_hint
                )
            except Exception as exc:
                result.error = exc
                result.fell_back = True

    # -- lockstep chunk driver ------------------------------------------

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

    def _replay_region(
        self, lane: _Lane, results: List[BatchPacketResult]
    ) -> Optional[Tuple[RegionRun, bytearray]]:
        """Replay a faulted lane's pending region alone, on a fresh core
        (the canonical single-packet result or exception)."""
        req = lane.request
        results[lane.index].fell_back = True
        try:
            return self.receiver._run_region(
                req.name, req.image, req.build, key=req.key, patch=req.patch
            )
        except Exception as exc:
            lane.done = True
            results[lane.index].error = exc
            return None

    # -- batched region execution ---------------------------------------

    def _run_region_batch(
        self,
        rid: tuple,
        members: List[_Lane],
        results: List[BatchPacketResult],
    ) -> List[Optional[Tuple[RegionRun, bytearray]]]:
        receiver = self.receiver
        req0 = members[0].request
        program, handles = receiver._region_program(rid, req0.name, req0.build)
        region = self._regions.get(rid)
        if region is None:
            region = self._regions[rid] = _RegionLanes()
        while len(region.cores) < len(members):
            region.cores.append(
                Core(receiver.arch, program, interpreter="compiled")
            )
        cores = region.cores[: len(members)]
        for core, lane in zip(cores, members):
            lane_program = program
            if lane.request.patch:
                lane_program = patch_constants(program, lane.request.patch)
            self._reset_core(core, lane_program, lane.request.image)
        before = [core.stats.snapshot() for core in cores]
        lane_results = region.runner.run(cores)
        responses: List[Optional[Tuple[RegionRun, bytearray]]] = []
        for core, lane, lr, snap in zip(cores, members, lane_results, before):
            if lr.error is not None:
                # Bit-identical fallback: replay this lane's region from
                # its pre-region image on a fresh core (also reproducing
                # the canonical exception, if any).
                responses.append(self._replay_region(lane, results))
                continue
            delta = core.stats.delta_since(snap).validate()
            outputs = {}
            for out_name, handle in handles.items():
                if isinstance(handle, PhysReg):
                    outputs[out_name] = core.cdrf.peek(handle.index)
            run = RegionRun(req0.name, KernelProfile(req0.name, delta), outputs)
            responses.append((run, bytearray(core.scratchpad._mem)))
        return responses

    @staticmethod
    def _reset_core(core: Core, program: Program, image: bytearray) -> None:
        """Reset a resident core to the exact state a fresh ``Core`` has
        after the single-packet setup (image blit, I$ warm-up) — skipping
        ``load_configuration``, whose accounting the region snapshot
        excludes anyway."""
        core.rebind_program(program)
        core.scratchpad._mem[:] = image
        bank_free = core.scratchpad._bank_next_free
        for bank in range(len(bank_free)):
            bank_free[bank] = 0
        regs = core.cdrf._regs
        regs[:] = [0] * len(regs)
        regs = core.cprf._regs
        regs[:] = [0] * len(regs)
        for lrf in core.local_rfs.values():
            regs = lrf._regs
            regs[:] = [0] * len(regs)
        latch = core.cga._out_latch
        for i in range(len(latch)):
            latch[i] = 0
        core.vliw._reg_ready.clear()
        core.vliw._pred_ready.clear()
        tags = core.icache._tags
        tags[:] = [None] * len(tags)
        core.cycle = 0
        core.pc = 0
        core.halted = False
        core.kernel_log.clear()
        # Warm the I$ exactly as the single-packet path does (ascending
        # pc order determines the direct-mapped tag state).
        fetch = core.icache.fetch
        for pc in range(len(program.bundles)):
            fetch(pc)


#: The runtime's former batched-only name.  The serving benchmark's
#: span recorder (``benchmarks/suite/spans.py``) wraps
#: ``repro.runtime.batched.BatchedModemRuntime.run_batch_results`` by
#: attribute path, so the alias must stay one object with the class.
BatchedModemRuntime = ModemRuntime
