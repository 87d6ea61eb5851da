"""The processor core: mode orchestration, reset, sleep, profiling.

:class:`Core` wires together the register files, scratchpad, I$, bus and
the two execution engines.  Its :meth:`run` drives a program to
completion: VLIW execution until a ``cga`` instruction hands a kernel to
the array, back to VLIW at loop exit, until ``halt`` (sleep state; the
host may resume) or the end of the instruction stream.

Two interpreter tiers (:data:`INTERPRETERS`) execute that loop.
``compiled``, the default, runs the core as a one-lane batch of
generated code (:mod:`repro.sim.batch`).  ``reference`` runs the
engines' interpreted loops: the oracle the compiled tier is checked
against, and the loop every traced run takes, since generated code has
no tracer hooks.

Profiling regions (the rows of Table 2) are delimited with
:meth:`region` /  via :class:`RegionProfiler`: statistics snapshots
around a region yield per-kernel cycle counts and IPC.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.arch.config import CgaArchitecture
from repro.sim.bus import AmbaBus, DmaEngine
from repro.sim.cga import CgaEngine
from repro.sim.icache import InstructionCache
from repro.sim.memory import Scratchpad
from repro.sim.program import Program
from repro.sim.regfile import LocalRegisterFile, PredicateFile, RegisterFile
from repro.sim.stats import ActivityStats, KernelProfile
from repro.sim.vliw import VliwEngine
from repro.trace.events import StallCause
from repro.trace.tracer import NULL_TRACER, Tracer


class SimulationError(Exception):
    """Raised on unrunnable programs (unknown kernel ids, missing data)."""


#: Cycles to switch the shared register file and control between modes.
MODE_SWITCH_CYCLES = 1

#: The interpreter tiers a core can run: the interpreted oracle and
#: the generated-code fast path (see :class:`Core`).
INTERPRETERS = ("reference", "compiled")


def check_interpreter(interpreter: str) -> None:
    """Raise ``ValueError`` unless *interpreter* names a tier in
    :data:`INTERPRETERS`."""
    if interpreter not in INTERPRETERS:
        raise ValueError(
            "interpreter must be %s or %r, got %r"
            % (", ".join(map(repr, INTERPRETERS[:-1])), INTERPRETERS[-1], interpreter)
        )


class Core:
    """One hybrid CGA/VLIW processor instance."""

    def __init__(
        self,
        arch: CgaArchitecture,
        program: Program,
        tracer: Optional[Tracer] = None,
        interpreter: str = "compiled",
    ) -> None:
        check_interpreter(interpreter)
        self.arch = arch
        self.program = program
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ActivityStats()
        self.cdrf = RegisterFile(
            entries=arch.cdrf.entries,
            width=arch.cdrf.width,
            read_ports=arch.cdrf.read_ports,
            write_ports=arch.cdrf.write_ports,
            stats=self.stats,
            stat_prefix="cdrf",
        )
        self.cprf = PredicateFile(stats=self.stats)
        self.local_rfs: Dict[int, LocalRegisterFile] = {
            fu.index: LocalRegisterFile(
                entries=fu.local_rf.entries, width=fu.local_rf.width, stats=self.stats
            )
            for fu in arch.fus
            if fu.local_rf is not None
        }
        self.scratchpad = Scratchpad(arch.l1, stats=self.stats, tracer=self.tracer)
        self.icache = InstructionCache(
            arch.icache,
            miss_penalty=arch.icache_miss_penalty,
            stats=self.stats,
            tracer=self.tracer,
        )
        self.bus = AmbaBus(self.scratchpad, stats=self.stats, tracer=self.tracer)
        self.dma = DmaEngine(self.bus)
        self.vliw = VliwEngine(
            bundles=program.bundles,
            cdrf=self.cdrf,
            cprf=self.cprf,
            scratchpad=self.scratchpad,
            icache=self.icache,
            stats=self.stats,
            slot_fus=[fu.index for fu in arch.vliw_fus],
            tracer=self.tracer,
        )
        self.cga = CgaEngine(
            arch=arch,
            cdrf=self.cdrf,
            cprf=self.cprf,
            local_rfs=self.local_rfs,
            scratchpad=self.scratchpad,
            stats=self.stats,
            tracer=self.tracer,
        )
        #: The compiled tier: this core as the single lane of its own
        #: lockstep runner (generated code at width 1).
        self._runner = None
        if interpreter == "compiled":
            from repro.sim.batch import BatchProgramRunner  # imports this module

            self._runner = BatchProgramRunner()
        self.cycle = 0
        self.pc = 0
        self.halted = False
        #: Kernel executions observed, in order (name, cycles).
        self.kernel_log: List[Dict[str, object]] = []

    # ------------------------------------------------------------------

    def reset(self, program: Program, image: bytes) -> None:
        """Start *program* from the state every region starts from.

        The scratchpad holds *image* with idle banks; the central,
        predicate and local register files, the CGA out-latches and the
        VLIW scoreboards are cleared; the I$ is warmed by fetching every
        bundle in pc order (steady-state measurement), with the tracer
        held off so warm-up leaves no events.  The statistics then
        restart at zero, so after the run ``stats.take()`` is the
        region's.  Configuration DMA is not replayed; its accounting
        never enters a region's statistics.

        A reset discards everything a run leaves behind, a faulted
        run's included: scratchpad bytes and bank clocks, register
        files, latches, scoreboards, I$ tags, the kernel log and the
        statistics all restart.  The modem runtime therefore drives
        every region of every packet, ``patch_constants`` variants
        included, on one resident lane set, and replays a lane that
        faulted in lockstep on its own core.  The lockstep runner's
        memos are identity-guarded, so they need no reset: a new
        program object misses them and the same object keeps them
        warm.
        """
        self.program = program
        self.vliw.bundles = program.bundles
        scratchpad = self.scratchpad
        if len(image) != len(scratchpad._mem):
            raise ValueError(
                "image is %d bytes; the scratchpad holds %d"
                % (len(image), len(scratchpad._mem))
            )
        scratchpad._mem[:] = image
        scratchpad._bank_next_free[:] = [0] * scratchpad.n_banks
        for rf in (self.cdrf, self.cprf, *self.local_rfs.values()):
            rf._regs[:] = [0] * len(rf._regs)
        self.cga._out_latch[:] = [0] * len(self.cga._out_latch)
        self.vliw._reg_ready.clear()
        self.vliw._pred_ready.clear()
        icache = self.icache
        icache._tags[:] = [None] * icache.n_lines
        self.cycle = 0
        self.pc = 0
        self.halted = False
        self.kernel_log.clear()
        tracer = self.tracer
        was_enabled = tracer.enabled
        tracer.enabled = False
        try:
            fetch = icache.fetch
            for pc in range(len(program.bundles)):
                fetch(pc)
        finally:
            tracer.enabled = was_enabled
        self.stats.clear()

    def load_configuration(self, stall_core: bool = False) -> int:
        """DMA-preload all kernels' configuration contexts (accounting only).

        With *stall_core* the core is modelled as waiting for the
        configuration stream (cold start): the bus cycles are booked as
        :attr:`~repro.trace.events.StallCause.DMA_CONFIG` stall on top
        of the VLIW mode counter.  The default leaves core timing
        untouched (steady-state measurement, contexts preloaded while
        the core works on the previous task).  Returns the bus cycles
        spent.
        """
        bus_cycles = 0
        for kernel in self.program.kernels.values():
            bus_cycles += self.dma.load_configuration(
                len(kernel.contexts), kernel.context_words
            )
        if stall_core and bus_cycles:
            self.stats.add_stall(StallCause.DMA_CONFIG, bus_cycles)
            self.stats.vliw_cycles += bus_cycles
            self.cycle += bus_cycles
        return bus_cycles

    def run(self, max_cycles: int = 10_000_000) -> ActivityStats:
        """Run the program to halt/end; returns the accumulated statistics.

        The compiled tier runs this core as a one-lane batch on its own
        :class:`~repro.sim.batch.BatchProgramRunner`.  Generated code has
        no tracer hooks, so with tracing enabled it runs the reference
        loop instead (bit-identical, and it emits every event).
        """
        from repro.sim.vliw import VliwFault

        tracer = self.tracer
        if self._runner is not None and not tracer.enabled:
            self._runner.max_cycles = max_cycles
            (lane,) = self._runner.run([self])
            if lane.error is not None:
                raise lane.error
            return self.stats.validate()
        while not self.halted:
            if self.cycle > max_cycles:
                raise SimulationError(
                    "exceeded %d cycles; runaway program?" % max_cycles
                )
            segment_start = self.cycle
            try:
                stop, cycle = self.vliw.run_reference(
                    self.pc, self.cycle, max_cycle=max_cycles
                )
            except VliwFault as exc:
                raise SimulationError(str(exc)) from exc
            self.cycle = cycle
            self.pc = stop.next_pc
            if tracer.enabled and cycle > segment_start:
                tracer.complete("vliw", segment_start, cycle - segment_start, cat="mode")
            if stop.reason == "cga":
                self._run_kernel(stop.kernel_id)
            elif stop.reason in ("halt", "end"):
                self.halted = True
            else:  # pragma: no cover - defensive
                raise SimulationError("unknown stop reason %r" % stop.reason)
        return self.stats.validate()

    def _run_kernel(self, kernel_id: Optional[int]) -> None:
        if kernel_id is None or kernel_id not in self.program.kernels:
            raise SimulationError("cga references unknown kernel %r" % kernel_id)
        kernel = self.program.kernels[kernel_id]
        span_start = self.cycle
        # Mode switch in: the shared register file ports flip to the array.
        self.stats.cga_cycles += MODE_SWITCH_CYCLES
        self.cycle += MODE_SWITCH_CYCLES
        start = self.cycle
        self.cycle = self.cga.run_reference(kernel, self.cycle)
        self.kernel_log.append({"kernel": kernel.name, "cycles": self.cycle - start})
        # Mode switch out.
        self.stats.cga_cycles += MODE_SWITCH_CYCLES
        self.cycle += MODE_SWITCH_CYCLES
        if self.tracer.enabled:
            self.tracer.complete(
                "cga:%s" % kernel.name,
                span_start,
                self.cycle - span_start,
                cat="mode",
                args={"ii": kernel.ii, "stages": kernel.stage_count},
            )

    # ------------------------------------------------------------------

    @contextmanager
    def region(self, name: str, profiles: List[KernelProfile], ii: Optional[int] = None) -> Iterator[None]:
        """Profile a region: appends a :class:`KernelProfile` to *profiles*."""
        before = self.stats.snapshot()
        yield
        delta = self.stats.delta_since(before).validate()
        profiles.append(KernelProfile(name=name, stats=delta, ii=ii))

    def resume(self) -> None:
        """Host-side resume signal: wake from the ``halt`` sleep state."""
        if self.halted and self.pc < len(self.program.bundles):
            self.halted = False
