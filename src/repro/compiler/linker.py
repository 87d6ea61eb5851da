"""Linking kernels and VLIW sections into a runnable Program.

The :class:`ProgramLinker` owns the calling convention between the two
modes (the shared central register file):

* every kernel live-in, live-out and run-time trip count is assigned a
  central register;
* VLIW glue code is emitted to materialise live-in values before each
  ``cga`` instruction (the paper: "This VLIW code takes care of ...
  setting up the data for the CGA loop");
* kernels are modulo-scheduled, VLIW sections are list-scheduled, and
  everything is concatenated into one instruction stream ending in
  ``halt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.arch.config import CgaArchitecture
from repro.cache import ArtifactCache
# Re-exported: callers configure the shared cache directory here.
from repro.cache import configure_schedule_cache, schedule_cache_dir  # noqa: F401
from repro.compiler.builder import PhysReg, VirtualReg, VliwBuilder, VliwSection
from repro.compiler.dfg import CompileError, Dfg
from repro.compiler.modulo import ModuloScheduler, SchedulePlan, ScheduleResult
from repro.compiler.vliw_sched import RegisterMap, schedule_vliw
from repro.isa.instruction import Imm, Instruction
from repro.isa.opcodes import Opcode
from repro.sim.program import CgaKernel, Program, VliwBundle

ValueSource = Union[int, PhysReg, VirtualReg]

#: Modulo-schedule plans memoised across programs.  A plan is keyed by
#: the loop body's structure (its op stream, NOT its name), the
#: architecture's structural fingerprint (NOT its name — same-name
#: ablation variants must not alias), ``max_ii`` and the seed; the disk
#: level adds a digest of the modules whose source decides what a search
#: returns, so a changed scheduler never reads its parent's plans.
#: Register conventions and trip counts are bound per call, so every
#: kernel with the same loop body — every packet, region, batch width
#: and FFT stage — reuses one search, exactly as a real toolflow caches
#: object code.  A warm directory lets a fresh process link every modem
#: program without a single :meth:`ModuloScheduler.schedule` call.
_PLANS = ArtifactCache(
    ".sched.pkl",
    ("repro.compiler.modulo", "repro.compiler.mrrg", "repro.compiler.dfg",
     "repro.isa.opcodes"),
    SchedulePlan,
    "misses",
)


def clear_schedule_cache() -> None:
    """Drop the in-memory schedule cache (the disk cache is untouched)."""
    _PLANS.clear()


def schedule_cache_stats() -> Dict[str, int]:
    """Hit/miss counters since the last :func:`clear_schedule_cache`.

    Counted per linked kernel; ``misses`` is the number of searches.
    """
    return dict(_PLANS.stats)


def _dfg_signature(dfg: Dfg) -> tuple:
    """The loop body's structure; the DFG's name is not part of it."""
    return tuple(
        (nid, node.opcode.value, tuple(map(repr, node.srcs)),
         node.live_out, repr(node.pred), node.pred_negate)
        for nid, node in sorted(dfg.nodes.items())
    )


def _schedule_cached(
    dfg: Dfg,
    arch: CgaArchitecture,
    max_ii: int,
    seed: int,
    live_in_regs: Dict[str, int],
    live_out_regs: Dict[str, int],
    static_trip: Optional[int],
    trip_reg: Optional[int],
) -> ScheduleResult:
    """Search *dfg*'s loop body at most once; bind it on every call."""
    key = (arch.fingerprint(), _dfg_signature(dfg), max_ii, seed)
    plan = _PLANS.get(
        key, lambda: ModuloScheduler(dfg, arch, max_ii=max_ii, seed=seed).schedule())
    return plan.bind(dfg, live_in_regs, live_out_regs, static_trip, trip_reg)


@dataclass
class KernelCall:
    """One compiled kernel plus its register conventions."""

    kernel_id: int
    result: ScheduleResult
    live_in_regs: Dict[str, int]
    live_out_regs: Dict[str, int]
    trip_count_reg: Optional[int]


class ProgramLinker:
    """Builds a complete program out of kernels and VLIW sections."""

    def __init__(self, arch: CgaArchitecture, name: str = "program", seed: int = 0) -> None:
        self.arch = arch
        self.name = name
        self.seed = seed
        #: Register partitioning: r1-r39 for VLIW virtuals, r40-r47
        #: reserved for host-visible fixed registers (status, reduction
        #: results, tracking phasors), r48-r63 for the kernel calling
        #: convention (live-ins/outs/trip counts, recycled across calls).
        self._convention_pool = list(range(63, 47, -1))
        self._virtual_pool = list(range(1, 40))
        self._pred_pool = list(range(1, 60))
        self._items: List[object] = []  # VliwSection | KernelCall placeholders
        self._builder: Optional[VliwBuilder] = None
        self._kernels: List[KernelCall] = []
        self._section_counter = 0

    # ------------------------------------------------------------------

    def _alloc_convention_reg(self) -> int:
        if not self._convention_pool:
            raise CompileError("out of convention registers")
        return self._convention_pool.pop(0)

    def _current_builder(self) -> VliwBuilder:
        if self._builder is None:
            self._section_counter += 1
            self._builder = VliwBuilder("glue%d" % self._section_counter)
        return self._builder

    def _flush_section(self) -> None:
        if self._builder is not None:
            self._items.append(self._builder.finish())
            self._builder = None

    # ------------------------------------------------------------------

    def vliw(self) -> VliwBuilder:
        """The builder for glue / VLIW-mode code at the current position."""
        return self._current_builder()

    def call_kernel(
        self,
        dfg: Dfg,
        live_ins: Optional[Dict[str, ValueSource]] = None,
        trip_count: Union[int, PhysReg, VirtualReg, None] = None,
        max_ii: int = 32,
    ) -> Dict[str, PhysReg]:
        """Compile *dfg*, emit setup glue and the ``cga`` call.

        *live_ins* maps each DFG live-in name to an immediate, an
        already-populated physical register, or a virtual register of
        the *current* glue section (e.g. a parameter word loaded from
        the scratchpad — the runtime's host-written live-ins).
        *trip_count* is an int (compile-time trip) or a physical/virtual
        register holding the count.  Returns the physical registers that
        will hold each live-out.
        """
        live_ins = dict(live_ins or {})
        missing = [n for n in dfg.live_ins if n not in live_ins]
        if missing:
            raise CompileError("kernel %s: live-ins %r not supplied" % (dfg.name, missing))

        builder = self._current_builder()
        live_in_regs: Dict[str, int] = {}
        for name in dfg.live_ins:
            reg = self._alloc_convention_reg()
            live_in_regs[name] = reg
            value = live_ins[name]
            if isinstance(value, (PhysReg, VirtualReg)):
                # Register-to-register copies must preserve all 64 bits
                # (live-ins can be packed SIMD values); the lane add with
                # zero is the full-width move.
                builder.op(Opcode.C4ADD, value, 0, dst=PhysReg(reg))
            else:
                builder.op(Opcode.ADD, 0, int(value), dst=PhysReg(reg))
        live_out_regs = {name: self._alloc_convention_reg() for name in dfg.live_outs}

        trip_reg: Optional[int] = None
        static_trip: Optional[int] = None
        if isinstance(trip_count, (PhysReg, VirtualReg)):
            trip_reg = self._alloc_convention_reg()
            builder.op(Opcode.ADD, trip_count, 0, dst=PhysReg(trip_reg))
        elif trip_count is not None:
            static_trip = int(trip_count)
        else:
            raise CompileError("kernel %s: no trip count" % dfg.name)

        result = _schedule_cached(
            dfg, self.arch, max_ii, self.seed,
            live_in_regs, live_out_regs, static_trip, trip_reg,
        )
        kernel_id = len(self._kernels)
        call = KernelCall(kernel_id, result, live_in_regs, live_out_regs, trip_reg)
        self._kernels.append(call)
        self._flush_section()
        self._items.append(call)
        # Live-ins and the trip count die at kernel return; recycle their
        # registers for later calls (live-outs stay allocated).
        for reg in live_in_regs.values():
            self._convention_pool.append(reg)
        if trip_reg is not None:
            self._convention_pool.append(trip_reg)
        return {name: PhysReg(reg) for name, reg in live_out_regs.items()}

    def release(self, regs: Dict[str, PhysReg]) -> None:
        """Return no-longer-needed live-out registers to the pool."""
        for reg in regs.values():
            self._convention_pool.append(reg.index)

    # ------------------------------------------------------------------

    def link(self) -> Program:
        """Schedule everything and produce the executable program."""
        self._flush_section()
        slot_groups = [fu.groups for fu in self.arch.vliw_fus]
        regs = RegisterMap(self._virtual_pool, self._pred_pool)
        bundles: List[VliwBundle] = []
        kernels: Dict[int, CgaKernel] = {}
        width = self.arch.vliw_width
        for item in self._items:
            if isinstance(item, VliwSection):
                bundles.extend(schedule_vliw(item, slot_groups, regs))
            elif isinstance(item, KernelCall):
                kernels[item.kernel_id] = item.result.kernel
                slots = [None] * width
                slots[0] = Instruction(Opcode.CGA, srcs=(Imm(item.kernel_id),))
                bundles.append(VliwBundle(tuple(slots)))
            else:  # pragma: no cover - defensive
                raise CompileError("unknown link item %r" % (item,))
        slots = [None] * width
        slots[0] = Instruction(Opcode.HALT)
        bundles.append(VliwBundle(tuple(slots)))
        return Program(bundles=bundles, kernels=kernels, name=self.name)

    @property
    def kernel_results(self) -> List[ScheduleResult]:
        """Scheduling metadata of all compiled kernels, in call order."""
        return [call.result for call in self._kernels]
