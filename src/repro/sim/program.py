"""Executable program containers shared by the compiler and the simulator.

A :class:`Program` holds:

* ``bundles`` — the VLIW instruction stream (3 slots per bundle for the
  paper core), indexed by bundle PC;
* ``kernels`` — CGA kernels by id, entered via the ``cga #id``
  instruction: each kernel is a modulo schedule materialised as ``II``
  configuration contexts plus software-pipeline metadata.

CGA context format
------------------
One :class:`CgaContext` holds one :class:`CgaOp` per active functional
unit.  A :class:`CgaOp` describes, for its unit and cycle slot:

* the opcode,
* source selections (:class:`SrcSel`): own output latch, a wire from a
  neighbour unit's output latch, a local RF entry, a CDRF/CPRF entry
  (only on units with central ports), an immediate, or a *phi* that
  reads an initial immediate on the first iteration and another source
  afterwards (how modulo schedulers realise loop-carried values),
* destination selections (:class:`DstSel`): besides the implicit output
  latch, optional local RF / CDRF / CPRF writes, the central writes
  optionally restricted to the final iteration (live-out values),
* the software-pipeline ``stage``, which gates execution during
  prologue and epilogue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Imm, Instruction
from repro.isa.opcodes import Opcode


class SrcKind(enum.Enum):
    """Source multiplexer selections available to a CGA operand."""

    SELF = "self"  # this unit's own output latch
    WIRE = "wire"  # another unit's output latch over the interconnect
    LRF = "lrf"  # local register file entry
    CDRF = "cdrf"  # central data RF (units with central ports only)
    CPRF = "cprf"  # central predicate RF (units with central ports only)
    IMM = "imm"  # immediate from the configuration word


@dataclass(frozen=True)
class SrcSel:
    """One source-operand selection.

    ``value`` is the FU index for ``WIRE``, the register index for
    ``LRF``/``CDRF``/``CPRF``, the literal for ``IMM`` and unused for
    ``SELF``.  When ``init`` is not ``None`` the selection is a phi: on
    the operation's first iteration the immediate ``init`` is read
    instead of the normal source (loop-carried initialisation).
    """

    kind: SrcKind
    value: int = 0
    init: Optional[int] = None

    @staticmethod
    def self_() -> "SrcSel":
        """Select this unit's own output latch."""
        return SrcSel(SrcKind.SELF)

    @staticmethod
    def wire(fu: int) -> "SrcSel":
        """Select unit *fu*'s output latch via the interconnect."""
        return SrcSel(SrcKind.WIRE, fu)

    @staticmethod
    def lrf(index: int) -> "SrcSel":
        """Select local register *index*."""
        return SrcSel(SrcKind.LRF, index)

    @staticmethod
    def cdrf(index: int) -> "SrcSel":
        """Select central data register *index*."""
        return SrcSel(SrcKind.CDRF, index)

    @staticmethod
    def cprf(index: int) -> "SrcSel":
        """Select central predicate register *index*."""
        return SrcSel(SrcKind.CPRF, index)

    @staticmethod
    def imm(value: int) -> "SrcSel":
        """Select a configuration immediate."""
        return SrcSel(SrcKind.IMM, value)

    def with_init(self, init: int) -> "SrcSel":
        """Return a phi variant of this selection with first-iteration *init*."""
        return SrcSel(self.kind, self.value, init)


class DstKind(enum.Enum):
    """Write-back targets besides the implicit output latch."""

    LRF = "lrf"
    CDRF = "cdrf"
    CPRF = "cprf"


@dataclass(frozen=True)
class DstSel:
    """One optional write-back of the operation result.

    ``last_iteration_only`` restricts the write to the operation's final
    iteration — the standard way live-out values leave a software
    pipeline.
    """

    kind: DstKind
    index: int
    last_iteration_only: bool = False


@dataclass(frozen=True)
class CgaOp:
    """One operation slot of one unit in one configuration context."""

    opcode: Opcode
    srcs: Tuple[SrcSel, ...] = ()
    dsts: Tuple[DstSel, ...] = ()
    stage: int = 0
    pred: Optional[SrcSel] = None
    pred_negate: bool = False


@dataclass
class CgaContext:
    """One configuration-memory word: the ops of all active units."""

    ops: Dict[int, CgaOp] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class Preload:
    """Copy a central register into a unit's local RF at kernel entry.

    This is how loop-invariant live-ins reach units without central-RF
    ports; it models the paper's "VLIW code [that] takes care of ...
    setting up the data for the CGA loop" and costs setup cycles.
    """

    fu: int
    lrf_index: int
    cdrf_reg: int


@dataclass
class CgaKernel:
    """A compiled, modulo-scheduled loop.

    Attributes
    ----------
    ii:
        Initiation interval; equals ``len(contexts)``.
    stage_count:
        Number of software-pipeline stages; the kernel runs for
        ``(trip_count + stage_count - 1) * ii`` cycles.
    trip_count_reg:
        CDRF register read at kernel entry for the iteration count; a
        fixed ``trip_count`` may be given instead for kernels with
        compile-time trip counts.
    preloads:
        Loop-invariant values copied into local register files at kernel
        entry (costing setup cycles).
    """

    name: str
    ii: int
    stage_count: int
    contexts: List[CgaContext]
    trip_count: Optional[int] = None
    trip_count_reg: Optional[int] = None
    preloads: List[Preload] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.contexts) != self.ii:
            raise ValueError(
                "kernel %s: %d contexts for II=%d"
                % (self.name, len(self.contexts), self.ii)
            )
        if self.trip_count is None and self.trip_count_reg is None:
            raise ValueError("kernel %s: no trip count source" % self.name)

    @property
    def ops_per_iteration(self) -> int:
        """Number of operation slots across all contexts (one iteration)."""
        return sum(len(ctx) for ctx in self.contexts)

    @property
    def context_words(self) -> int:
        """Configuration words per context (for DMA/power accounting).

        One context encodes, per active unit, an opcode + mux selects +
        write-back fields; we account one 32-bit word per active unit
        plus one control word.
        """
        return max(len(ctx) for ctx in self.contexts) + 1


@dataclass
class VliwBundle:
    """One VLIW instruction word: up to ``width`` slot instructions."""

    slots: Tuple[Optional[Instruction], ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("empty bundle")

    @property
    def width(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)


@dataclass
class Program:
    """A complete executable: VLIW stream + CGA kernels + initial data."""

    bundles: List[VliwBundle]
    kernels: Dict[int, CgaKernel] = field(default_factory=dict)
    name: str = "program"
    #: For a :func:`patch_constants` clone, the program it was patched
    #: from and the mapping applied: the lockstep runner derives the
    #: clone's immediate pools from the template's instead of walking
    #: the clone.  Neither takes part in equality.
    template: Optional["Program"] = field(default=None, compare=False, repr=False)
    patch: Optional[Dict[int, int]] = field(default=None, compare=False, repr=False)

    def kernel_by_name(self, name: str) -> CgaKernel:
        """Look up a kernel by its symbolic name."""
        for kernel in self.kernels.values():
            if kernel.name == name:
                return kernel
        raise KeyError(name)


def patch_constants(program: Program, mapping: Dict[int, int]) -> Program:
    """Clone *program* with selected immediates replaced.

    *mapping* maps sentinel immediate values to their replacements, in
    CGA configuration words (``IMM`` source selections and phi ``init``
    immediates) and VLIW instruction operands alike.  This is the
    configuration-patching step of the paper's toolflow: a kernel is
    compiled once against distinctive placeholder constants and the
    per-packet values are written into the configuration immediates
    before launch, which cannot perturb the schedule because operation
    placement and routing never depend on immediate *values*.

    The input program is not modified; untouched kernels and bundles are
    shared between the clone and the original, and so are the kernel
    map and the bundle list when nothing in them changed.  The clone
    records the original and *mapping* as its ``template`` and
    ``patch``.
    """
    if not mapping:
        return program

    def patch_src(sel: Optional[SrcSel]) -> Optional[SrcSel]:
        if sel is None:
            return None
        value = sel.value
        if sel.kind is SrcKind.IMM and value in mapping:
            value = mapping[value]
        init = sel.init
        if init is not None and init in mapping:
            init = mapping[init]
        if value == sel.value and init == sel.init:
            return sel
        return SrcSel(sel.kind, value, init)

    kernels: Dict[int, CgaKernel] = {}
    kernels_changed = False
    for kid, kernel in program.kernels.items():
        changed = False
        contexts: List[CgaContext] = []
        for ctx in kernel.contexts:
            ops: Dict[int, CgaOp] = {}
            for fu, op in ctx.ops.items():
                srcs = tuple(patch_src(s) for s in op.srcs)
                pred = patch_src(op.pred)
                if srcs != op.srcs or pred != op.pred:
                    changed = True
                    op = CgaOp(op.opcode, srcs, op.dsts, op.stage, pred, op.pred_negate)
                ops[fu] = op
            contexts.append(CgaContext(ops))
        if changed:
            kernels_changed = True
            kernels[kid] = CgaKernel(
                name=kernel.name,
                ii=kernel.ii,
                stage_count=kernel.stage_count,
                contexts=contexts,
                trip_count=kernel.trip_count,
                trip_count_reg=kernel.trip_count_reg,
                preloads=list(kernel.preloads),
            )
        else:
            kernels[kid] = kernel

    bundles: List[VliwBundle] = []
    bundles_changed = False
    for bundle in program.bundles:
        slots = []
        changed = False
        for inst in bundle.slots:
            if inst is not None and any(
                isinstance(s, Imm) and s.value in mapping for s in inst.srcs
            ):
                changed = True
                srcs = tuple(
                    Imm(mapping[s.value])
                    if isinstance(s, Imm) and s.value in mapping
                    else s
                    for s in inst.srcs
                )
                inst = Instruction(
                    inst.opcode,
                    dst=inst.dst,
                    srcs=srcs,
                    pred=inst.pred,
                    pred_negate=inst.pred_negate,
                )
            slots.append(inst)
        bundles_changed |= changed
        bundles.append(VliwBundle(tuple(slots)) if changed else bundle)

    return Program(
        bundles=bundles if bundles_changed else program.bundles,
        kernels=kernels if kernels_changed else program.kernels,
        name=program.name,
        template=program,
        patch=mapping,
    )
