"""Differential harness: the fast path against the oracle.

Every program here runs under ``Core(interpreter="reference")`` (the
oracle) and ``Core(interpreter="compiled")`` — a one-lane run of the
lockstep runner (:mod:`repro.sim.batch`) over the generated code from
``cga_batch_runner`` / ``vliw_batch_runner`` — plus a multi-lane batch
of the same runner, and the final machine state must be
**bit-identical**: cycle counts, every register file, scratchpad
memory, and the full :class:`~repro.sim.stats.ActivityStats` including
per-cause stall counters.  This is the correctness contract of the
code generator (the `src/repro/sim/codegen/` package): compiling is an
optimisation, never a semantic change.  The runner additionally proves
its divergence story here: ragged widths, per-lane immediate pools,
divergent groups run at their own widths, mid-batch faults recorded
with the per-packet exception, and the reference-loop fallback for
programs the code generator refuses.  ``Core.reset``, which the modem
runtime uses to re-drive its resident cores, must leave a used core
indistinguishable from a freshly built one.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_core
from repro.arch.resources import MemorySpec
from repro.compiler.linker import ProgramLinker
from repro.isa import Imm, Instruction, Opcode, PredReg, Reg
from repro.kernels.fshift import build_fshift_pair_dfg, phasor_pair_table_words
from repro.kernels.xcorr import build_xcorr_dfg
from repro.phy.fixed import quantize_complex
from repro.sim import (
    CgaContext,
    CgaKernel,
    CgaOp,
    Core,
    DstSel,
    Program,
    SrcSel,
    VliwBundle,
)
from repro.sim.batch import BatchProgramRunner
from repro.sim.cga import CgaFault
from repro.sim.memory import MemoryError_
from repro.sim.program import DstKind, Preload, SrcKind
from repro.sim.stats import _COUNTER_FIELDS, _SCALAR_FIELDS, ActivityStats
from repro.trace.tracer import Tracer


def enter_and_halt(kernel_id=0):
    return [
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(kernel_id),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]


def assert_identical(left: Core, right: Core) -> None:
    """Assert bit-identical architectural state and statistics."""
    assert_same_state(left, right)
    assert_same_stats(left.stats, right.stats)


def assert_same_state(left: Core, right: Core) -> None:
    """Assert bit-identical architectural and timing state."""
    assert left.cycle == right.cycle, "cycle counts differ"
    assert left.pc == right.pc
    assert left.halted == right.halted
    assert left.kernel_log == right.kernel_log
    n = left.cdrf.entries
    assert [left.cdrf.peek(i) for i in range(n)] == [
        right.cdrf.peek(i) for i in range(n)
    ], "CDRF contents differ"
    n = left.cprf.entries
    assert [left.cprf.peek(i) for i in range(n)] == [
        right.cprf.peek(i) for i in range(n)
    ], "CPRF contents differ"
    assert set(left.local_rfs) == set(right.local_rfs)
    for fu, lrf in left.local_rfs.items():
        ref = right.local_rfs[fu]
        assert [lrf.peek(i) for i in range(lrf.entries)] == [
            ref.peek(i) for i in range(ref.entries)
        ], "local RF %d contents differ" % fu
    assert bytes(left.scratchpad._mem) == bytes(
        right.scratchpad._mem
    ), "scratchpad contents differ"
    # The timing state too: an arbitration shortcut must leave the exact
    # bank clocks, not just equal cycle counts.
    assert left.scratchpad._bank_next_free == right.scratchpad._bank_next_free, (
        "bank clocks differ"
    )


def assert_same_stats(left: ActivityStats, right: ActivityStats) -> None:
    for name in _SCALAR_FIELDS:
        assert getattr(left, name) == getattr(right, name), (
            "stats.%s differs: %r vs %r"
            % (name, getattr(left, name), getattr(right, name))
        )
    for name in _COUNTER_FIELDS:
        lhs = {k: v for k, v in getattr(left, name).items() if v}
        rhs = {k: v for k, v in getattr(right, name).items() if v}
        assert lhs == rhs, "stats.%s differs" % name


INTERPRETERS = ("reference", "compiled")

#: Lanes driven through the multi-lane batch by :func:`run_both`.
BATCH_LANES = 3


def assert_batched_identical(make_core, reference, n_lanes=BATCH_LANES,
                             runner=None):
    """Drive *n_lanes* fresh compiled cores through the batched tier and
    assert each lane lands bit-identical to *reference* without
    faulting.  Returns the lane results."""
    lanes = [make_core() for _ in range(n_lanes)]
    if runner is None:
        runner = BatchProgramRunner()
    results = runner.run(lanes)
    for lane in results:
        assert lane.error is None, "batched lane errored: %r" % (lane.error,)
        assert_identical(reference, lane.core)
    return results


def run_both(program, pokes=(), mem=(), arch=None):
    """Run *program* under all interpreter tiers — including the batched
    tier — and diff the final state."""

    def make_core(interpreter="compiled"):
        core = Core(arch or paper_core(), program, interpreter=interpreter)
        for reg, value in pokes:
            core.cdrf.poke(reg, value)
        for addr, value, size in mem:
            core.scratchpad.write_word(addr, value, size)
        return core

    cores = []
    for interpreter in INTERPRETERS:
        core = make_core(interpreter)
        core.run()
        cores.append(core)
    for other in cores[1:]:
        assert_identical(cores[0], other)
    assert_batched_identical(make_core, cores[0])
    return cores[0]


# ----------------------------------------------------------------------
# Hand-built CGA kernels covering every structural feature
# ----------------------------------------------------------------------


def k_accumulator():
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(5)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    return CgaKernel(
        name="acc", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=10,
    ), (), ()


def k_trip_from_register():
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    return CgaKernel(
        name="count", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count_reg=5,
    ), [(5, 7)], ()


def k_pipelined_load():
    n = 8
    addr_op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(-4 & 0xFFFFFFFF), SrcSel.imm(4)),
        stage=0,
    )
    load_op = CgaOp(
        opcode=Opcode.LD_I, srcs=(SrcSel.wire(0), SrcSel.imm(0)), stage=1,
    )
    acc_op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.wire(1)),
        dsts=(DstSel(DstKind.CDRF, 20, last_iteration_only=True),),
        stage=6,
    )
    kernel = CgaKernel(
        name="sum", ii=1, stage_count=7,
        contexts=[CgaContext(ops={0: addr_op, 1: load_op, 2: acc_op})],
        trip_count=n,
    )
    return kernel, (), [(4 * i, i + 1, 4) for i in range(n)]


def k_store_stream():
    """Induction variable stored through FU0 -> store on FU1 (bank traffic)."""
    idx_op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(-1 & 0xFFFFFFFF), SrcSel.imm(1)),
        stage=0,
    )
    addr_op = CgaOp(
        opcode=Opcode.LSL, srcs=(SrcSel.wire(0), SrcSel.imm(2)), stage=1,
    )
    store_op = CgaOp(
        opcode=Opcode.ST_I,
        srcs=(SrcSel.wire(2), SrcSel.imm(0), SrcSel.wire(0)),
        stage=2,
    )
    kernel = CgaKernel(
        name="fill", ii=1, stage_count=3,
        contexts=[
            CgaContext(ops={0: idx_op, 2: addr_op, 1: store_op}),
        ],
        trip_count=6,
    )
    return kernel, (), ()


def k_predicated():
    """Guarded accumulate: every other iteration squashed via CPRF toggle."""
    toggle = CgaOp(
        opcode=Opcode.XOR,
        srcs=(SrcSel.self_().with_init(1), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CPRF, 3),),
        stage=0,
    )
    acc = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CDRF, 11, last_iteration_only=True),),
        pred=SrcSel.cprf(3),
        stage=1,
    )
    neg = CgaOp(
        opcode=Opcode.SUB,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CDRF, 12, last_iteration_only=True),),
        pred=SrcSel.cprf(3),
        pred_negate=True,
        stage=1,
    )
    kernel = CgaKernel(
        name="pred", ii=1, stage_count=2,
        contexts=[CgaContext(ops={0: toggle, 1: acc, 2: neg})],
        trip_count=9,
    )
    return kernel, (), ()


def k_ii2_multi_context():
    """II=2 with different ops per context and an LRF-held live-in.

    The multiply sits on FU4 (has a local RF, no central port); the
    result crosses a mesh wire to FU0, which owns a central RF port.
    """
    mul = CgaOp(
        opcode=Opcode.MUL,
        srcs=(SrcSel.self_().with_init(1), SrcSel.lrf(0)),
        stage=0,
    )
    add = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.wire(4), SrcSel.imm(3)),
        dsts=(DstSel(DstKind.CDRF, 13, last_iteration_only=True),),
        stage=0,
    )
    kernel = CgaKernel(
        name="ii2", ii=2, stage_count=1,
        contexts=[CgaContext(ops={4: mul}), CgaContext(ops={0: add})],
        trip_count=5,
        preloads=[Preload(fu=4, lrf_index=0, cdrf_reg=6)],
    )
    return kernel, [(6, 3)], ()


def k_simd_div():
    """SIMD lane math + the 24-bit divider (longest latency, drain test)."""
    lanes = CgaOp(
        opcode=Opcode.C4ADD,
        srcs=(SrcSel.self_().with_init(0x0001_0002_0003_0004), SrcSel.imm(0x0001_0001_0001_0001)),
        dsts=(DstSel(DstKind.CDRF, 14, last_iteration_only=True),),
        stage=0,
    )
    div = CgaOp(
        opcode=Opcode.DIV,
        srcs=(SrcSel.self_().with_init(1000), SrcSel.imm(3)),
        dsts=(DstSel(DstKind.CDRF, 15, last_iteration_only=True),),
        stage=0,
    )
    kernel = CgaKernel(
        name="simd_div", ii=1, stage_count=1,
        contexts=[CgaContext(ops={2: lanes, 0: div})],
        trip_count=4,
    )
    return kernel, (), ()


def k_bank_conflict():
    """Two same-cycle loads to the same L1 bank: stall-cause parity."""
    load_a = CgaOp(opcode=Opcode.LD_I, srcs=(SrcSel.imm(0), SrcSel.imm(0)), stage=0)
    load_b = CgaOp(opcode=Opcode.LD_I, srcs=(SrcSel.imm(64), SrcSel.imm(0)), stage=0)
    kernel = CgaKernel(
        name="conflict", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: load_a, 1: load_b})],
        trip_count=5,
    )
    return kernel, (), [(0, 7, 4), (64, 9, 4)]


CGA_KERNELS = [
    k_accumulator,
    k_trip_from_register,
    k_pipelined_load,
    k_store_stream,
    k_predicated,
    k_ii2_multi_context,
    k_simd_div,
    k_bank_conflict,
]


@pytest.mark.parametrize("build", CGA_KERNELS, ids=lambda b: b.__name__)
def test_cga_kernel_differential(build):
    kernel, pokes, mem = build()
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    run_both(program, pokes=pokes, mem=mem)


def test_zero_trip_differential():
    kernel, _, _ = k_accumulator()
    kernel = CgaKernel(
        name="zero", ii=kernel.ii, stage_count=kernel.stage_count,
        contexts=kernel.contexts, trip_count_reg=5,
    )
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    run_both(program, pokes=[(5, 0)])


def test_repeated_kernel_entry_uses_cache():
    """Entering the same kernel twice reuses the runner's memos."""
    kernel, _, _ = k_accumulator()
    bundles = [
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    program = Program(bundles=bundles, kernels={0: kernel})
    core = run_both(program)
    assert len(core.kernel_log) == 2


def test_patched_constants_differential():
    """``patch_constants`` variants stay bit-identical across tiers and
    share one compiled artifact (signatures exclude immediate values)."""
    from repro.sim import codegen
    from repro.sim.program import patch_constants

    sentinel = 0xDEAD01
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(sentinel)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(
        name="patched", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=6,
    )
    template = Program(bundles=enter_and_halt(), kernels={0: kernel})
    results = []
    compiled = []
    for value in (3, 11, -5):
        before = codegen.codegen_stats()["compilations"]
        core = run_both(patch_constants(template, {sentinel: value}))
        compiled.append(codegen.codegen_stats()["compilations"] - before)
        results.append(core.cdrf.peek(10))
        assert core.cdrf.peek(10) == (6 * value) & 0xFFFFFFFF  # ADD wraps at 32b
    assert len(set(results)) == 3
    # The first variant's compiles cover the rest: only the immediate
    # pool differs, so variants 2 and 3 compile nothing.
    assert compiled[1:] == [0, 0]


# ----------------------------------------------------------------------
# Identity rewrite: c4add/c4sub/c4or/c4xor with a zero immediate (every
# routing move the scheduler places) compile to a plain copy.
# ----------------------------------------------------------------------

IDENTITY_OPCODES = (Opcode.C4ADD, Opcode.C4SUB, Opcode.C4OR, Opcode.C4XOR)

#: 16-bit lanes at the saturation edges, plus arbitrary ones.
_LANE = st.one_of(
    st.sampled_from([0, 1, 0x7FFE, 0x7FFF, 0x8000, 0x8001, 0xFFFF]),
    st.integers(0, 0xFFFF),
)
_WORD = st.lists(_LANE, min_size=4, max_size=4).map(
    lambda lanes: sum(lane << (16 * i) for i, lane in enumerate(lanes))
)


def k_zero_imm(opcode, stream_init, stream_step, phi_init, pred_negate, trip):
    """*opcode* with a zero immediate in the three operand situations:

    * FU0, unpredicated, first operand a wire from FU3's saturating
      ``c4add`` stream (so the copied value changes every iteration);
    * FU1, first operand a phi: *phi_init* on iteration 0, CDRF r20 after;
    * FU2, predicated on FU5's toggling latch, first operand CDRF r21.
    """
    zero = SrcSel.imm(0)
    ops0 = {
        3: CgaOp(opcode=Opcode.C4ADD,
                 srcs=(SrcSel.self_().with_init(stream_init), SrcSel.imm(stream_step))),
        5: CgaOp(opcode=Opcode.XOR, srcs=(SrcSel.self_().with_init(1), SrcSel.imm(1))),
    }
    ops1 = {
        0: CgaOp(opcode=opcode, srcs=(SrcSel.wire(3), zero),
                 dsts=(DstSel(DstKind.CDRF, 10),), stage=1),
        1: CgaOp(opcode=opcode, srcs=(SrcSel.cdrf(20).with_init(phi_init), zero),
                 dsts=(DstSel(DstKind.CDRF, 11),), stage=1),
        2: CgaOp(opcode=opcode, srcs=(SrcSel.cdrf(21), zero),
                 dsts=(DstSel(DstKind.CDRF, 12),), pred=SrcSel.wire(5),
                 pred_negate=pred_negate, stage=1),
    }
    return CgaKernel(
        name="zero_imm", ii=2, stage_count=2,
        contexts=[CgaContext(ops=ops0), CgaContext(ops=ops1)],
        trip_count=trip,
    )


@settings(max_examples=40, deadline=None)
@given(
    opcode=st.sampled_from(IDENTITY_OPCODES),
    words=st.lists(_WORD, min_size=5, max_size=5),
    pred_negate=st.booleans(),
    trip=st.integers(1, 6),
)
def test_zero_immediate_identity_differential(opcode, words, pred_negate, trip):
    stream_init, stream_step, phi_init, r20, r21 = words
    kernel = k_zero_imm(opcode, stream_init, stream_step, phi_init, pred_negate, trip)
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    core = run_both(program, pokes=[(20, r20), (21, r21)])
    assert core.cdrf.peek(11) == (phi_init if trip == 1 else r20)


def _c4add_sentinel_program(sentinel):
    op = CgaOp(
        opcode=Opcode.C4ADD,
        srcs=(SrcSel.cdrf(20), SrcSel.imm(sentinel)),
        dsts=(DstSel(DstKind.CDRF, 10),),
    )
    kernel = CgaKernel(
        name="c4add_patched", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=3,
    )
    return Program(bundles=enter_and_halt(), kernels={0: kernel})


def test_zero_patched_immediate_gets_its_own_function():
    """A ``patch_constants`` sentinel in an identity site: the variant
    patched to 0 compiles to a copy, the nonzero one keeps the
    saturating add, so one batch holding both runs two generated
    functions and each lane matches its reference run."""
    from repro.sim import codegen
    from repro.sim.program import patch_constants

    sentinel = 0xDEAD03
    template = _c4add_sentinel_program(sentinel)
    values = (0, 0x0001_7FFF_8000_FFFF)
    variants = [patch_constants(template, {sentinel: v}) for v in values]
    word = 0x8000_7FFF_FFFF_0001
    references = []
    for variant in variants:
        core = _maker(variant, pokes=[(20, word)], interpreter="reference")()
        core.run()
        references.append(core)
    lanes = [_maker(variant, pokes=[(20, word)])() for variant in variants]
    runner = BatchProgramRunner()
    results = runner.run(lanes)
    for lane, ref in zip(results, references):
        assert lane.error is None
        assert_identical(ref, lane.core)
    assert references[0].cdrf.peek(10) == word
    assert references[1].cdrf.peek(10) != word
    fns = list(runner._cga_fns.values())
    assert len(fns) == 2 and None not in fns and fns[0] is not fns[1]
    sigs = [codegen.cga_layout(v.kernels[0])[0] for v in variants]
    assert sigs[0] != sigs[1]
    # Any other nonzero value shares the nonzero variant's signature.
    other = patch_constants(template, {sentinel: 7}).kernels[0]
    assert codegen.cga_layout(other)[0] == sigs[1]


# ----------------------------------------------------------------------
# Lane-select masks: an immediate whose lanes are each 0 or -1 is baked
# into the generated code, which re-points the lanes it selects.
# ----------------------------------------------------------------------

LANE_SELECT_OPCODES = (Opcode.C4AND, Opcode.C4ADD, Opcode.C4SUB, Opcode.C4OR, Opcode.C4XOR)

#: 64-bit immediates whose lanes mix 0 and -1 with other values, or
#: hold only 0 and -1 (masks).
_MASK_LANE = st.sampled_from([0, 0xFFFF])
_MASKISH = st.one_of(
    st.lists(_MASK_LANE, min_size=4, max_size=4),
    st.lists(st.one_of(_MASK_LANE, _LANE), min_size=4, max_size=4),
).map(lambda lanes: sum(lane << (16 * i) for i, lane in enumerate(lanes)))


def k_lane_selects(op_a, op_b, op_c, m0, m1, m2, m3, stream_init, stream_step, trip):
    """Lane selects over a saturating ``c4add`` stream (FU3) and over
    FU4's address induction, an int the SIMD ops of FU0 and FU7 both
    read: FU0 applies *op_a* with immediate *m0* and FU7 *op_c* with
    *m3*; FU1 selects the stream with ``c4and`` *m1*; FU2, predicated on
    FU5's toggle, applies *op_b* with the immediate *m2* first; FU6
    merges FU1 and FU2 with a saturating ``c4add`` (FU6 and FU7 write
    their local RFs), and FU1 stores the merge at the induction's
    address."""
    c0 = {
        3: CgaOp(opcode=Opcode.C4ADD,
                 srcs=(SrcSel.self_().with_init(stream_init), SrcSel.imm(stream_step))),
        5: CgaOp(opcode=Opcode.XOR, srcs=(SrcSel.self_().with_init(1), SrcSel.imm(1))),
        6: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.wire(1), SrcSel.wire(2)),
                 dsts=(DstSel(DstKind.LRF, 0),), stage=2),
        7: CgaOp(opcode=op_c, srcs=(SrcSel.wire(4), SrcSel.imm(m3)),
                 dsts=(DstSel(DstKind.LRF, 1),), stage=2),
        1: CgaOp(opcode=Opcode.ST_Q, srcs=(SrcSel.wire(4), SrcSel.imm(0), SrcSel.wire(6)),
                 stage=3),
    }
    c1 = {
        0: CgaOp(opcode=op_a, srcs=(SrcSel.wire(4), SrcSel.imm(m0)),
                 dsts=(DstSel(DstKind.CDRF, 10),), stage=1),
        1: CgaOp(opcode=Opcode.C4AND, srcs=(SrcSel.wire(3), SrcSel.imm(m1)), stage=1),
        2: CgaOp(opcode=op_b, srcs=(SrcSel.imm(m2), SrcSel.wire(3)),
                 dsts=(DstSel(DstKind.CDRF, 12),), pred=SrcSel.wire(5), stage=1),
        4: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.self_().with_init(0xF8), SrcSel.imm(8))),
    }
    return CgaKernel(
        name="lane_selects", ii=2, stage_count=4,
        contexts=[CgaContext(ops=c0), CgaContext(ops=c1)], trip_count=trip,
    )


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(st.sampled_from(LANE_SELECT_OPCODES), min_size=3, max_size=3),
    masks=st.lists(_MASKISH, min_size=4, max_size=4),
    stream=st.lists(_WORD, min_size=2, max_size=2),
    trip=st.integers(1, 7),
)
def test_lane_select_masks_differential(ops, masks, stream, trip):
    """Baked masks and the lanes they re-point, against the reference
    tier (registers, local RF, memory, bank clocks, stats)."""
    kernel = k_lane_selects(*ops, *masks, *stream, trip)
    _generated(kernel, trip)  # the generator takes it (no reference fallback)
    run_both(Program(bundles=enter_and_halt(), kernels={0: kernel}))


@pytest.mark.parametrize("mask", [0, 0x0000_FFFF_0000_FFFF, 0xFFFF_FFFF_FFFF_FFFF])
def test_select_only_loop_differential(mask):
    """A steady loop whose every op resolves while generating (a select
    of its own phi) emits no loop at all."""
    trip = 6
    op = CgaOp(opcode=Opcode.C4AND,
               srcs=(SrcSel.self_().with_init(0x8000_7FFF_0001_FFFF), SrcSel.imm(mask)),
               dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),))
    kernel = CgaKernel(name="select_only", ii=1, stage_count=1,
                       contexts=[CgaContext(ops={0: op})], trip_count=trip)
    _gen, source = _generated(kernel, trip)
    assert "for iter_slot" not in source
    core = run_both(Program(bundles=enter_and_halt(), kernels={0: kernel}))
    assert core.cdrf.peek(10) == 0x8000_7FFF_0001_FFFF & mask


def _generated(kernel, trip, arch=None):
    """``(generator, source)`` of *kernel*'s batch function at *trip*."""
    from repro.sim import codegen

    arch = arch or paper_core()
    core = Core(arch, Program(bundles=enter_and_halt(), kernels={0: kernel}))
    ports = ((core.cdrf.read_ports, core.cdrf.write_ports),
             (core.cprf.read_ports, core.cprf.write_ports))
    gen = codegen._CgaGen(kernel, arch, CgaFault, *ports, trip)
    return gen, gen.generate_batch()


def _loop(source):
    """``(lo, end, step, body lines)`` of the steady-state loop."""
    import re

    lines = source.splitlines()
    for k, line in enumerate(lines):
        m = re.search(r"for iter_slot in range\((\d+), (\d+)(?:, (\d+))?\):", line)
        if m:
            ind = len(line) - len(line.lstrip())
            body = []
            for inner in lines[k + 1:]:
                if len(inner) - len(inner.lstrip()) <= ind:
                    break
                body.append(inner.strip())
            return int(m.group(1)), int(m.group(2)), int(m.group(3) or 1), body
    return None


def _assert_lanes_stay_scalar(body):
    """Inside the loop no value converts or is packed into or unpacked
    from a tuple, except the four lanes of an 8-byte load or store."""
    import re

    for line in body:
        assert "_U4(" not in line and "_P4(" not in line and "_P8(" not in line, line
        target = line.split(" = ")[0]
        if ", " in target and " = " in line:
            assert re.fullmatch(r"(\w+, ){3}\w+ = _L4\(M, addr\)", line), line
        if "_S4(" in line:
            assert re.fullmatch(r"_S4\(M, addr(, [\w()-]+){4}\)", line), line


def test_fft_stage_routes_moves_without_saturating_adds():
    """The linked twiddled FFT stage, generated at trip 8 (the trip the
    receiver links it with): a routing move emits no code at all (no
    local is ever assigned under its name: latch commits, shifts and
    moves are resolved while generating), and neither do the lane
    selects of its twiddle multiplies (``c4and`` with ``MASK_EVEN`` /
    ``MASK_ODD``) or the ``c4add`` merging two selected values, whose
    lanes are all re-pointed; each issue site of any other ``c4add``/
    ``c4sub`` saturates each of its four lane locals in place, and the
    loop converts nothing."""
    import re

    from repro.kernels.fft import build_radix4_stage_dfg, twiddled_stages

    trip = 8
    arch = paper_core()
    linker = ProgramLinker(arch)
    q, params, _words = twiddled_stages(64)[0]
    linker.call_kernel(build_radix4_stage_dfg("fft_r4_q%d_g0" % q),
                       live_ins={"buf": 0x1000, "tw": 0x2400, **params},
                       trip_count=trip)
    program = linker.link()
    (kernel,) = program.kernels.values()
    assert kernel.name == "fft_r4_q4_g0" and kernel.trip_count == trip
    gen, source = _generated(kernel, trip, arch)
    lines = [line.strip() for line in source.splitlines()]
    n_slots, lo, hi = gen.plan
    loop_lo, loop_end, unroll, body = _loop(source)
    assert loop_lo == lo
    # Each op issues once per unrolled slot it is active in, once per
    # copy of the loop body and once per iteration left after the loop.
    steady_sites = unroll + (hi + 1 - loop_end)
    unrolled = [i for i in range(n_slots) if not lo <= i <= hi]

    def issue_sites(rec):
        return sum(rec.stage <= i < rec.stage + trip for i in unrolled) + steady_sites

    def assigned(rec):
        named = re.compile(r"x%d(v\d+)?(_\d)? = " % rec.oid)
        return any(named.match(line) for line in lines)

    moves = [rec for rec in gen.ops if rec.identity]
    selects = [rec for rec in gen.ops if rec.op.opcode is Opcode.C4AND]
    addsub = [rec for rec in gen.ops
              if rec.op.opcode in (Opcode.C4ADD, Opcode.C4SUB) and rec not in moves]
    assert moves and selects and addsub
    for rec in moves + selects:
        assert not assigned(rec), rec.oid
    saturating = []
    for rec in addsub:
        sign = "+" if rec.op.opcode is Opcode.C4ADD else "-"
        sums = [line for line in lines
                if re.fullmatch(r"x%d(v\d+)?_\d = \S+ \%s \S+" % (rec.oid, sign), line)]
        if not sums:
            assert not assigned(rec), rec.oid  # a merge of two selects
            continue
        saturating.append(rec)
        assert len(sums) == 4 * issue_sites(rec), rec.oid
        for line in sums:
            name = line.split(" = ")[0]
            at = lines.index(line)
            assert lines[at + 1:at + 5] == [
                "if %s > 32767:" % name, "%s = 32767" % name,
                "elif %s < -32768:" % name, "%s = -32768" % name], line
    # One merge per twiddle multiply, each of two selects.
    assert 2 * (len(addsub) - len(saturating)) == len(selects)
    assert sum(line.endswith(" < -32768:") for line in lines) \
        == 4 * sum(issue_sites(rec) for rec in saturating) == 4 * 56
    _assert_lanes_stay_scalar(body)


def k_form_boundaries(trip):
    """Values crossing every lane <-> int boundary of generated code.

    FU3 commits a SIMD and a scalar result to one latch and writes its
    local-RF entry 2 as lanes, which its scalar op reads back; FU4's
    predicated ``c4sub`` commits over its scalar latch; FU6's ``d4prod``
    drains past the last context into a latch its scalar op also
    writes; FU0 writes central registers (one a live-out); FU1 stores
    its 8-byte lane load in 4 bytes, FU2 in 8; FU5 shifts by lanes (the
    amount is lane 0's low bits) and FU9 is predicated on lanes; FU7's
    routing move copies FU4's scalar latch into its local RF."""
    w0 = 0x7FFF_8000_0001_FFFF
    w1 = 0x4000_C000_7FFF_8000
    c0 = {
        2: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.self_().with_init(0xF8), SrcSel.imm(8))),
        1: CgaOp(opcode=Opcode.LD_Q, srcs=(SrcSel.wire(2), SrcSel.imm(0)), stage=1),
        3: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(w0), SrcSel.wire(1)),
                 dsts=(DstSel(DstKind.LRF, 2),), stage=2),
        4: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.self_().with_init(5), SrcSel.imm(3))),
        6: CgaOp(opcode=Opcode.D4PROD, srcs=(SrcSel.wire(3), SrcSel.imm(w1)), stage=3),
        8: CgaOp(opcode=Opcode.XOR, srcs=(SrcSel.self_().with_init(1), SrcSel.imm(1))),
        5: CgaOp(opcode=Opcode.C4SHIFTR, srcs=(SrcSel.wire(6), SrcSel.wire(1)), stage=4),
    }
    c1 = {
        3: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.lrf(2), SrcSel.imm(1)), stage=2),
        6: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.self_(), SrcSel.imm(1)), stage=3),
        4: CgaOp(opcode=Opcode.C4SUB, srcs=(SrcSel.wire(5), SrcSel.self_()),
                 pred=SrcSel.wire(8), stage=3),
        7: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.wire(4), SrcSel.imm(0)),
                 dsts=(DstSel(DstKind.LRF, 0),), stage=4),
        0: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.wire(4), SrcSel.wire(1)),
                 dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),
                       DstSel(DstKind.CDRF, 11)), stage=5),
        9: CgaOp(opcode=Opcode.C4SWAP16, srcs=(SrcSel.wire(5),), pred=SrcSel.wire(5),
                 stage=5),
        1: CgaOp(opcode=Opcode.ST_I, srcs=(SrcSel.wire(2), SrcSel.imm(0x200), SrcSel.self_()),
                 stage=3),
        2: CgaOp(opcode=Opcode.ST_Q, srcs=(SrcSel.self_(), SrcSel.imm(0x100), SrcSel.wire(1)),
                 stage=3),
    }
    kernel = CgaKernel(
        name="form_boundaries", ii=2, stage_count=6,
        contexts=[CgaContext(ops=c0), CgaContext(ops=c1)], trip_count=trip,
    )
    words = [0x8000_7FFF_0003_FFFE, 0x0001_8001_7FFF_0010, 0xFFFF_0000_8000_7FFF]
    mem = [(0x100 + 8 * i, words[i % 3] ^ (i * 0x0101_0101_0101_0101), 8)
           for i in range(trip + 1)]
    return kernel, mem


@pytest.mark.parametrize("trip", [1, 2, 3, 9])
def test_form_boundaries_differential(trip):
    """Generated code converts between lanes and ints exactly at the
    boundaries (an int read as lanes is unpacked once into four lane
    locals, lanes read as an int are packed from their four locals, an
    8-byte load and store move four lane locals), and the result matches
    the reference tier."""
    import re

    kernel, mem = k_form_boundaries(trip)
    _gen, source = _generated(kernel, trip)
    assert re.search(r"(\w+, ){3}\w+ = _U4\(_P8\(", source)
    assert re.search(r"_fb\(_P4\([\w()-]+(, [\w()-]+){3}\), 'little'\)", source)
    assert re.search(r"(\w+, ){3}\w+ = _L4\(M, addr\)", source)
    assert re.search(r"_S4\(M, addr(, [\w()-]+){4}\)", source)
    assert "*" + "v_st" not in source and "_P4(*" not in source
    run_both(Program(bundles=enter_and_halt(), kernels={0: kernel}), mem=mem)


# ----------------------------------------------------------------------
# Locals resolved at generation time: renamed latches, reused names,
# values crossing the back edge, short and unrolled steady loops
# ----------------------------------------------------------------------


def k_squash_over_renamed_latch(trip):
    """FU0's latch is renamed to FU3's lanes by a routing move in context
    1, then FU0's predicated ``c4sub`` (on FU5's toggle) commits over it
    in context 0, squashing every other iteration; FU1 accumulates FU0's
    latch and FU2 FU3's, so a conditional write that clobbered the
    shared locals shows in FU2's sum."""
    w0 = 0x7FF0_8010_0003_FFF0
    c0 = {
        3: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(w0), SrcSel.imm(0x0101_7F00_0011_8001))),
        5: CgaOp(opcode=Opcode.XOR, srcs=(SrcSel.self_().with_init(1), SrcSel.imm(1))),
        0: CgaOp(opcode=Opcode.C4SUB, srcs=(SrcSel.wire(3), SrcSel.imm(0x0003_0002_0001_7FFF)),
                 pred=SrcSel.wire(5), stage=1),
    }
    c1 = {
        0: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.wire(3), SrcSel.imm(0)), stage=1),
        1: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(0)),
                 dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),), stage=1),
        2: CgaOp(opcode=Opcode.C4XOR, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(3)),
                 dsts=(DstSel(DstKind.CDRF, 11, last_iteration_only=True),), stage=1),
    }
    return CgaKernel(name="squash_renamed", ii=2, stage_count=2,
                     contexts=[CgaContext(ops=c0), CgaContext(ops=c1)], trip_count=trip)


def k_read_after_overwrite(trip):
    """In one context FU0 and FU4 issue their next value before FU1 and
    FU5 (later FUs issue later) read the previous one from their
    latches, in int and in lane form (FU3 and FU2 sum what they read);
    FU6 swizzles FU4's lanes, which FU7 sums into its local RF; FU8's
    cross-lane ``c4prod`` reads its own previous value, whose locals
    its result may reuse only where no later lane still reads them."""
    c0 = {
        0: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.self_().with_init(5), SrcSel.imm(3))),
        1: CgaOp(opcode=Opcode.SUB, srcs=(SrcSel.wire(0), SrcSel.imm(1))),
        3: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(1)),
                 dsts=(DstSel(DstKind.LRF, 3),), stage=1),
        4: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(0x0001_8000_7FFF_0002),
                                            SrcSel.imm(0x0001_0001_0001_0001))),
        5: CgaOp(opcode=Opcode.C4SUB, srcs=(SrcSel.wire(4), SrcSel.imm(0x0002_0002_0002_0002))),
        2: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(5)),
                 dsts=(DstSel(DstKind.CDRF, 11, last_iteration_only=True),), stage=1),
        6: CgaOp(opcode=Opcode.C4SWAP16, srcs=(SrcSel.wire(4),)),
        7: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(6)),
                 dsts=(DstSel(DstKind.LRF, 0),), stage=1),
        8: CgaOp(opcode=Opcode.C4PROD, srcs=(SrcSel.imm(0x7FFF_8000_4000_C000),
                                             SrcSel.self_().with_init(0x6000_7FFF_9000_8001)),
                 dsts=(DstSel(DstKind.LRF, 1),)),
    }
    return CgaKernel(name="read_after_overwrite", ii=1, stage_count=2,
                     contexts=[CgaContext(ops=c0)], trip_count=trip)


def k_back_edge_into_drain(trip):
    """Long-latency chains at II 1: the divider's and ``d4prod``'s values
    stay in flight across iterations (several shift registers each, so
    the steady loop rotates their locals) and the last ones commit in
    the drain; FU1 and FU3 read them every iteration, FU5 moves FU2's
    lanes into its local RF."""
    c0 = {
        0: CgaOp(opcode=Opcode.DIV, srcs=(SrcSel.self_().with_init(1 << 22), SrcSel.imm(3))),
        1: CgaOp(opcode=Opcode.ADD, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(0)),
                 dsts=(DstSel(DstKind.CDRF, 11, last_iteration_only=True),), stage=1),
        2: CgaOp(opcode=Opcode.D4PROD, srcs=(SrcSel.self_().with_init(0x7FFF_4000_C000_8000),
                                             SrcSel.imm(0x7000_7FFF_8000_6000))),
        3: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(2)),
                 dsts=(DstSel(DstKind.LRF, 2),), stage=1),
        5: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.wire(2), SrcSel.imm(0)),
                 dsts=(DstSel(DstKind.LRF, 1),), stage=1),
    }
    return CgaKernel(name="back_edge_drain", ii=1, stage_count=2,
                     contexts=[CgaContext(ops=c0)], trip_count=trip)


def k_move_of_materialized_latch(trip):
    """FU0's predicated ``c4sub`` commits into FU0's own latch locals;
    FU1's routing move hands those locals on to FU1's latch, which FU2
    reads only after FU0's next conditional commit has run."""
    c0 = {
        3: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_().with_init(0x0102_7F00_8003_0004),
                                            SrcSel.imm(0x0011_0101_7FFF_8001))),
        5: CgaOp(opcode=Opcode.XOR, srcs=(SrcSel.self_().with_init(1), SrcSel.imm(1))),
        0: CgaOp(opcode=Opcode.C4SUB, srcs=(SrcSel.wire(3), SrcSel.imm(0x0003_0002_0001_7FFF)),
                 pred=SrcSel.wire(5), stage=1),
    }
    c1 = {
        1: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.wire(0), SrcSel.imm(0)), stage=1),
        2: CgaOp(opcode=Opcode.C4XOR, srcs=(SrcSel.self_().with_init(0), SrcSel.wire(1)),
                 dsts=(DstSel(DstKind.CDRF, 11, last_iteration_only=True),), stage=1),
    }
    return CgaKernel(name="move_materialized", ii=2, stage_count=2,
                     contexts=[CgaContext(ops=c0), CgaContext(ops=c1)], trip_count=trip)


def k_exit_value_over_back_edge(trip):
    """FU3 moves FU0's latch into its local RF before FU0's next value
    commits, so at the loop's back edge the local RF still holds the
    locals FU0's latch enters the next iteration in: they must survive
    that iteration's copy for the write-back at kernel exit.  FU4's
    local-RF entry starts as an int (a preload) and is rewritten as
    lanes, which it is read as first."""
    c0 = {
        0: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.self_(), SrcSel.imm(0x0101_8001_7F00_0003))),
        3: CgaOp(opcode=Opcode.C4ADD, srcs=(SrcSel.wire(0), SrcSel.imm(0)),
                 dsts=(DstSel(DstKind.LRF, 0),)),
        4: CgaOp(opcode=Opcode.C4SUB, srcs=(SrcSel.lrf(2), SrcSel.imm(0x0005_7FFF_8000_0001)),
                 dsts=(DstSel(DstKind.LRF, 2),)),
    }
    return CgaKernel(name="exit_over_back_edge", ii=2, stage_count=1,
                     contexts=[CgaContext(ops=c0), CgaContext(ops={})], trip_count=trip,
                     preloads=[Preload(fu=4, lrf_index=2, cdrf_reg=6)])


RESOLVED_KERNELS = (k_squash_over_renamed_latch, k_move_of_materialized_latch,
                    k_read_after_overwrite, k_back_edge_into_drain,
                    k_exit_value_over_back_edge, lambda trip: k_form_boundaries(trip)[0])


def _one_steady_iteration_trip(build):
    """The trip whose steady window is a single iteration."""
    for trip in range(1, 40):
        gen, _source = _generated(build(trip), trip)
        _n, lo, hi = gen.plan
        if lo == hi:
            return trip
    raise AssertionError("no trip gives a one-iteration steady window")


@pytest.mark.parametrize("build", RESOLVED_KERNELS,
                         ids=("squash_renamed", "move_materialized", "read_after_overwrite",
                              "back_edge_drain", "exit_over_back_edge", "form_boundaries"))
@pytest.mark.parametrize("trip", [1, 2, 3, "one_steady", 5, 40])
def test_resolved_locals_differential(build, trip):
    """Kernels whose locals the generator renames, reuses, copies at the
    back edge or across an unrolled loop, at trips 1-3 (no or a tiny
    steady window), a one-iteration steady window and a long loop, run
    bit-identically on every tier."""
    if trip == "one_steady":
        trip = _one_steady_iteration_trip(build)
    kernel = build(trip)
    _generated(kernel, trip)  # generated, not refused to the reference loop
    mem = k_form_boundaries(trip)[1] if kernel.name == "form_boundaries" else ()
    pokes = [(6, 0x8000_0001_7FFF_FFFE)] if kernel.preloads else ()
    run_both(Program(bundles=enter_and_halt(), kernels={0: kernel}), pokes=pokes, mem=mem)


def test_rotating_values_unroll_the_steady_loop():
    """Values alive for several iterations unroll the steady loop rather
    than copy every lane local back each iteration, and the unrolled
    loop converts nothing."""
    _gen, source = _generated(k_back_edge_into_drain(40), 40)
    _lo, _end, unroll, body = _loop(source)
    assert unroll > 1
    _assert_lanes_stay_scalar(body)


# ----------------------------------------------------------------------
# VLIW control flow, scoreboard, memory
# ----------------------------------------------------------------------


def test_vliw_loop_differential():
    """Counted loop: interlocks, taken/not-taken branches, loads, stores."""
    bundles = [
        # r1 = 5 (counter), r2 = 0 (sum)
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(5)), dst=Reg(1)),
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(0)), dst=Reg(2)),
            None,
        )),
        # loop: r2 += r1; p1 = (r1 > 1); r1 -= 1
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Reg(2), Reg(1)), dst=Reg(2)),
            Instruction(Opcode.PRED_GT, srcs=(Reg(1), Imm(1)), dst=PredReg(1)),
            Instruction(Opcode.SUB, srcs=(Reg(1), Imm(1)), dst=Reg(1)),
        )),
        # if p1: br loop (-2)
        VliwBundle((
            Instruction(Opcode.BR, srcs=(Imm(-2),), pred=PredReg(1)),
            None,
            None,
        )),
        # store r2 to mem[16]; load it back into r3
        VliwBundle((
            Instruction(Opcode.ST_I, srcs=(Reg(2), Imm(4), Reg(2))),
            None,
            None,
        )),
        VliwBundle((
            Instruction(Opcode.LD_I, srcs=(Imm(15), Imm(1)), dst=Reg(3)),
            None,
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    core = run_both(Program(bundles=bundles))
    assert core.cdrf.peek(2) == 15  # 5+4+3+2+1
    assert core.stats.stall_causes  # interlock/branch stalls happened


def test_vliw_jmpl_link_differential():
    """jmpl writes the link register and jumps; jmp via register returns."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.JMPL, srcs=(Imm(3),), dst=Reg(9)),
            None,
            None,
        )),
        # Fallthrough target after return: r4 = 42; halt.
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(42)), dst=Reg(4)),
            None,
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
        # Subroutine: jmp back through the link register.
        VliwBundle((
            Instruction(Opcode.JMP, srcs=(Reg(9),)),
            None,
            None,
        )),
    ]
    core = run_both(Program(bundles=bundles))
    assert core.cdrf.peek(4) == 42
    assert core.cdrf.peek(9) == 1


def test_vliw_predicated_slots_differential():
    """Predicated slots squash without architectural effect."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.PRED_SET, dst=PredReg(2)),
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(1)), dst=Reg(5)),
            None,
        )),
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(7)), dst=Reg(6), pred=PredReg(2)),
            Instruction(
                Opcode.ADD, srcs=(Imm(0), Imm(9)), dst=Reg(7),
                pred=PredReg(2), pred_negate=True,
            ),
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    core = run_both(Program(bundles=bundles))
    assert core.cdrf.peek(6) == 7
    assert core.cdrf.peek(7) == 0
    assert core.stats.squashed_ops == 1  # only the negated slot squashes


# ----------------------------------------------------------------------
# Real compiled kernels (modulo scheduler output)
# ----------------------------------------------------------------------


def _compiled_program(build_dfg, live_ins, trip):
    arch = paper_core()
    linker = ProgramLinker(arch)
    linker.call_kernel(build_dfg, live_ins=live_ins, trip_count=trip)
    return arch, linker.link()


def test_compiled_fshift_differential():
    """The two-antenna CFO-rotation kernel as produced by the modulo
    scheduler (64-bit loads, 32-bit split stores)."""
    import numpy as np

    from repro.kernels.common import store_complex_array

    n = 32  # ADC words: 16 sample pairs
    rng = np.random.default_rng(7)
    x = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    re, im = quantize_complex(x)
    table = phasor_pair_table_words(50e3, 20e6, n // 2)
    arch, program = _compiled_program(
        build_fshift_pair_dfg(delta_dst=512),
        live_ins={"src": 0, "dst": 2048, "tab": 1024},
        trip=n // 2,
    )
    def make_core(interpreter="compiled"):
        core = Core(arch, program, interpreter=interpreter)
        store_complex_array(core.scratchpad, 0, re, im)
        for k, w in enumerate(table):
            core.scratchpad.write_word(1024 + 8 * k, w, 8)
        return core

    cores = []
    for interpreter in INTERPRETERS:
        core = make_core(interpreter)
        core.run()
        cores.append(core)
    for other in cores[1:]:
        assert_identical(cores[0], other)
    assert_batched_identical(make_core, cores[0])


def test_compiled_xcorr_differential():
    """The cross-correlation kernel (SIMD reduction + live-out latching)."""
    import numpy as np

    from repro.kernels.common import store_complex_array

    n = 16
    rng = np.random.default_rng(11)
    sig = 0.25 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ref = 0.25 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig_re, sig_im = quantize_complex(sig)
    ref_re, ref_im = quantize_complex(ref)
    arch, program = _compiled_program(
        build_xcorr_dfg(),
        live_ins={"base": 0, "ref": 2048},
        trip=n // 2,
    )
    def make_core(interpreter="compiled"):
        core = Core(arch, program, interpreter=interpreter)
        store_complex_array(core.scratchpad, 0, sig_re, sig_im)
        store_complex_array(core.scratchpad, 2048, ref_re, ref_im)
        return core

    cores = []
    for interpreter in INTERPRETERS:
        core = make_core(interpreter)
        core.run()
        cores.append(core)
    for other in cores[1:]:
        assert_identical(cores[0], other)
    assert_batched_identical(make_core, cores[0])


def test_live_out_register_variants_share_one_compilation():
    """Two calls of one loop body that differ only in their live-out
    register (the receiver's 16 ``xcorr_p*`` calls) key one generated
    source: central register indices ride in the runtime pool, so one
    function runs both kernels, and every tier leaves the same state."""
    import numpy as np

    from repro.kernels.common import store_complex_array
    from repro.sim import codegen

    n = 16
    rng = np.random.default_rng(5)
    sig = 0.25 * (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))
    ref = 0.25 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    arch = paper_core()
    linker = ProgramLinker(arch)
    outs = [
        linker.call_kernel(build_xcorr_dfg("xcorr_p%d" % k),
                           live_ins={"base": 4 * k, "ref": 2048}, trip_count=n // 2)
        for k in range(2)
    ]
    program = linker.link()
    first, second = (program.kernels[k] for k in range(2))
    assert outs[0]["corr"].index != outs[1]["corr"].index
    assert codegen.cga_layout(first)[0] == codegen.cga_layout(second)[0]
    assert codegen.cga_layout(first)[1] != codegen.cga_layout(second)[1]
    ports = ((6, 3), (6, 3))
    assert (codegen.cga_batch_runner(first, arch, CgaFault, *ports, n // 2)
            is codegen.cga_batch_runner(second, arch, CgaFault, *ports, n // 2))

    def make_core(interpreter="compiled"):
        core = Core(arch, program, interpreter=interpreter)
        store_complex_array(core.scratchpad, 0, *quantize_complex(sig))
        store_complex_array(core.scratchpad, 2048, *quantize_complex(ref))
        return core

    cores = []
    for interpreter in INTERPRETERS:
        core = make_core(interpreter)
        core.run()
        cores.append(core)
    assert_identical(cores[0], cores[1])
    runner = BatchProgramRunner()
    assert_batched_identical(make_core, cores[0], runner=runner)
    # One (signature, trip) entry: both kernels ran the same function.
    assert len(runner._cga_fns) == 1 and None not in runner._cga_fns.values()
    values = [cores[0].cdrf.peek(out["corr"].index) for out in outs]
    assert values[0] != values[1]


def test_lrf_hold_at_mii_differential():
    """A loop body whose only schedule at MII holds a value in a local
    RF, run bit-identically on every tier (LRF contents and bank clocks
    included).

    On the 2x2 test core eight latency-1 ops at MII 2 fill all eight
    issue slots, so no routing move fits and every unit commits in
    both phases, so no latch can keep a value past its commit.  The
    induction reads its own previous value ``II - 1 = 1`` cycle after
    the commit, so that value must wait in a local-RF entry: the same
    body on units without local RFs only schedules at II 3.
    """
    from repro.arch import small_test_core
    from repro.compiler import KernelBuilder
    from repro.compiler.dfg import Const
    from repro.compiler.modulo import ModuloScheduler
    from repro.isa.semantics import execute

    def body():
        kb = KernelBuilder("lrf_hold")
        i = kb.induction(0, 1)
        a = kb.op(Opcode.XOR, i, Const(0x5A5A))
        b = kb.op(Opcode.ADD, i, Const(0x0F0F0F0F0F))
        c = kb.op(Opcode.SUB, a, b)
        d = kb.op(Opcode.OR, a, b)
        e = kb.op(Opcode.XOR, c, d)
        f = kb.op(Opcode.ADD, c, d)
        kb.op(Opcode.SUB, e, f, live_out="out")
        return kb.finish()

    arch = small_test_core()
    search = ModuloScheduler(body(), arch)
    plan = search.schedule()
    assert (plan.ii, search.min_ii(), len(plan.moves)) == (2, 2, 0)
    assert plan.lrf_writes, "the plan must route a value through a local RF"
    no_lrf = dataclasses.replace(arch, fus=tuple(
        dataclasses.replace(fu, local_rf=None) for fu in arch.fus))
    assert ModuloScheduler(body(), no_lrf).schedule().ii == 3

    linker = ProgramLinker(arch)
    out = linker.call_kernel(body(), live_ins={}, trip_count=7)["out"]
    program = linker.link()
    (kernel,) = program.kernels.values()
    writes = [(fu, dst.index) for ctx in kernel.contexts
              for fu, op in ctx.ops.items() for dst in op.dsts
              if dst.kind is DstKind.LRF]
    reads = [(fu, src.value) for ctx in kernel.contexts
             for fu, op in ctx.ops.items() for src in op.srcs
             if src.kind is SrcKind.LRF]
    assert writes and set(writes) == set(reads)
    reference = run_both(program, arch=arch)
    assert reference.stats.lrf_writes == 7 and reference.stats.lrf_reads == 6
    a = execute(Opcode.XOR, [6, 0x5A5A])
    b = execute(Opcode.ADD, [6, 0x0F0F0F0F0F])
    c, d = execute(Opcode.SUB, [a, b]), execute(Opcode.OR, [a, b])
    expected = execute(Opcode.SUB, [execute(Opcode.XOR, [c, d]),
                                    execute(Opcode.ADD, [c, d])])
    assert reference.cdrf.peek(out.index) == expected
    fu, entry = writes[0]
    assert reference.local_rfs[fu].peek(entry) == 6  # the last induction value


# ----------------------------------------------------------------------
# Batched tier: ragged widths, per-lane pools, divergence fallback
# ----------------------------------------------------------------------


def _maker(program, pokes=(), mem=(), interpreter="compiled", arch=None):
    def make_core():
        core = Core(arch or paper_core(), program, interpreter=interpreter)
        for reg, value in pokes:
            core.cdrf.poke(reg, value)
        for addr, value, size in mem:
            core.scratchpad.write_word(addr, value, size)
        return core

    return make_core


def test_batched_ragged_final_batch():
    """N % B != 0: one resident runner serves a full batch then the
    ragged remainder, each width bit-identical to a single packet."""
    from repro.sim import codegen

    kernel, pokes, mem = k_pipelined_load()
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    make_core = _maker(program, pokes, mem)
    reference = make_core()
    reference.run()
    runner = BatchProgramRunner()
    compiled = []
    for width in (4, 3):  # 7 packets at B=4 -> batches of 4 and 3
        before = codegen.codegen_stats()["compilations"]
        assert_batched_identical(make_core, reference, n_lanes=width,
                                 runner=runner)
        compiled.append(codegen.codegen_stats()["compilations"] - before)
    # One batch function per kernel serves both widths: the ragged
    # remainder compiles nothing.
    assert compiled[1] == 0
    assert len(runner._cga_fns) == 1
    assert all(fn is not None for fn in runner._cga_fns.values())


def test_batched_patched_constants_per_lane_pools():
    """Lanes carrying different ``patch_constants`` variants batch
    together: one compiled artifact, per-lane immediate pools."""
    from repro.sim import codegen
    from repro.sim.program import patch_constants

    sentinel = 0xDEAD02
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(sentinel)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(
        name="pools", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=6,
    )
    template = Program(bundles=enter_and_halt(), kernels={0: kernel})
    values = (3, 11, -5)
    variants = [patch_constants(template, {sentinel: v}) for v in values]
    per_packet = []
    for variant in variants:
        core = _maker(variant)()
        core.run()
        per_packet.append(core)
    lanes = [_maker(variant)() for variant in variants]
    runner = BatchProgramRunner()
    before = codegen.codegen_stats()["compilations"]
    results = runner.run(lanes)
    for lane, ref, value in zip(results, per_packet, values):
        assert lane.error is None
        assert_identical(ref, lane.core)
        assert lane.core.cdrf.peek(10) == (6 * value) & 0xFFFFFFFF
    # All three variants shared the batch compiles (one VLIW segment fn
    # at most, one kernel fn at most — pools carry the differing imms).
    assert codegen.codegen_stats()["compilations"] - before <= 2
    assert all(fn is not None for fn in runner._cga_fns.values())


def test_batched_divergent_trip_counts_fall_back_per_packet():
    """Differing register trip counts split the batch into groups, each
    run through the generated kernel of its own width; every lane still
    lands bit-identical to its own single-packet run."""
    kernel, _, _ = k_trip_from_register()
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    trips = (7, 3, 7, 0)
    per_packet = []
    for trip in trips:
        core = _maker(program, pokes=[(5, trip)])()
        core.run()
        per_packet.append(core)
    lanes = [_maker(program, pokes=[(5, trip)])() for trip in trips]
    runner = BatchProgramRunner()
    results = runner.run(lanes)
    for lane, ref in zip(results, per_packet):
        assert lane.error is None
        assert_identical(ref, lane.core)
    # trip 7 ran as a group of two, trip 3 alone (each through generated
    # code, not the reference fallback); trip 0 never enters.
    assert sorted(trip for _sid, trip in runner._cga_fns) == [3, 7]
    assert all(fn is not None for fn in runner._cga_fns.values())


def test_batched_mid_batch_cga_fault_falls_back():
    """A lane whose kernel faults (preload into a missing local RF — a
    structural property the signature excludes, so the lane still lands
    in the batch group) records the per-packet ``CgaFault``, type and
    message; the surviving lanes stay bit-identical."""
    kernel, pokes, mem = k_pipelined_load()
    bad_kernel = CgaKernel(
        name=kernel.name, ii=kernel.ii, stage_count=kernel.stage_count,
        contexts=kernel.contexts, trip_count=kernel.trip_count,
        preloads=[Preload(fu=99, lrf_index=0, cdrf_reg=0)],
    )
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    bad_program = Program(bundles=enter_and_halt(), kernels={0: bad_kernel})
    reference = _maker(program, pokes, mem)()
    reference.run()
    with pytest.raises(CgaFault) as per_packet_exc:
        _maker(bad_program, pokes, mem)().run()
    lanes = [_maker(bad_program if i == 1 else program, pokes, mem)()
             for i in range(3)]
    results = BatchProgramRunner().run(lanes)
    assert type(results[1].error) is CgaFault
    assert str(results[1].error) == str(per_packet_exc.value)
    for i in (0, 2):
        assert results[i].error is None
        assert_identical(reference, results[i].core)


def test_batched_mid_segment_memory_fault_falls_back():
    """A data-dependent scratchpad overrun in one lane faults inside the
    batched VLIW function and records the per-packet ``MemoryError_``,
    type and message, while sibling lanes complete batched."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.LD_I, srcs=(Reg(1), Imm(0)), dst=Reg(2)),
            None,
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    program = Program(bundles=bundles)
    good = [(1, 16)]
    bad = [(1, 1 << 20)]  # far outside the scratchpad
    reference = _maker(program, pokes=good, mem=[(64, 5, 4)])()
    reference.run()
    with pytest.raises(MemoryError_) as per_packet_exc:
        _maker(program, pokes=bad)().run()
    lanes = [
        _maker(program, pokes=bad)() if i == 2
        else _maker(program, pokes=good, mem=[(64, 5, 4)])()
        for i in range(4)
    ]
    results = BatchProgramRunner().run(lanes)
    assert type(results[2].error) is MemoryError_
    assert str(results[2].error) == str(per_packet_exc.value)
    for i in (0, 1, 3):
        assert results[i].error is None
        assert_identical(reference, results[i].core)


@pytest.mark.parametrize("interpreter", INTERPRETERS)
def test_reset_core_runs_like_a_fresh_core(interpreter):
    """A core that already ran program A (latches, local RFs, central
    and predicate registers, bank clocks, scoreboards, I$ and kernel log
    all dirty) is reset to program B and a scratchpad image; B then runs
    exactly as on a freshly built core holding that image with a warm
    I$: same stats delta, scratchpad, registers, kernel log and cycle.
    B's first bundle reads a register and a predicate that A wrote last,
    so a stale scoreboard entry would stall it."""
    arch = paper_core()
    kernel_a, mem_a = k_form_boundaries(9)
    program_a = Program(bundles=[
        enter_and_halt()[0],
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(5)), dst=Reg(2)),
            Instruction(Opcode.PRED_SET, dst=PredReg(1)),
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ], kernels={0: kernel_a})
    kernel_b, mem_b = k_form_boundaries(3)
    program_b = Program(bundles=[
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Reg(2), Imm(1)), dst=Reg(3), pred=PredReg(1)),
            None,
            None,
        )),
        *enter_and_halt(),
    ], kernels={0: kernel_b})
    image = bytes(_maker(program_b, mem=mem_b, arch=arch)().scratchpad._mem)

    used = _maker(program_a, mem=mem_a, interpreter=interpreter, arch=arch)()
    used.run()
    assert any(used.scratchpad._bank_next_free) and used.kernel_log
    assert used.vliw._reg_ready.get(2, 0) > 1 and used.vliw._pred_ready.get(1, 0) > 1
    used.reset(program_b, image)
    before = used.stats.snapshot()
    used.run()
    used_delta = used.stats.delta_since(before)

    fresh = Core(arch, program_b, interpreter=interpreter)
    fresh.scratchpad._mem[:] = image
    for pc in range(len(program_b.bundles)):
        fresh.icache.fetch(pc)
    before = fresh.stats.snapshot()
    fresh.run()
    assert_same_state(fresh, used)
    assert_same_stats(fresh.stats.delta_since(before), used_delta)


def test_compiled_core_with_tracer_runs_reference_tier():
    """Generated code carries no tracer hooks, so a traced compiled core
    runs the reference loop: same state as untraced, and exactly the
    event list an explicit reference core emits."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(3)), dst=Reg(1)),
            None,
            None,
        )),
        VliwBundle((
            Instruction(Opcode.SUB, srcs=(Reg(1), Imm(1)), dst=Reg(1)),
            Instruction(Opcode.PRED_GT, srcs=(Reg(1), Imm(1)), dst=PredReg(1)),
            None,
        )),
        VliwBundle((Instruction(Opcode.BR, srcs=(Imm(-2),), pred=PredReg(1)), None, None)),
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    kernel, _, _ = k_accumulator()
    program = Program(bundles=bundles, kernels={0: kernel})
    untraced = Core(paper_core(), program, interpreter="compiled")
    untraced.run()
    tracer = Tracer()
    traced = Core(paper_core(), program, tracer=tracer, interpreter="compiled")
    traced.run()
    assert_identical(untraced, traced)
    ref_tracer = Tracer()
    reference = Core(paper_core(), program, tracer=ref_tracer,
                     interpreter="reference")
    reference.run()
    assert_identical(reference, traced)
    assert tracer.events == ref_tracer.events
    names = {event.name for event in tracer.events}
    assert {"vliw", "cga:acc", "stall.branch"} <= names
    assert len(untraced._runner._vliw_fns) > 0
    assert len(traced._runner._vliw_fns) == 0  # the runner never ran


# ----------------------------------------------------------------------
# Codegen refusals: the runner falls back to the reference loop
# ----------------------------------------------------------------------


def refused_cga_program():
    """A kernel codegen refuses: its central-RF read sites (2 + 3 + 3)
    exceed the 6 CDRF read ports in the worst case.  The two stores are
    guarded by complementary predicates, so at most 5 reads issue per
    cycle and the reference loop runs it within the ports."""
    add = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.cdrf(1), SrcSel.cdrf(2)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    store_taken = CgaOp(
        opcode=Opcode.ST_I,
        srcs=(SrcSel.cdrf(4), SrcSel.cdrf(5), SrcSel.cdrf(6)),
        pred=SrcSel.cprf(3),
    )
    store_squashed = CgaOp(
        opcode=Opcode.ST_I,
        srcs=(SrcSel.cdrf(7), SrcSel.cdrf(5), SrcSel.cdrf(6)),
        pred=SrcSel.cprf(3),
        pred_negate=True,
    )
    kernel = CgaKernel(
        name="port_heavy", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: add, 1: store_taken, 2: store_squashed})],
        trip_count=4,
    )
    bundles = [
        VliwBundle((Instruction(Opcode.PRED_SET, dst=PredReg(3)), None, None)),
    ] + enter_and_halt()
    pokes = [(1, 20), (2, 22), (4, 64), (5, 8), (6, 0xABCD), (7, 256)]
    return Program(bundles=bundles, kernels={0: kernel}), pokes


def refused_vliw_program():
    """A segment codegen refuses: one bundle whose three predicate
    combines read 3 guards + 6 predicate sources, over the 6 CPRF read
    ports in the worst case.  Only one guard passes, so 5 reads issue."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.PRED_SET, dst=PredReg(1)),
            Instruction(Opcode.PRED_CLEAR, dst=PredReg(2)),
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(9)), dst=Reg(1)),
        )),
        VliwBundle(tuple(
            Instruction(
                Opcode.PRED_EQ, srcs=(PredReg(1), PredReg(2)), dst=PredReg(4 + slot),
                pred=PredReg(1), pred_negate=slot != 0,
            )
            for slot in range(3)
        )),
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Reg(1), Imm(1)), dst=Reg(2)),
            None,
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    return Program(bundles=bundles), ()


def deep_pipeline_program():
    """A kernel codegen refuses for code size: its one op sits at stage
    193, so 194 prologue slots would unroll before the steady state,
    over the 192-slot bound."""
    acc = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(3), SrcSel.imm(5)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
        stage=193,
    )
    kernel = CgaKernel(
        name="deep_pipeline", ii=1, stage_count=194,
        contexts=[CgaContext(ops={0: acc})], trip_count=4,
    )
    return Program(bundles=enter_and_halt(), kernels={0: kernel}), ()


def squashed_lrf_overflow_program():
    """A kernel codegen refuses: it names local-RF entry 8 of an
    8-entry file.  The op is predicated off, so the reference loop
    never reads it; generated code holds every named entry in a local
    from kernel entry on, so it must not run this kernel."""
    acc = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(3), SrcSel.imm(5)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    never = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.lrf(8), SrcSel.imm(1)),
        pred=SrcSel.imm(0),
    )
    kernel = CgaKernel(
        name="lrf_overflow", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: acc, 4: never})], trip_count=4,
    )
    return Program(bundles=enter_and_halt(), kernels={0: kernel}), ()


@pytest.mark.parametrize(
    "build", [refused_cga_program, deep_pipeline_program, refused_vliw_program,
              squashed_lrf_overflow_program],
    ids=lambda b: b.__name__)
def test_codegen_refusal_falls_back_to_reference(build):
    """Codegen refuses the program (the static port-pressure proof
    fails, a kernel would unroll too many slots, or it names a local-RF
    entry the unit lacks); the runner runs it
    on the reference loop, one lane at a time, and both the one-lane
    compiled core and a 3-lane batch stay bit-identical to the
    reference tier."""
    program, pokes = build()
    make_core = _maker(program, pokes)
    reference = _maker(program, pokes, interpreter="reference")()
    reference.run()
    compiled = make_core()
    compiled.run()
    assert_identical(reference, compiled)
    runner = BatchProgramRunner()
    assert_batched_identical(make_core, reference, runner=runner)
    for core_runner in (compiled._runner, runner):
        cga_fns = list(core_runner._cga_fns.values())
        vliw_fns = list(core_runner._vliw_fns.values())
        if build is not refused_vliw_program:
            assert cga_fns == [None]
            assert vliw_fns and None not in vliw_fns
        else:
            assert vliw_fns == [None]


# ----------------------------------------------------------------------
# Idle-bank first access: generated code serves each context's first L1
# access without arbitration, which needs idle banks at kernel entry
# (the runner's entry check) and, for 64-bit accesses, two banks.
# ----------------------------------------------------------------------


def k_first_access_q():
    """The first context loads 64 bits from banks 0 and 1; a second
    load in the same context queues behind it on bank 1.  (II 3 keeps
    the live-out's drain within the CDRF write ports, so codegen
    accepts the kernel.)"""
    load_q = CgaOp(
        opcode=Opcode.LD_Q, srcs=(SrcSel.imm(0), SrcSel.imm(0)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    load_i = CgaOp(opcode=Opcode.LD_I, srcs=(SrcSel.imm(4), SrcSel.imm(0)))
    return CgaKernel(
        name="first_q", ii=3, stage_count=1,
        contexts=[CgaContext(ops={0: load_q, 1: load_i}),
                  CgaContext(ops={}), CgaContext(ops={})],
        trip_count=3,
    )


FIRST_ACCESS_MEM = [(0, 0x1122334455667788, 8)]


def busy_bank_program():
    """Kernel entry with banks 0 and 1 busy past the kernel's first cycle.

    The loop runs bundles 1-2 twice so that the second pass hits the
    instruction cache (a miss would stall the VLIW until the banks are
    idle again).  On that pass bundle 1's three 64-bit loads from address
    0 push the clocks of banks 0 and 1 to three cycles past it; bundle 2
    queues two more loads there and launches the kernel, which starts
    two cycles before those banks are free.  On the first pass ``p1`` is
    clear, so the launch is squashed and the branch goes back."""
    def load_q(reg):
        return Instruction(Opcode.LD_Q, srcs=(Imm(0), Imm(0)), dst=Reg(reg))

    bundles = [
        VliwBundle((Instruction(Opcode.PRED_CLEAR, dst=PredReg(1)), None, None)),
        VliwBundle((load_q(1), load_q(2), load_q(3))),
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),), pred=PredReg(1)),
                    load_q(4), load_q(5))),
        VliwBundle((Instruction(Opcode.BR, srcs=(Imm(-3),), pred=PredReg(1),
                                pred_negate=True),
                    Instruction(Opcode.PRED_SET, dst=PredReg(1)), None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    return Program(bundles=bundles, kernels={0: k_first_access_q()})


def _spy_cga_reference(runner):
    """Record the lanes *runner* sends to the reference loop."""
    taken = []
    original = runner._cga_reference

    def spy(lanes, *args):
        taken.extend(lanes)
        return original(lanes, *args)

    runner._cga_reference = spy
    return taken


def _diff_with_spies(program, arch=None):
    """Reference vs the one-lane compiled core vs a 3-lane batch; returns
    ``(reference core, lanes the one-lane run sent to the reference
    loop, lanes the batch sent there)``."""
    make_core = _maker(program, mem=FIRST_ACCESS_MEM, arch=arch)
    reference = _maker(program, mem=FIRST_ACCESS_MEM, arch=arch,
                       interpreter="reference")()
    reference.run()
    compiled = make_core()
    single = _spy_cga_reference(compiled._runner)
    compiled.run()
    assert_identical(reference, compiled)
    runner = BatchProgramRunner()
    batched = _spy_cga_reference(runner)
    assert_batched_identical(make_core, reference, runner=runner)
    for core_runner in (compiled._runner, runner):
        assert None not in core_runner._cga_fns.values()  # codegen accepted it
    assert reference.cdrf.peek(10) == 0x1122334455667788
    return reference, single, batched


def test_busy_bank_entry_takes_reference_loop():
    """A lane whose bank clocks run ahead of the kernel's first cycle
    takes the reference loop, at width 1 and in a 3-lane batch."""
    reference, single, batched = _diff_with_spies(busy_bank_program())
    assert [k["kernel"] for k in reference.kernel_log] == ["first_q"]
    assert single == [0]
    assert batched == [0, 1, 2]


def one_bank_core():
    """The default architecture with its L1 in one bank of equal size."""
    arch = paper_core()
    l1 = arch.l1
    return dataclasses.replace(
        arch, l1=MemorySpec(l1.name, l1.words * l1.banks, l1.width, banks=1))


@pytest.mark.parametrize("busy", [False, True], ids=["idle_entry", "busy_entry"])
def test_one_bank_l1_first_access_stalls(busy):
    """On a 1-bank L1 a context's first 64-bit access queues its second
    word behind its first, so the generated code keeps full arbitration
    for it; with idle banks at entry the generated code runs the
    kernel, with busy ones the reference loop does."""
    if busy:
        program = busy_bank_program()
    else:
        program = Program(bundles=enter_and_halt(), kernels={0: k_first_access_q()})
    reference, single, batched = _diff_with_spies(program, arch=one_bank_core())
    assert reference.stats.l1_bank_conflicts > 0
    assert single == ([0] if busy else [])
    assert batched == ([0, 1, 2] if busy else [])
