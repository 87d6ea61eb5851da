"""Modulo scheduler tests: legality, II quality, end-to-end execution."""

import pytest

from repro.arch import paper_core
from repro.arch.topology import mesh_topology
from repro.compiler import CompileError, KernelBuilder, ModuloScheduler
from repro.compiler.linker import ProgramLinker
from repro.isa import Opcode
from repro.isa.bits import pack_lanes, split_lanes
from repro.sim import Core


def compile_and_run(dfg, live_ins=None, trip=8, mem=(), arch=None):
    arch = arch or paper_core()
    linker = ProgramLinker(arch)
    outs = linker.call_kernel(dfg, live_ins=live_ins or {}, trip_count=trip)
    program = linker.link()
    core = Core(arch, program)
    for addr, value, size in mem:
        core.scratchpad.write_word(addr, value, size)
    core.run()
    return core, outs, linker.kernel_results[0]


def test_accumulator_end_to_end():
    kb = KernelBuilder("acc")
    kb.accumulate(Opcode.ADD, 5, init=0, live_out="sum")
    core, outs, result = compile_and_run(kb.finish(), trip=10)
    assert core.cdrf.peek(outs["sum"].index) == 50
    assert result.ii == 1


def test_vector_sum_end_to_end():
    n = 16
    kb = KernelBuilder("vsum")
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    addr = kb.add(base, i)
    x = kb.load(Opcode.LD_I, addr)
    kb.accumulate(Opcode.ADD, x, init=0, live_out="sum")
    mem = [(256 + 4 * k, k + 1, 4) for k in range(n)]
    core, outs, result = compile_and_run(
        kb.finish(), live_ins={"base": 256}, trip=n, mem=mem
    )
    assert core.cdrf.peek(outs["sum"].index) == n * (n + 1) // 2


def test_vector_scale_store_end_to_end():
    """dst[i] = src[i] * 3 for 12 elements."""
    n = 12
    kb = KernelBuilder("scale")
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    i = kb.induction(0, 4)
    load_addr = kb.add(src, i)
    x = kb.load(Opcode.LD_I, load_addr)
    y = kb.mul(x, 3)
    store_addr = kb.add(dst, i)
    kb.store(Opcode.ST_I, store_addr, y)
    mem = [(4 * k, k + 1, 4) for k in range(n)]
    core, outs, result = compile_and_run(
        kb.finish(), live_ins={"src": 0, "dst": 512}, trip=n, mem=mem
    )
    for k in range(n):
        assert core.scratchpad.read_word(512 + 4 * k) == (k + 1) * 3


def test_simd_kernel_end_to_end():
    """64-bit SIMD load, lane-wise multiply, accumulate, one II per element."""
    n = 8
    kb = KernelBuilder("simdacc")
    base = kb.live_in("base")
    i = kb.induction(0, 8)
    addr = kb.add(base, i)
    x = kb.load(Opcode.LD_Q, addr)
    y = kb.d4prod(x, x)  # lane-wise squares (Q15)
    kb.accumulate(Opcode.C4ADD, y, init=0, live_out="acc")
    # Lanes hold Q15 value 0.25 -> square = 0.0625 (2048); the sum of 8
    # squares (16384) stays inside the 16-bit lane range.
    quarter = 1 << 13
    word = pack_lanes([quarter, quarter, quarter, quarter])
    mem = []
    for k in range(n):
        mem.append((8 * k, word & 0xFFFFFFFF, 4))
        mem.append((8 * k + 4, word >> 32, 4))
    core, outs, result = compile_and_run(
        kb.finish(), live_ins={"base": 0}, trip=n, mem=mem
    )
    acc = core.cdrf.peek(outs["acc"].index)
    lanes = split_lanes(acc)
    assert lanes == [n * 2048] * 4


def test_schedule_respects_ii_lower_bound():
    """20 independent adds cannot fit under II=2 on 16 units... MII=2."""
    kb = KernelBuilder("wide")
    for k in range(20):
        x = kb.add(k, k + 1)
        kb.store(Opcode.ST_I, 4 * k, x)
    dfg = kb.finish()
    sched = ModuloScheduler(dfg, paper_core())
    # 20 adds + 20 stores = 40 ops over 16 units -> ResMII >= 3;
    # 20 stores over 4 memory units -> ResMII >= 5.
    assert sched.min_ii() >= 5
    result = sched.schedule().bind(dfg, trip_count=2)
    assert result.ii >= 5


def test_memory_pressure_bounds_ii():
    kb = KernelBuilder("mem")
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    addr = kb.add(base, i)
    vals = [kb.load(Opcode.LD_I, addr, offset=4 * k) for k in range(8)]
    total = vals[0]
    for v in vals[1:]:
        total = kb.add(total, v)
    kb.accumulate(Opcode.ADD, total, init=0, live_out="sum")
    sched = ModuloScheduler(kb.finish(), paper_core())
    # 8 loads over 4 memory units -> MII >= 2.
    assert sched.min_ii() >= 2


def test_unschedulable_raises():
    kb = KernelBuilder("impossible")
    acc = kb.accumulate(Opcode.ADD, 1, init=0, live_out="x")
    sched = ModuloScheduler(kb.finish(), paper_core(), max_ii=0)
    with pytest.raises(CompileError):
        sched.schedule()


def test_missing_live_in_register_raises():
    kb = KernelBuilder("k")
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    a = kb.add(base, i)
    kb.store(Opcode.ST_I, a, 0)
    dfg = kb.finish()
    plan = ModuloScheduler(dfg, paper_core()).schedule()
    with pytest.raises(CompileError, match="no central register"):
        plan.bind(dfg, trip_count=1)  # no register for "base"


def test_sparser_interconnect_needs_same_or_higher_ii():
    """Ablation hook: plain mesh must never beat the dense interconnect."""
    def build():
        kb = KernelBuilder("chain")
        base = kb.live_in("base")
        i = kb.induction(0, 4)
        addr = kb.add(base, i)
        x = kb.load(Opcode.LD_I, addr)
        y = kb.mul(x, 3)
        z = kb.add(y, 7)
        w = kb.mul(z, z)
        kb.store(Opcode.ST_I, addr, w, offset=256)
        return kb.finish()

    def schedule(arch):
        dfg = build()
        plan = ModuloScheduler(dfg, arch).schedule()
        return plan.bind(dfg, live_in_regs={"base": 60}, trip_count=4)

    dense = schedule(paper_core())
    sparse = schedule(paper_core(interconnect=mesh_topology(4, 4)))
    assert sparse.ii >= dense.ii
    assert sparse.n_moves >= dense.n_moves


def test_kernel_ipc_scales_with_parallelism():
    """A wide reduction tree should reach high IPC on the array."""
    kb = KernelBuilder("wideacc")
    # 8 independent leaf adds -> 4 -> 2 -> 1, then accumulate: 16 ops/iter.
    level = [kb.add(k + 1, k + 2) for k in range(8)]
    while len(level) > 1:
        level = [kb.add(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    kb.accumulate(Opcode.ADD, level[0], init=0, live_out="sum")
    core, outs, result = compile_and_run(kb.finish(), trip=32)
    cga_ipc = core.stats.cga_ops / max(core.stats.cga_cycles, 1)
    assert result.ii <= 2
    assert cga_ipc > 6
    # Functional check: per-iteration sum of 1..9 pair tree.
    expected_per_iter = sum(k + 1 for k in range(8)) + sum(k + 2 for k in range(8))
    assert core.cdrf.peek(outs["sum"].index) == 32 * expected_per_iter
