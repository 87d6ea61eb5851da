"""Schedule-cache tests: structural keying, disk persistence, corruption."""

import dataclasses
import glob
import pickle

import pytest

from repro.arch import small_test_core
from repro.arch.topology import mesh_topology
from repro.compiler import KernelBuilder
from repro.compiler.builder import PhysReg
from repro.compiler.linker import (
    _PLANS,
    ProgramLinker,
    clear_schedule_cache,
    configure_schedule_cache,
    schedule_cache_stats,
)
from repro.compiler.modulo import ModuloScheduler, SchedulePlan
from repro.isa import Opcode
from repro.sim.program import SrcKind


def _make_dfg(name="cache_probe", step=4):
    kb = KernelBuilder(name)
    base = kb.live_in("base")
    i = kb.induction(0, step)
    x = kb.load(Opcode.LD_I, kb.add(base, i))
    kb.accumulate(Opcode.ADD, x, init=0, live_out="sum")
    return kb.finish()


@pytest.fixture
def counted_schedule(monkeypatch):
    """Count ModuloScheduler.schedule invocations."""
    calls = []
    original = ModuloScheduler.schedule

    def wrapper(self, *args, **kwargs):
        calls.append(self.dfg.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ModuloScheduler, "schedule", wrapper)
    return calls


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Protect the process-wide cache from, and for, other tests."""
    saved = dict(_PLANS.memory)
    clear_schedule_cache()
    configure_schedule_cache(None)
    try:
        yield
    finally:
        configure_schedule_cache(None)
        clear_schedule_cache()
        _PLANS.memory.update(saved)


def test_fingerprint_stable_and_name_independent():
    arch = small_test_core()
    assert arch.fingerprint() == small_test_core().fingerprint()
    renamed = dataclasses.replace(arch, name="something-else")
    assert renamed.fingerprint() == arch.fingerprint()


def test_fingerprint_differs_for_structural_change():
    arch = small_test_core()
    variant = dataclasses.replace(
        arch, interconnect=mesh_topology(arch.rows, arch.cols)
    )
    assert variant.fingerprint() != arch.fingerprint()


def test_same_name_architectures_do_not_alias(counted_schedule):
    """Two same-name archs with different interconnects must each get
    their own schedule (the cache used to key on ``arch.name``)."""
    arch_full = small_test_core()  # full topology
    arch_mesh = dataclasses.replace(
        arch_full, interconnect=mesh_topology(arch_full.rows, arch_full.cols)
    )
    assert arch_full.name == arch_mesh.name
    for arch in (arch_full, arch_mesh):
        linker = ProgramLinker(arch)
        linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
        linker.link()
    assert len(counted_schedule) == 2


def test_identical_link_hits_memory_cache(counted_schedule):
    arch = small_test_core()
    for _ in range(2):
        linker = ProgramLinker(arch)
        linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
        linker.link()
    assert len(counted_schedule) == 1
    assert schedule_cache_stats()["memory_hits"] == 1


def _link_once(arch):
    linker = ProgramLinker(arch)
    outs = linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
    return linker.link(), outs


def test_disk_cache_eliminates_scheduling(tmp_path, counted_schedule):
    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    program_a, _ = _link_once(arch)
    assert len(counted_schedule) == 1
    files = glob.glob(str(tmp_path / "*.sched.pkl"))
    assert len(files) == 1

    # A "fresh process": empty memory cache, warm directory.
    clear_schedule_cache()
    program_b, _ = _link_once(arch)
    assert len(counted_schedule) == 1  # no new compile
    assert schedule_cache_stats() == {"memory_hits": 0, "disk_hits": 1, "misses": 0}
    assert repr(program_b.kernels[0]) == repr(program_a.kernels[0])


def test_corrupt_cache_file_recompiles_and_heals(tmp_path, counted_schedule):
    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    _link_once(arch)
    (path,) = glob.glob(str(tmp_path / "*.sched.pkl"))

    for garbage in (b"", b"\x80\x05garbage", b"not a pickle at all"):
        with open(path, "wb") as fh:
            fh.write(garbage)
        clear_schedule_cache()
        _link_once(arch)  # must fall back to a recompile, not crash
        assert schedule_cache_stats()["misses"] == 1
        # The recompile rewrote a valid file: a second fresh load hits disk.
        clear_schedule_cache()
        _link_once(arch)
        assert schedule_cache_stats()["disk_hits"] == 1


def test_stale_key_in_cache_file_is_a_miss(tmp_path, counted_schedule):
    """A digest collision / stale payload degrades to a recompile."""
    import pickle

    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    _link_once(arch)
    (path,) = glob.glob(str(tmp_path / "*.sched.pkl"))
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    payload["key"] = ("wrong",)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)
    clear_schedule_cache()
    _link_once(arch)
    assert schedule_cache_stats()["misses"] == 1


def test_env_var_provides_default_cache_dir(tmp_path, monkeypatch, counted_schedule):
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", str(tmp_path))
    _link_once(small_test_core())
    assert glob.glob(str(tmp_path / "*.sched.pkl"))


# -- structural keying: one search per loop body --------------------------


def _make_wide_dfg(name="convention_probe"):
    """Reads its live-ins on several units, so its schedule on
    ``small_test_core`` has both CDRF reads (unit 0) and local-RF
    preloads (units 1-3)."""
    kb = KernelBuilder(name)
    base = kb.live_in("base")
    scale = kb.live_in("scale")
    i = kb.induction(0, 4)
    x = kb.load(Opcode.LD_I, kb.add(base, i))
    z = kb.add(kb.add(x, scale), scale)
    kb.accumulate(Opcode.ADD, kb.add(z, base), init=0, live_out="sum")
    return kb.finish()


def _registers_read(kernel):
    """(CDRF registers read, CDRF registers preloaded, CDRF registers written)."""
    reads, writes = set(), set()
    for context in kernel.contexts:
        for op in context.ops.values():
            for sel in op.srcs + ((op.pred,) if op.pred is not None else ()):
                if sel.kind is SrcKind.CDRF:
                    reads.add(sel.value)
            writes.update(dst.index for dst in op.dsts)
    return reads, {p.cdrf_reg for p in kernel.preloads}, writes


def test_two_register_conventions_share_one_search(counted_schedule):
    arch = small_test_core()
    linker = ProgramLinker(arch)
    # The second call of the same loop body gets fresh convention
    # registers (the first call's live-outs stay allocated).
    linker.call_kernel(_make_wide_dfg(), live_ins={"base": 256, "scale": 3}, trip_count=8)
    linker.call_kernel(_make_wide_dfg(), live_ins={"base": 512, "scale": 5}, trip_count=8)
    program = linker.link()
    assert len(counted_schedule) == 1
    assert schedule_cache_stats() == {"memory_hits": 1, "disk_hits": 0, "misses": 1}
    first, second = linker._kernels
    assert first.live_in_regs != second.live_in_regs
    assert first.live_out_regs != second.live_out_regs

    # The bound kernel equals a fresh search bound to that convention.
    clear_schedule_cache()
    dfg = _make_wide_dfg()
    fresh = ModuloScheduler(dfg, arch).schedule().bind(
        dfg, second.live_in_regs, second.live_out_regs, trip_count=8
    )
    assert second.result == fresh
    assert pickle.dumps(second.result) == pickle.dumps(fresh)
    assert program.kernels[1] == fresh.kernel

    reads, preloaded, writes = _registers_read(program.kernels[1])
    assert reads and preloaded, "probe must exercise CDRF reads and preloads"
    assert reads | preloaded <= set(second.live_in_regs.values())
    assert writes == set(second.live_out_regs.values())


def test_renamed_dfg_shares_the_search_and_keeps_its_name(counted_schedule):
    arch = small_test_core()
    for name in ("probe_a", "probe_b"):
        linker = ProgramLinker(arch)
        linker.call_kernel(_make_dfg(name), live_ins={"base": 256}, trip_count=8)
        program = linker.link()
        assert program.kernels[0].name == name
        assert linker.kernel_results[0].kernel.name == name
    assert counted_schedule == ["probe_a"]


def test_changed_constant_is_a_different_structure(counted_schedule):
    arch = small_test_core()
    for step in (4, 8):
        linker = ProgramLinker(arch)
        linker.call_kernel(_make_dfg(step=step), live_ins={"base": 256}, trip_count=8)
        linker.link()
    assert len(counted_schedule) == 2


def test_static_and_register_trip_counts_share_one_search(counted_schedule):
    arch = small_test_core()
    kernels = []
    for trip in (8, PhysReg(45)):
        linker = ProgramLinker(arch)
        linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=trip)
        kernels.append(linker.link().kernels[0])
    assert len(counted_schedule) == 1
    static, dynamic = kernels
    assert (static.trip_count, static.trip_count_reg) == (8, None)
    assert dynamic.trip_count is None and dynamic.trip_count_reg is not None
    assert static.contexts == dynamic.contexts


def test_format_1_payload_reads_as_a_miss(tmp_path, counted_schedule):
    """A file left by the register-keyed cache (format 1, a bound
    ScheduleResult) is recompiled and replaced, never misread."""
    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    program, _ = _link_once(arch)
    (path,) = glob.glob(str(tmp_path / "*.sched.pkl"))
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    linker = ProgramLinker(arch)
    linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
    linker.link()
    with open(path, "wb") as fh:
        pickle.dump({"format": 1, "key": payload["key"],
                     "result": linker.kernel_results[0]}, fh)
    clear_schedule_cache()
    program_b, _ = _link_once(arch)
    assert schedule_cache_stats()["misses"] == 1
    assert program_b.kernels[0] == program.kernels[0]
    with open(path, "rb") as fh:
        assert isinstance(pickle.load(fh)["value"], SchedulePlan)


def test_compiler_change_reads_a_warm_directory_as_a_miss(tmp_path, monkeypatch,
                                                          counted_schedule):
    """The key carries a digest of the scheduler's source: a changed
    scheduler searches again and writes its own file."""
    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    _link_once(arch)
    assert len(glob.glob(str(tmp_path / "*.sched.pkl"))) == 1
    assert len(counted_schedule) == 1

    monkeypatch.setattr(_PLANS, "fingerprint", lambda: "changed")
    clear_schedule_cache()
    _link_once(arch)
    assert schedule_cache_stats() == {"memory_hits": 0, "disk_hits": 0, "misses": 1}
    assert len(counted_schedule) == 2
    assert len(glob.glob(str(tmp_path / "*.sched.pkl"))) == 2
    clear_schedule_cache()
    _link_once(arch)
    assert schedule_cache_stats() == {"memory_hits": 0, "disk_hits": 1, "misses": 0}
