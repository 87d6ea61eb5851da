"""Codegen-cache tests: LRU bounds, disk persistence, corruption healing.

Mirrors ``tests/compiler/test_schedule_cache.py`` for the compiled
tier's source cache (`src/repro/sim/codegen.py`), plus regression tests
that a long-lived core's runner memos neither grow with nor alias
across ``patch_constants`` variants.
"""

import glob
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.arch import paper_core, small_test_core
from repro.compiler import KernelBuilder
from repro.compiler.linker import ProgramLinker, configure_schedule_cache
from repro.isa import Imm, Instruction, Opcode
from repro.runtime import ModemRuntime, make_packet
from repro.sim import CgaContext, CgaKernel, CgaOp, Core, DstSel, Program, SrcSel, VliwBundle
from repro.sim import codegen
from repro.sim.program import DstKind, patch_constants

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SENTINEL = 0xBEEF01


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Protect the process-wide codegen/schedule caches across tests."""
    saved_src = dict(codegen._SOURCES.memory)
    saved_fn = dict(codegen._FN_CACHE)
    saved_stats = dict(codegen._SOURCES.stats)
    codegen.clear_codegen_cache()
    configure_schedule_cache(None)
    try:
        yield
    finally:
        configure_schedule_cache(None)
        codegen.clear_codegen_cache()
        codegen._SOURCES.memory.update(saved_src)
        codegen._FN_CACHE.update(saved_fn)
        codegen._SOURCES.stats.update(saved_stats)


def _template_program():
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(_SENTINEL)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(
        name="lru_probe", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=4,
    )
    bundles = [
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    return Program(bundles=bundles, kernels={0: kernel})


# ----------------------------------------------------------------------
# Runner memos: bounded, and identity-guarded against id() reuse.
# ----------------------------------------------------------------------


def test_engine_kernel_caches_are_bounded():
    """A long-lived core fed many ``patch_constants`` variants (the
    fabric-worker pattern) must not pin every kernel it ever ran.

    The core's own lockstep runner memoizes per lane slot and per
    structural signature, so its tables stop growing after the first
    variant, and later variants compile nothing."""
    template = _template_program()
    core = Core(paper_core(), template, interpreter="compiled")
    n = 40
    runner = core._runner
    tables = (runner._vliw_lane, runner._cga_lane, runner._vliw_fns,
              runner._cga_fns, runner._sig_ids)
    compiled = []
    sizes = None
    for value in range(1, n + 1):
        variant = patch_constants(template, {_SENTINEL: value})
        core.rebind_program(variant)
        core.pc = 0
        core.halted = False
        start = core.cycle
        before = codegen.codegen_stats()["compilations"]
        core.run()
        compiled.append(codegen.codegen_stats()["compilations"] - before)
        assert core.cycle > start
        assert core.cdrf.peek(10) == 4 * value
        core.cdrf.poke(10, 0)
        if sizes is None:
            sizes = [len(table) for table in tables]
    assert [len(table) for table in tables] == sizes
    assert all(size <= 16 for size in sizes)
    assert None not in runner._vliw_fns.values()  # never fell back
    assert None not in runner._cga_fns.values()
    # Structural sharing still holds: N variants, compiles only for the first.
    assert compiled[0] >= 1
    assert not any(compiled[1:])


def test_recycled_kernel_id_is_not_a_stale_hit():
    """`id()` reuse after garbage collection must miss, not alias: the
    runner's per-lane memos are identity-guarded, so a recycled variant
    driven through ``rebind_program`` runs its own immediates."""
    template = _template_program()
    core = Core(paper_core(), template, interpreter="compiled")
    seen = []
    for value in (5, 9, 5):
        variant = patch_constants(template, {_SENTINEL: value})
        core.rebind_program(variant)
        core.pc = 0
        core.halted = False
        core.run()
        seen.append(core.cdrf.peek(10))
        core.cdrf.poke(10, 0)
        del variant  # allow id() reuse for the next variant
    assert seen == [20, 36, 20]


# ----------------------------------------------------------------------
# Tentpole: two-level source cache (memory + shared disk directory)
# ----------------------------------------------------------------------


def _run_compiled(program, arch=None):
    core = Core(arch or paper_core(), program, interpreter="compiled")
    core.run()
    return core


def test_memory_cache_compiles_once():
    program = _template_program()
    _run_compiled(program)
    first = codegen.codegen_stats()
    assert first["compilations"] >= 1
    _run_compiled(program)
    after = codegen.codegen_stats()
    assert after["compilations"] == first["compilations"]
    assert after["memory_hits"] > first["memory_hits"]


def test_disk_cache_round_trip(tmp_path):
    configure_schedule_cache(str(tmp_path))
    _run_compiled(_template_program())
    compiled = codegen.codegen_stats()["compilations"]
    assert compiled >= 1
    files = glob.glob(str(tmp_path / "*.codegen.pkl"))
    assert len(files) == compiled  # every generation was persisted

    # A "fresh process": empty memory cache, warm directory.
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    stats = codegen.codegen_stats()
    assert stats["compilations"] == 0
    assert stats["disk_hits"] == compiled


def test_corrupt_artifact_regenerates_and_heals(tmp_path):
    configure_schedule_cache(str(tmp_path))
    core_a = _run_compiled(_template_program())
    paths = glob.glob(str(tmp_path / "*.codegen.pkl"))
    assert paths

    for garbage in (b"", b"\x80\x05garbage", b"not a pickle at all"):
        for path in paths:
            with open(path, "wb") as fh:
                fh.write(garbage)
        codegen.clear_codegen_cache()
        core_b = _run_compiled(_template_program())  # regenerate, not crash
        assert codegen.codegen_stats()["compilations"] == len(paths)
        assert core_b.cycle == core_a.cycle
        assert core_b.cdrf.peek(10) == core_a.cdrf.peek(10)
        # The regeneration healed the files: a fresh load hits disk.
        codegen.clear_codegen_cache()
        _run_compiled(_template_program())
        assert codegen.codegen_stats()["compilations"] == 0
        assert codegen.codegen_stats()["disk_hits"] == len(paths)


def test_stale_key_in_artifact_is_a_miss(tmp_path):
    """A digest collision / stale payload degrades to a regeneration."""
    configure_schedule_cache(str(tmp_path))
    _run_compiled(_template_program())
    (path, *_) = glob.glob(str(tmp_path / "*.codegen.pkl"))
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    payload["key"] = ("wrong",)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    assert codegen.codegen_stats()["compilations"] >= 1


def test_artifact_of_another_generator_is_a_miss(tmp_path, monkeypatch):
    """The disk key carries a digest of the generator's own source, so a
    directory written by another version of the code generator reads
    as a miss instead of serving stale source."""
    configure_schedule_cache(str(tmp_path))
    monkeypatch.setattr(codegen._SOURCES, "fingerprint", lambda: "0" * 16)
    _run_compiled(_template_program())
    written = codegen.codegen_stats()["compilations"]
    assert written >= 1
    assert len(glob.glob(str(tmp_path / "*.codegen.pkl"))) == written

    monkeypatch.undo()
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    stats = codegen.codegen_stats()
    assert stats["disk_hits"] == 0
    assert stats["compilations"] == written
    # Both generations now sit side by side; the current one hits.
    assert len(glob.glob(str(tmp_path / "*.codegen.pkl"))) == 2 * written
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    assert codegen.codegen_stats()["disk_hits"] == written


def test_cold_start_warm_up_compilation_count():
    """Recording zero-ness of identity-with-zero immediates in the
    signature splits no served kernel: a ``ModemRuntime(batch=4)``
    warm-up on the serving suite's ``cold_start`` shape (736 samples,
    50 kHz CFO, 30 dB), widths 1..4, still generates 99 functions."""
    rx = make_packet(1, cfo_hz=50e3, snr_db=30.0).rx
    assert rx.shape == (2, 736)
    runtime = ModemRuntime(batch=4)
    for width in range(1, 5):
        runtime.run_batch([rx] * width)
    assert codegen.codegen_stats()["compilations"] == 99


# ----------------------------------------------------------------------
# ISSUE acceptance: warm dir -> zero scheduling AND zero codegen in a
# fresh process (subprocess-asserted, like the PR 3 disk-warm test).
# ----------------------------------------------------------------------


def _make_dfg(name="codegen_probe"):
    kb = KernelBuilder(name)
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    x = kb.load(Opcode.LD_I, kb.add(base, i))
    kb.accumulate(Opcode.ADD, x, init=0, live_out="sum")
    return kb.finish()


def _link_and_run(arch):
    linker = ProgramLinker(arch)
    outs = linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
    core = Core(arch, linker.link(), interpreter="compiled")
    core.run()
    return core.cdrf.peek(outs["sum"].index)


def test_fresh_process_with_warm_cache_never_schedules_or_compiles(tmp_path):
    configure_schedule_cache(str(tmp_path))
    expected = _link_and_run(small_test_core())
    assert glob.glob(str(tmp_path / "*.sched.pkl"))
    assert glob.glob(str(tmp_path / "*.codegen.pkl"))

    script = textwrap.dedent(
        """
        from repro.compiler import modulo
        from repro.sim import codegen

        def _no_schedule(self, *args, **kwargs):
            raise AssertionError("ModuloScheduler.schedule ran despite warm disk cache")

        def _no_codegen(self, *args, **kwargs):
            raise AssertionError("codegen generated source despite warm disk cache")

        modulo.ModuloScheduler.schedule = _no_schedule
        codegen._CgaGen.generate_batch = _no_codegen
        codegen._VliwGen.generate_batch = _no_codegen

        import test_codegen_cache as t
        from repro.arch import small_test_core

        value = t._link_and_run(small_test_core())
        assert codegen.codegen_stats()["compilations"] == 0
        print("CODEGEN_WARM_OK", value)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + os.path.dirname(os.path.abspath(__file__))
    env["REPRO_SCHEDULE_CACHE"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CODEGEN_WARM_OK %d" % expected in proc.stdout
