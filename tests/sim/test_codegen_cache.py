"""Codegen-cache tests: LRU bounds, disk persistence, corruption healing.

Mirrors ``tests/compiler/test_schedule_cache.py`` for the compiled
tier's code cache (`src/repro/sim/codegen/__init__.py`), plus regression tests
that a long-lived core's runner memos neither grow with nor alias
across ``patch_constants`` variants, and walk each kernel once across
lanes.
"""

import glob
import hashlib
import json
import marshal
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
    saved_src = dict(codegen._CODE.memory)
    saved_fn = dict(codegen._FN_CACHE)
    saved_stats = dict(codegen._CODE.stats)
    codegen.clear_codegen_cache()
    configure_schedule_cache(None)
    try:
        yield
    finally:
        configure_schedule_cache(None)
        codegen.clear_codegen_cache()
        codegen._CODE.memory.update(saved_src)
        codegen._FN_CACHE.update(saved_fn)
        codegen._CODE.stats.update(saved_stats)


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
    image = bytes(core.scratchpad._mem)
    for value in range(1, n + 1):
        variant = patch_constants(template, {_SENTINEL: value})
        core.reset(variant, image)
        before = codegen.codegen_stats()["compilations"]
        core.run()
        compiled.append(codegen.codegen_stats()["compilations"] - before)
        assert core.cycle > 0
        assert core.cdrf.peek(10) == 4 * value
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
    driven through ``Core.reset`` runs its own immediates."""
    template = _template_program()
    core = Core(paper_core(), template, interpreter="compiled")
    image = bytes(core.scratchpad._mem)
    seen = []
    for value in (5, 9, 5):
        variant = patch_constants(template, {_SENTINEL: value})
        core.reset(variant, image)
        core.run()
        seen.append(core.cdrf.peek(10))
        del variant  # allow id() reuse for the next variant
    assert seen == [20, 36, 20]


def test_first_batch_walks_each_kernel_once(monkeypatch):
    """A first width-4 ``run_batch`` walks each kernel object (its
    signature and immediate pool, one ``cga_layout``) once, not once per
    lane: lanes sharing a kernel (every unpatched region) reuse lane 0's
    walk, and each lane's ``patch_constants`` variant is walked once.
    Bundle lists get one ``vliw_layout`` walk per segment."""
    calls = {"cga_layout": [], "vliw_layout": []}

    def counting(name):
        original = getattr(codegen, name)

        def wrapped(obj, *args):
            calls[name].append((obj,) + args)
            return original(obj, *args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(codegen, name, counting(name))
    rx = make_packet(1, cfo_hz=50e3, snr_db=30.0).rx
    results = ModemRuntime(batch=4).run_batch_results([rx] * 4)
    assert all(r.error is None and not r.fell_back for r in results)

    kernels = [args[0] for args in calls["cga_layout"]]
    assert kernels
    assert len({id(k) for k in kernels}) == len(kernels)
    segments = [(id(b), pc) for b, pc, _end in calls["vliw_layout"]]
    assert segments
    assert len(set(segments)) == len(segments)
    # The walks are shared: fewer than one per lane of every kernel run.
    assert len(kernels) < 4 * len({k.name for k in kernels})


# ----------------------------------------------------------------------
# Tentpole: two-level code cache (memory + shared disk directory)
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


def _rewrite_values(paths, value):
    """Keep each payload's key but replace its stored value."""
    for path in paths:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["value"] = value
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)


def test_bad_marshal_blob_regenerates_and_heals(tmp_path):
    """A payload whose value is not loadable code (garbage or truncated
    marshal bytes, or marshal data of a source string) reads as a miss;
    the regeneration overwrites the file."""
    configure_schedule_cache(str(tmp_path))
    core_a = _run_compiled(_template_program())
    paths = glob.glob(str(tmp_path / "*.codegen.pkl"))
    assert paths
    with open(paths[0], "rb") as fh:
        blob = pickle.load(fh)["value"]
    assert isinstance(marshal.loads(blob), type(_run_compiled.__code__))

    for bad in (b"\x00not marshal data", blob[: len(blob) // 2],
                marshal.dumps("def _cga_run_batch(): pass")):
        _rewrite_values(paths, bad)
        codegen.clear_codegen_cache()
        core_b = _run_compiled(_template_program())
        stats = codegen.codegen_stats()
        assert stats["compilations"] == len(paths)
        assert stats["disk_hits"] == 0
        assert core_b.cycle == core_a.cycle
        assert core_b.cdrf.peek(10) == core_a.cdrf.peek(10)
        codegen.clear_codegen_cache()
        _run_compiled(_template_program())
        assert codegen.codegen_stats()["compilations"] == 0
        assert codegen.codegen_stats()["disk_hits"] == len(paths)


def test_artifact_of_another_interpreter_is_a_miss(tmp_path, monkeypatch):
    """Marshal data is only readable by the interpreter version that
    wrote it, so the disk key carries the interpreter's cache tag: code
    written under another tag is a miss, and the regeneration stores
    this interpreter's code beside it."""
    configure_schedule_cache(str(tmp_path))
    monkeypatch.setattr(codegen, "_CACHE_TAG", "cpython-00")
    _run_compiled(_template_program())
    written = codegen.codegen_stats()["compilations"]
    assert written >= 1

    monkeypatch.undo()
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    stats = codegen.codegen_stats()
    assert stats["disk_hits"] == 0
    assert stats["compilations"] == written
    assert len(glob.glob(str(tmp_path / "*.codegen.pkl"))) == 2 * written
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    assert codegen.codegen_stats()["disk_hits"] == written


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
    monkeypatch.setattr(codegen._CODE, "fingerprint", lambda: "0" * 16)
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


def test_generator_digest_covers_every_package_module():
    """Every module of the generator package is named in the disk key's
    digest, so an edit to any of them makes a warm directory a miss."""
    package = os.path.dirname(codegen.__file__)
    modules = {"repro.sim.codegen" if name == "__init__.py" else "repro.sim.codegen." + name[:-3]
               for name in os.listdir(package) if name.endswith(".py")}
    assert len(modules) > 1
    assert modules <= set(codegen._CODE.modules), modules - set(codegen._CODE.modules)


def test_cold_start_warm_up_compilation_count():
    """A ``ModemRuntime(batch=4)`` warm-up on the serving suite's
    ``cold_start`` shape (736 samples, 50 kHz CFO, 30 dB), widths 1..4,
    generates 82 functions: 65 VLIW segments and one CGA source per
    loop body (17).  Central registers are pooled, so the 16 ``xcorr_p*``
    kernels, which differ only in their live-out register, share one;
    recording zero-ness of identity-with-zero immediates splits none."""
    rx = make_packet(1, cfo_hz=50e3, snr_db=30.0).rx
    assert rx.shape == (2, 736)
    runtime = ModemRuntime(batch=4)
    for width in range(1, 5):
        runtime.run_batch([rx] * width)
    assert codegen.codegen_stats()["compilations"] == 82


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


def packet_digest(rx) -> str:
    """SHA-256 over one packet's decoded bits, final scratchpad image and
    the activity statistics of every region, run on a fresh runtime."""
    out = ModemRuntime().run_packet(rx)
    digest = hashlib.sha256(out.bits.tobytes())
    digest.update(out.image)
    for region in out.preamble_regions + out.data_regions:
        digest.update(json.dumps(region.profile.stats.as_dict(),
                                 sort_keys=True).encode())
    digest.update(json.dumps(out.stats.as_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_warm_restart_loads_code_without_generating_or_compiling(tmp_path):
    """A fresh process on a warm directory neither generates nor
    ``compile()``s generated code: every function's code is loaded from
    disk, and the packet's bits, image and statistics are identical."""
    rx = make_packet(1, cfo_hz=50e3, snr_db=30.0).rx
    configure_schedule_cache(str(tmp_path))
    expected = packet_digest(rx)
    compiled = codegen.codegen_stats()["compilations"]
    assert compiled >= 1
    assert len(glob.glob(str(tmp_path / "*.codegen.pkl"))) == compiled

    script = textwrap.dedent(
        """
        from repro.sim import codegen

        def _no_codegen(self, *args, **kwargs):
            raise AssertionError("codegen generated source despite warm disk cache")

        def _no_compile(*args, **kwargs):
            raise AssertionError("generated code compiled despite warm disk cache")

        codegen._CgaGen.generate_batch = _no_codegen
        codegen._VliwGen.generate_batch = _no_codegen
        codegen.compile = _no_compile  # shadows the builtin for codegen

        import test_codegen_cache as t
        from repro.runtime import make_packet

        digest = t.packet_digest(make_packet(1, cfo_hz=50e3, snr_db=30.0).rx)
        stats = codegen.codegen_stats()
        assert stats["compilations"] == 0, stats
        print("CODE_WARM_OK", stats["disk_hits"], digest)
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
    assert "CODE_WARM_OK %d %s" % (compiled, expected) in proc.stdout
