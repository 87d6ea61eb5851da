"""Modem runtime tests: bit-identity, throughput, tiers and disk cache."""

import inspect
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.arch import paper_core
from repro.compiler import modulo
from repro.compiler.linker import _PLANS, configure_schedule_cache
from repro.eval import run_reference_modem
from repro.modem.receiver import MIN_PACKET_SAMPLES, SimReceiver
from repro.runtime import ModemRuntime, generate_packets, make_packet
from repro.sim import Core, Program, codegen
from repro.sim.core import INTERPRETERS
from repro.trace.tracer import Tracer

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def cases():
    return generate_packets(8, base_seed=42, cfo_hz=50e3)


def _assert_outputs_identical(a, b):
    """Full bit-identity: decoded payload, estimates, cycles, stats."""
    assert list(a.bits) == list(b.bits)
    assert a.detect_pos == b.detect_pos
    assert a.ltf1_start == b.ltf1_start
    assert a.coarse_cfo_hz == b.coarse_cfo_hz
    assert a.fine_cfo_hz == b.fine_cfo_hz
    regions_a = a.preamble_regions + a.data_regions
    regions_b = b.preamble_regions + b.data_regions
    assert [r.name for r in regions_a] == [r.name for r in regions_b]
    for ra, rb in zip(regions_a, regions_b):
        assert ra.profile.cycles == rb.profile.cycles, ra.name
        assert ra.outputs == rb.outputs, ra.name
    assert a.stats == b.stats
    assert a.image == b.image


def test_batch_bit_identical_to_per_packet_receivers(cases):
    subset = cases[:3]
    runtime = ModemRuntime()
    batched = runtime.run_batch([case.rx for case in subset])
    assert len(batched) == len(subset)
    # The batch relinked nothing after the first packet: one program set.
    programs_after_first = runtime.compiled_programs
    for out, case in zip(batched, subset):
        assert float(np.mean(out.bits != case.bits)) == 0.0
    assert runtime.compiled_programs == programs_after_first
    for out, case in zip(batched, subset):
        solo = ModemRuntime(interpreter="reference").run_packet(case.rx)
        _assert_outputs_identical(out, solo)


#: Simulated cycles per receiver region of ``cases[0]``'s packet.
#: Schedules are a pure function of loop-body structure, architecture
#: and seed, so sharing one search across register conventions must
#: leave every one of these unchanged.
PREAMBLE_CYCLES = [
    ("non-kernel code", 2), ("sample ordering", 0), ("acorr", 302),
    ("fshift", 314), ("xcorr", 1490), ("acorr", 130),
    ("freq offset estimation", 118), ("sample reordering", 0),
    ("fshift", 502), ("freq offset compensation", 1309), ("fft", 2147),
    ("remove zero carriers", 0), ("SDM processing", 369),
    ("equalize coeff calc", 951),
]
DATA_CYCLES = [
    ("fshift", 641), ("fft", 1607), ("data shuffle", 421),
    ("SDM processing", 553), ("tracking", 89), ("comp", 281),
    ("demod QAM64", 267),
]

#: Distinct loop-body structures among the receiver's 62 kernels: a
#: cold link searches each once (the twiddled FFT stages and the
#: per-stream variants differ only in names and registers).  The preamble rotates
#: use two structures — antenna 0 alone for the sync region, the
#: two-antenna pair rotate for the HT-LTFs — where one served both
#: before the copy passes were fused into their consumers.
DISTINCT_KERNEL_STRUCTURES = 17

#: Placement attempts those searches make in total (failed IIs x
#: restarts, plus the successful one per search): exact for a seed.
SEARCH_ATTEMPTS = 101


def test_batch_8_packets_at_least_5x_faster_than_cold_runs(cases, monkeypatch):
    """The headline acceptance: one warm batch beats 8 cold compiles."""
    monkeypatch.delenv("REPRO_SCHEDULE_CACHE", raising=False)
    searches = []
    search = modulo.ModuloScheduler.schedule

    def counted(self):
        plan = search(self)
        searches.append((self.dfg.name, plan.attempts))
        return plan

    monkeypatch.setattr(modulo.ModuloScheduler, "schedule", counted)
    saved = dict(_PLANS.memory)
    _PLANS.memory.clear()
    try:
        t0 = time.perf_counter()
        cold_out = ModemRuntime().run_packet(cases[0].rx)
        t_cold = time.perf_counter() - t0
    finally:
        _PLANS.memory.update(saved)
    assert float(np.mean(cold_out.bits != cases[0].bits)) == 0.0
    assert len(searches) == DISTINCT_KERNEL_STRUCTURES, searches
    assert sum(attempts for _name, attempts in searches) == SEARCH_ATTEMPTS, searches
    assert [(r.name, r.profile.cycles) for r in cold_out.preamble_regions] == PREAMBLE_CYCLES
    assert [(r.name, r.profile.cycles) for r in cold_out.data_regions] == DATA_CYCLES

    runtime = ModemRuntime()
    t0 = time.perf_counter()
    outputs = runtime.run_batch([case.rx for case in cases])
    t_batch = time.perf_counter() - t0
    assert len(outputs) == len(cases)
    for out, case in zip(outputs, cases):
        assert float(np.mean(out.bits != case.bits)) == 0.0
    # 8 cold per-packet runs would cost ~8 * t_cold; the batch must be
    # at least 5x cheaper end-to-end (it is ~40x in practice).
    assert len(cases) * t_cold >= 5 * t_batch, (t_cold, t_batch)


def test_unknown_interpreter_is_rejected_at_construction():
    """A misspelt tier, or the retired ``decoded`` one, fails when the
    runtime or core is built, not per packet."""
    for tier in ("fast", "decoded"):
        with pytest.raises(ValueError, match="interpreter must be"):
            ModemRuntime(interpreter=tier)
        with pytest.raises(ValueError, match="interpreter must be"):
            Core(paper_core(), Program(bundles=[]), interpreter=tier)


def test_default_tier_is_compiled():
    """Core, run_reference_modem and ModemRuntime share one default
    tier; the receiver pipeline itself has no tier to choose."""
    for fn in (Core.__init__, run_reference_modem, ModemRuntime.__init__):
        assert inspect.signature(fn).parameters["interpreter"].default == "compiled"
    assert INTERPRETERS == ("reference", "compiled")
    assert "interpreter" not in inspect.signature(SimReceiver.__init__).parameters


def test_mixed_shapes_and_short_packet_keep_input_order(cases):
    """One call with two interleaved shapes and one too-short packet:
    results come back in input order, the short packet carries its
    ValueError as a fallback, and every other packet matches the
    reference tier bit for bit."""
    long_rx = make_packet(9, extra_pad=64).rx
    short_rx = cases[0].rx[:, : MIN_PACKET_SAMPLES - 1]
    packets = [cases[0].rx, long_rx, short_rx, cases[1].rx, make_packet(10, extra_pad=64).rx]
    runtime = ModemRuntime(batch=4)
    results = runtime.run_batch_results(packets)
    assert len(results) == len(packets)
    short = results[2]
    assert short.output is None
    assert isinstance(short.error, ValueError)
    assert short.fell_back is True
    for i, (rx, result) in enumerate(zip(packets, results)):
        if i == 2:
            continue
        assert result.error is None, i
        assert result.fell_back is False, i
        solo = ModemRuntime(interpreter="reference").run_packet(rx)
        assert list(result.output.bits) == list(solo.bits), i
        assert result.output.stats == solo.stats, i
        assert result.output.image == solo.image, i
    assert runtime.fallbacks == 1
    assert runtime.packets_run == len(packets) - 1


def test_batched_runtime_ragged_chunk_is_not_a_fallback(cases):
    """A trailing singleton chunk (N % B != 0) runs on the resident
    lane cores at width 1; it must stay bit-identical to the
    reference tier and must NOT count toward ``fallbacks``."""
    subset = [case.rx for case in cases[:3]]
    serial = ModemRuntime(interpreter="reference")
    expected = [serial.run_packet(rx) for rx in subset]
    batched = ModemRuntime(batch=2)  # chunks of 2 + 1
    outputs = batched.run_batch(subset)
    for out, ref in zip(outputs, expected):
        _assert_outputs_identical(out, ref)
    assert batched.packets_run == 3
    assert batched.fallbacks == 0, "ragged singleton chunk is not a fallback"


def test_faulted_lane_replays_its_region_on_a_fresh_core(cases, monkeypatch):
    """A fault in one lane of a 4-lane batch: that packet's region is
    replayed alone on a fresh core and the packet still matches the
    reference tier, while its sibling lanes finish in the batch."""
    from repro.sim.batch import BatchProgramRunner
    from repro.sim.memory import MemoryError_

    faulty = 2
    injected = []
    replays = []
    batch_step = BatchProgramRunner._cga_batch_step
    run_lane = ModemRuntime._run_lane

    def faulting_step(self, fn, trip, lanes, ginfo, results, fail):
        def fn_with_fault(*args):
            fn(*args)
            if not injected and faulty in lanes:
                faults = args[-1]
                faults[lanes.index(faulty)] = MemoryError_("injected lane fault")
                injected.append(faulty)

        batch_step(self, fn_with_fault, trip, lanes, ginfo, results, fail)

    def counted_run_lane(core, program, image):
        # On the lockstep tier a lane runs alone only when replayed.
        replays.append(core)
        return run_lane(core, program, image)

    monkeypatch.setattr(BatchProgramRunner, "_cga_batch_step", faulting_step)
    monkeypatch.setattr(ModemRuntime, "_run_lane", staticmethod(counted_run_lane))
    packets = [case.rx for case in cases[:4]]
    runtime = ModemRuntime(batch=4)
    results = runtime.run_batch_results(packets)
    assert injected == [faulty] and len(replays) == 1
    assert all(replays[0] not in region.cores for region in runtime._regions.values())
    assert runtime.fallbacks == 1
    for i, (rx, result) in enumerate(zip(packets, results)):
        assert result.error is None, i
        assert result.fell_back is (i == faulty), i
        reference = ModemRuntime(interpreter="reference").run_packet(rx)
        assert list(result.output.bits) == list(reference.bits), i
        assert result.output.stats == reference.stats, i
        assert result.output.image == reference.image, i


def test_traced_batch_matches_untraced_and_spans_every_region(cases):
    """A traced 4-wide runtime runs its lanes one at a time on the
    reference loop (the lockstep runner refuses traced lanes) and still
    matches an untraced compiled run in bits, stats and images; the
    tracer gets one ``region`` span per simulated region per packet, on
    one timeline that never runs backwards."""
    tracer = Tracer(capacity=1 << 16, enabled=True)
    packets = [case.rx for case in cases[:2]]
    traced = ModemRuntime(tracer=tracer, batch=4).run_batch(packets)
    plain = ModemRuntime(batch=4).run_batch(packets)
    for out, ref in zip(traced, plain):
        _assert_outputs_identical(out, ref)
    simulated = [
        r.name for r in plain[0].preamble_regions + plain[0].data_regions
        if r.profile.fused_into is None
    ]
    assert tracer.dropped == 0
    spans = [e for e in tracer.events if e.cat == "region"]
    # The lanes advance region by region: each region of packet 0, then
    # the same region of packet 1.
    assert [e.name for e in spans] == [name for name in simulated for _ in packets]
    expected = [
        r.profile.cycles
        for pair in zip(*[out.preamble_regions + out.data_regions for out in traced])
        for r in pair if r.profile.fused_into is None
    ]
    assert [e.dur for e in spans] == expected
    assert all(a.ts + a.dur == b.ts for a, b in zip(spans, spans[1:]))


#: Trailing-pad lengths of the mixed-shape serving traffic.
MIXED_PADS = (0, 64, 160)


@pytest.fixture(scope="module")
def warm_mixed_runtime():
    """A runtime warmed on every mixed-traffic shape at widths 1
    and 4, counting each codegen entry-point call and each
    ``CodegenUnsupported`` refusal made while warming."""
    counts = {"calls": 0, "unsupported": 0}

    def counting(fn):
        def wrapped(*args, **kwargs):
            counts["calls"] += 1
            try:
                return fn(*args, **kwargs)
            except codegen.CodegenUnsupported:
                counts["unsupported"] += 1
                raise

        return wrapped

    runtime = ModemRuntime(batch=4)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("cga_batch_runner", "vliw_batch_runner"):
            mp.setattr(codegen, name, counting(getattr(codegen, name)))
        for pad in MIXED_PADS:
            rx = make_packet(7, extra_pad=pad).rx
            for width in (1, 4):
                runtime.run_batch([rx] * width)
    return runtime, counts


def test_codegen_never_refuses_a_modem_region_program(warm_mixed_runtime):
    """Every modem region program compiles at widths 1 and 4: the
    runner's reference-loop fallback is reachable only from hand-built
    programs that break the static port-pressure proof."""
    runtime, counts = warm_mixed_runtime
    assert counts["calls"] > 0
    assert counts["unsupported"] == 0
    assert runtime.fallbacks == 0
    for region in runtime._regions.values():
        assert None not in region.runner._vliw_fns.values()
        assert None not in region.runner._cga_fns.values()


def test_warm_single_packet_batch_runs_on_resident_cores(warm_mixed_runtime, monkeypatch):
    """A single packet on a warm runtime is a batch of one on the
    resident lane cores: no ``Core`` is built, nothing compiles, nothing
    falls back, and the result matches the reference interpreter."""
    runtime, _ = warm_mixed_runtime
    rx = make_packet(8, extra_pad=64).rx
    built = []
    original_init = Core.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Core, "__init__", counting_init)
    before = codegen.codegen_stats()["compilations"]
    (result,) = runtime.run_batch_results([rx])
    compiled = codegen.codegen_stats()["compilations"] - before
    monkeypatch.undo()
    assert built == []
    assert compiled == 0
    assert result.error is None
    assert result.fell_back is False
    reference = ModemRuntime(interpreter="reference").run_packet(rx)
    assert list(result.output.bits) == list(reference.bits)
    assert result.output.stats.total_cycles == reference.stats.total_cycles


def test_runtime_tracks_warmed_shapes(cases):
    """warmed_shapes mirrors the linked-program shapes; the fabric uses
    it to seed shape-affinity state for workers forked from a template."""
    runtime = ModemRuntime()
    assert runtime.warmed_shapes == set()
    runtime.run_packet(cases[0].rx)
    shape = (int(cases[0].rx.shape[1]), 2)
    assert runtime.warmed_shapes == {shape}
    runtime.run_packet(cases[1].rx)  # same shape: still one entry
    assert runtime.warmed_shapes == {shape}


def test_fresh_process_with_warm_disk_cache_never_schedules(tmp_path, cases):
    """ISSUE acceptance: a warm on-disk cache eliminates every
    ModuloScheduler.schedule call in a fresh process."""
    configure_schedule_cache(str(tmp_path))
    try:
        # The in-memory cache is warm from the earlier tests; running one
        # packet write-throughs every schedule into the directory.
        ModemRuntime().run_packet(cases[0].rx)
    finally:
        configure_schedule_cache(None)
    assert list(tmp_path.glob("*.sched.pkl"))

    script = textwrap.dedent(
        """
        import numpy as np
        from repro.compiler import modulo

        def _poisoned(self, *args, **kwargs):
            raise AssertionError("ModuloScheduler.schedule ran despite warm disk cache")

        modulo.ModuloScheduler.schedule = _poisoned

        from repro.runtime import ModemRuntime, make_packet

        case = make_packet(42, cfo_hz=50e3)
        out = ModemRuntime().run_packet(case.rx)
        assert float(np.mean(out.bits != case.bits)) == 0.0
        print("DISK_WARM_OK", out.ltf1_start)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR
    env["REPRO_SCHEDULE_CACHE"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "DISK_WARM_OK" in proc.stdout


def _region_stats(outputs):
    return [[region.profile.stats.as_dict() for region in out.preamble_regions + out.data_regions]
            for out in outputs]


@pytest.mark.parametrize("tier", ["reference", "compiled", "compiled-replay"])
def test_region_stats_match_snapshot_deltas(cases, tier, monkeypatch):
    """``Core.reset`` zeroes the statistics after its I$ warm-up and a
    region hands its counts over with one ``ActivityStats.take()``: the
    same region statistics as letting the counters run on and taking
    each region as the delta from a snapshot made after the reset, on
    both tiers and on a lane replayed after a lockstep fault."""
    from repro.sim.batch import BatchProgramRunner
    from repro.sim.memory import MemoryError_
    from repro.sim.stats import ActivityStats

    interpreter = "reference" if tier == "reference" else "compiled"
    packets = [case.rx for case in cases[:2]]
    injected = []
    if tier == "compiled-replay":
        batch_step = BatchProgramRunner._cga_batch_step

        def faulting_step(self, fn, trip, lanes, ginfo, results, fail):
            def fn_with_fault(*args):
                fn(*args)
                if not injected and 1 in lanes:
                    args[-1][lanes.index(1)] = MemoryError_("injected lane fault")
                    injected.append(1)

            batch_step(self, fn_with_fault, trip, lanes, ginfo, results, fail)

        monkeypatch.setattr(BatchProgramRunner, "_cga_batch_step", faulting_step)

    def run():
        injected.clear()
        runtime = ModemRuntime(interpreter=interpreter, batch=2)
        outputs = runtime.run_batch(packets)
        assert runtime.fallbacks == len(injected) == (tier == "compiled-replay")
        return outputs

    taken = run()
    snapshots = {}

    def keep_counting(stats):
        snapshots[id(stats)] = stats.snapshot()

    def delta(stats):
        return stats.delta_since(snapshots[id(stats)])

    monkeypatch.setattr(ActivityStats, "clear", keep_counting)
    monkeypatch.setattr(ActivityStats, "take", delta)
    deltas = run()
    assert _region_stats(taken) == _region_stats(deltas)
    assert [out.stats for out in taken] == [out.stats for out in deltas]


def test_packet_image_starts_from_the_table_image(cases):
    """The tables are built once per receiver; each packet's first image
    is byte-identical to writing its samples and every table afresh."""
    from repro.kernels.sync import atan_table_q16
    from repro.modem.receiver import _interleave_words, reorder_table_words
    from repro.phy.fixed import q15

    receiver = SimReceiver()
    mem = receiver.mem
    for case in cases[:3]:
        rx = np.atleast_2d(np.asarray(case.rx, dtype=np.complex128))
        fresh = bytearray(receiver.arch.l1.bytes)
        receiver._write_words(fresh, mem.RXIN, _interleave_words(q15(rx.real), q15(rx.imag)))
        receiver._write_words(fresh, mem.ATAN, atan_table_q16(14))
        receiver._write_words(fresh, mem.XCREF, receiver._ltf_ref_words(), size=8)
        receiver._write_words(fresh, mem.RTAB, reorder_table_words(receiver.params.n_fft))
        receiver._write_words(fresh, mem.BINTAB, receiver._bin_table_words())
        receiver._write_words(fresh, mem.SGN, receiver._sign_table_words(), size=8)
        for tw_addr, _q, _live_ins, words in receiver._fft_stages:
            receiver._write_words(fresh, tw_addr, words, size=8)
        request = next(receiver._pipeline(case.rx))
        assert bytes(request.image) == bytes(fresh)
    assert receiver._table_image() is receiver._table_image()
