#!/usr/bin/env python
"""Simulator speed: host-side simulated cycles per second, per tier.

Times the full reference-modem packet (the paper's profiled MIMO-OFDM
workload) under both interpreter tiers and reports
``host_cycles_per_sec`` — total simulated cycles divided by host wall
seconds.  This is the per-PR trajectory metric of the simulator itself,
separate from the modelled processor's numbers.  Each warm tier also
reports ``warm_host_ns_per_op``: host wall divided by the executed
operations (``cga_ops + vliw_ops``).  The generated code's cost follows
executed operations rather than simulated cycles, so this is the
figure a code-generator change moves.

The sweep structure:

* the **cold** run (the primary ``wall_s``/``host_cycles_per_sec``)
  uses the compiled tier and includes the modulo-scheduler compile of
  every kernel, exactly what a fresh benchmark session pays;
* a **warm** run per tier (``compiled`` always, ``reference`` with
  ``--reference``) repeats the packet with the process-wide schedule
  and codegen caches populated, isolating pure simulation speed (best
  wall of three timed repetitions); per-tier numbers land in
  ``extra.tiers`` and the pairwise ratios in ``extra.speedups``;
* a **batched** run per width B in {1, 4, 16}: a resident
  :class:`~repro.runtime.ModemRuntime` processes B copies of the
  packet per ``run_batch`` call (tier keys ``batched_b<B>``, throughput
  normalised per packet).  ``--min-batched-speedup`` gates the best
  batched tier against the ``compiled`` tier (the same generated code,
  one lane on a newly built runtime, so a new core per region): it
  measures what resident lanes save over rebuilding the runtime, not
  lockstep.  A gated run also checks lockstep itself: the best of
  ``batched_b4``/``batched_b16`` against ``batched_b1``, the resident
  width-1 tier, must reach :data:`MIN_LOCKSTEP_SPEEDUP`.

``extra.generated_bytecodes_per_packet`` is a noise-free host-cost
figure: the bytecodes executed in frames of generated code (code
filename starting ``<repro.sim.codegen``), counted with ``sys.settrace``
opcode events over one warm 4-lane batch and divided by 4.  Wall time
on a shared host cannot resolve a code-generator change below ~10%;
this count can.  It is reported, not gated.  The same pass gives
``extra.generated_opcode_mix``: per packet, the executed
``UNPACK_SEQUENCE``, ``BUILD_TUPLE`` and ``EXTENDED_ARG`` bytecodes and
the ``LOAD_FAST`` -> ``STORE_FAST`` pairs (a local copied to a local, or
a conditional expression picking a local), and
``extra.generated_saturation_tests_per_packet``: the executed
comparisons of a lane with a constant int16 end (``x > 32767``,
``x < -32768``, ``x == -32768``), the clamps generated code keeps.  Time does not follow the
bytecode count across a change of value representation: bytecodes on
small ints cost less than bytecodes on packed 64-bit longs, so lane
tuples raised the count (1.94M -> 2.31M per packet) while generated CGA
time fell ~40%, and an unpack or a tuple build costs more than the
local loads and stores that replaced them when the lanes became four
locals each (2.31M -> 1.65M, generated CGA time -39%).  Compare the count only
between runs whose generated code holds values alike; the mix says
which kind of bytecode moved.

Every warm run's cycle count and decoded bits are checked for equality
against the cold run (the bit-exact contract; the exhaustive diff lives
in ``tests/sim/test_differential.py``).

Writes ``BENCH_sim_speed.json`` through ``reporting.write_bench_report``
and validates it against ``bench_report.schema.json``; exit status 0 on
success.

Run:  PYTHONPATH=src python benchmarks/bench_sim_speed.py [--reference]
"""

import argparse
import dis
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import reporting
from repro.eval import run_reference_modem
from repro.runtime import ModemRuntime, make_packet
from repro.trace import schema_errors

#: Batch widths swept by the batched compiled tier.
BATCH_WIDTHS = (1, 4, 16)

#: Floor of the lockstep gate: best per-packet throughput of the
#: multi-lane widths over the resident width-1 tier.  Twelve runs on a
#: shared 2-CPU container read medians of 20.3 ms per packet at width 1,
#: 17.5 at 4 and 16.7 at 16, a best-width speedup of 1.24x (lowest
#: 1.01x, under load); the floor leaves that noise a margin and still
#: fails if lockstep stops paying.
MIN_LOCKSTEP_SPEEDUP = 1.05

#: Batch width of the generated-bytecode count.
BYTECODE_BATCH = 4

#: ``co_filename`` prefix of every function the code generator emits.
GENERATED_FILENAME = "<repro.sim.codegen"


def ns_per_op(wall, stats_list):
    """Host nanoseconds per executed CGA + VLIW operation."""
    ops = sum(st.cga_ops + st.vliw_ops for st in stats_list)
    return round(wall * 1e9 / ops, 3)


def timed_run(interpreter):
    t0 = time.perf_counter()
    run = run_reference_modem(seed=42, cfo_hz=50e3, snr_db=None, interpreter=interpreter)
    wall = time.perf_counter() - t0
    return run, wall


#: Opcodes counted in ``extra.generated_opcode_mix``.
MIX_OPCODES = ("UNPACK_SEQUENCE", "BUILD_TUPLE", "EXTENDED_ARG")


#: The int16 ends a saturation test compares a lane with.
SATURATION_BOUNDS = (32767, -32768)


def saturation_tests(code):
    """Offsets of the saturation tests in *code*: each comparison of a
    value with a constant int16 end (``x > 32767``, ``x < -32768``,
    ``x == -32768``)."""
    tests = set()
    previous = None
    for inst in dis.get_instructions(code):
        if (inst.opname == "COMPARE_OP" and previous is not None
                and previous.opname == "LOAD_CONST" and previous.argval in SATURATION_BOUNDS):
            tests.add(inst.offset)
        previous = inst
    return tests


def generated_bytecodes(fn):
    """Run *fn*; return the bytecodes executed in generated frames, their
    mix (:data:`MIX_OPCODES` plus ``LOAD_FAST_STORE_FAST`` pairs) and
    the saturation tests among them (:func:`saturation_tests`)."""
    count = saturations = 0
    mix = dict.fromkeys(MIX_OPCODES + ("LOAD_FAST_STORE_FAST",), 0)
    counted = {dis.opmap[name]: name for name in MIX_OPCODES}
    load, store = dis.opmap["LOAD_FAST"], dis.opmap["STORE_FAST"]
    tests_of = {}

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(GENERATED_FILENAME):
            return None
        code = frame.f_code.co_code
        tests = tests_of.get(frame.f_code)
        if tests is None:
            tests = tests_of[frame.f_code] = saturation_tests(frame.f_code)
        previous = None

        def local(frame, event, arg):
            nonlocal count, previous, saturations
            if event == "opcode":
                count += 1
                if frame.f_lasti in tests:
                    saturations += 1
                op = code[frame.f_lasti]
                name = counted.get(op)
                if name is not None:
                    mix[name] += 1
                elif op == store and previous == load:
                    mix["LOAD_FAST_STORE_FAST"] += 1
                previous = op
            return local

        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count, mix, saturations


def timed_batched_run(batch):
    """Warm, resident batched run: B copies of the packet per call.

    The first ``run_batch`` primes the resident structures (lane cores,
    batch functions, linked programs); the timed calls measure the
    steady serving state the fabric's batch-drain mode reaches (best of
    three repetitions, like the per-packet tiers, to ride out scheduler
    noise on shared runners).
    """
    case = make_packet(42, cfo_hz=50e3)
    runtime = ModemRuntime(batch=batch)
    packets = [case.rx] * batch
    runtime.run_batch(packets)
    wall = None
    for _ in range(3):
        t0 = time.perf_counter()
        outputs = runtime.run_batch(packets)
        rep = time.perf_counter() - t0
        wall = rep if wall is None else min(wall, rep)
    return runtime, packets, outputs, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--reference",
        action="store_true",
        help="include the (slow) reference interpreter in the warm sweep",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR", help="report directory (default benchmarks/out)"
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="fail unless the best batched tier is at least X times the "
        "warm single-packet compiled tier, a runtime rebuilt per packet, and "
        "the best multi-lane width at least MIN_LOCKSTEP_SPEEDUP times the "
        "resident width-1 tier (0 disables both gates)",
    )
    args = parser.parse_args(argv)

    run, wall = timed_run("compiled")
    stats = run.output.stats
    cps = stats.total_cycles / wall
    print(
        "compiled (cold, incl. compile): %d cycles in %.2fs -> %.0f cycles/s (ber=%g)"
        % (stats.total_cycles, wall, cps, run.ber)
    )

    tier_names = ["compiled"]
    if args.reference:
        tier_names.append("reference")
    tiers = {}
    for tier in tier_names:
        # Prime the tier's process-wide caches (schedule and codegen
        # caches are already warm from the cold run) so the timed runs
        # measure steady-state simulation only; best of three
        # repetitions rides out scheduler noise on shared runners.
        timed_run(tier)
        warm, warm_wall = timed_run(tier)
        for _ in range(2):
            warm2, wall2 = timed_run(tier)
            if wall2 < warm_wall:
                warm, warm_wall = warm2, wall2
        warm_cps = warm.output.stats.total_cycles / warm_wall
        warm_ns = ns_per_op(warm_wall, [warm.output.stats])
        print("%s (warm): %.3fs -> %.0f cycles/s, %.1f ns/op"
              % (tier, warm_wall, warm_cps, warm_ns))
        if warm.output.stats.total_cycles != stats.total_cycles:
            print(
                "FAIL: cycle counts differ (%s tier vs cold compiled)" % tier,
                file=sys.stderr,
            )
            return 1
        if list(warm.output.bits) != list(run.output.bits):
            print(
                "FAIL: decoded bits differ (%s tier vs cold compiled)" % tier,
                file=sys.stderr,
            )
            return 1
        tiers[tier] = {
            "warm_wall_s": round(warm_wall, 6),
            "warm_host_cycles_per_sec": round(warm_cps, 3),
            "warm_host_ns_per_op": warm_ns,
        }

    # Batched compiled tier: one resident runtime per width, the same
    # bit-exact contract as the per-packet tiers for every lane.
    bytecodes_per_packet = opcode_mix = saturations_per_packet = None
    for b in BATCH_WIDTHS:
        runtime, packets, outputs, wall_b = timed_batched_run(b)
        if b == BYTECODE_BATCH:
            total, mix, saturations = generated_bytecodes(lambda: runtime.run_batch(packets))
            bytecodes_per_packet = total // b
            opcode_mix = {name: n // b for name, n in mix.items()}
            saturations_per_packet = saturations // b
            print("generated bytecodes per packet (warm B=%d): %d %s, %d saturation tests"
                  % (b, bytecodes_per_packet, opcode_mix, saturations_per_packet))
        cycles_b = sum(out.stats.total_cycles for out in outputs)
        cps_b = cycles_b / wall_b
        ns_b = ns_per_op(wall_b, [out.stats for out in outputs])
        print(
            "batched B=%d (warm): %.3fs (%.3fs/pkt) -> %.0f cycles/s, %.1f ns/op"
            % (b, wall_b, wall_b / b, cps_b, ns_b)
        )
        for out in outputs:
            if out.stats.total_cycles != stats.total_cycles:
                print(
                    "FAIL: cycle counts differ (batched B=%d vs cold compiled)" % b,
                    file=sys.stderr,
                )
                return 1
            if list(out.bits) != list(run.output.bits):
                print(
                    "FAIL: decoded bits differ (batched B=%d vs cold compiled)" % b,
                    file=sys.stderr,
                )
                return 1
        if runtime.fallbacks:
            print(
                "FAIL: batched B=%d needed %d fresh-core fallbacks on a "
                "uniform batch" % (b, runtime.fallbacks),
                file=sys.stderr,
            )
            return 1
        tiers["batched_b%d" % b] = {
            "warm_wall_s": round(wall_b, 6),
            "warm_wall_s_per_packet": round(wall_b / b, 6),
            "warm_host_cycles_per_sec": round(cps_b, 3),
            "warm_host_ns_per_op": ns_b,
            "batch": b,
        }

    speedups = {}
    for num, den in [
        ("compiled", "reference"),
    ] + [("batched_b%d" % b, "compiled") for b in BATCH_WIDTHS] + [
        ("batched_b%d" % b, "batched_b1") for b in BATCH_WIDTHS if b > 1
    ]:
        if num in tiers and den in tiers:
            ratio = (
                tiers[num]["warm_host_cycles_per_sec"]
                / tiers[den]["warm_host_cycles_per_sec"]
            )
            speedups["%s_vs_%s" % (num, den)] = round(ratio, 3)
            print("warm %s/%s speedup: %.2fx" % (num, den, ratio))

    if args.min_batched_speedup > 0:
        best = max(
            speedups["batched_b%d_vs_compiled" % b] for b in BATCH_WIDTHS
        )
        if best < args.min_batched_speedup:
            print(
                "FAIL: best batched/compiled speedup %.2fx < required %.2fx"
                % (best, args.min_batched_speedup),
                file=sys.stderr,
            )
            return 1
        print(
            "batched gate ok: best batched/compiled speedup %.2fx >= %.2fx"
            % (best, args.min_batched_speedup)
        )
        lockstep = max(
            speedups["batched_b%d_vs_batched_b1" % b] for b in BATCH_WIDTHS if b > 1
        )
        if lockstep < MIN_LOCKSTEP_SPEEDUP:
            print(
                "FAIL: best lockstep/resident width-1 speedup %.2fx < required %.2fx"
                % (lockstep, MIN_LOCKSTEP_SPEEDUP),
                file=sys.stderr,
            )
            return 1
        print(
            "lockstep gate ok: best lockstep/resident width-1 speedup %.2fx >= %.2fx"
            % (lockstep, MIN_LOCKSTEP_SPEEDUP)
        )

    extra = {
        "interpreter": "compiled",
        "ber": run.ber,
        "tiers": tiers,
        "speedups": speedups,
        "generated_bytecodes_per_packet": bytecodes_per_packet,
        "generated_saturation_tests_per_packet": saturations_per_packet,
        "generated_opcode_mix": opcode_mix,
    }

    path = reporting.write_bench_report(
        "sim_speed", out_dir=args.out, wall_s=wall, stats=stats, extra=extra
    )
    with open(path) as fh:
        report = json.load(fh)
    with open(os.path.join(_HERE, "bench_report.schema.json")) as fh:
        schema = json.load(fh)
    errors = schema_errors(report, schema)
    if errors:
        print("FAIL: %s violates bench_report.schema.json:" % path, file=sys.stderr)
        for err in errors:
            print("  " + err, file=sys.stderr)
        return 1
    if report["host_cycles_per_sec"] is None or report["host_cycles_per_sec"] <= 0:
        print("FAIL: missing host_cycles_per_sec", file=sys.stderr)
        return 1
    print("wrote %s (schema ok)" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
