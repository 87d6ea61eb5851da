#!/usr/bin/env python
"""Modem runtime throughput: packets per second through the runtime layer.

Measures the compile-once / run-many split of ``repro.runtime``:

* a warm-up packet links every region program (and, with ``--cache``,
  populates or consumes the persistent schedule and codegen caches;
  the report records both caches' counters, ``schedule_cache`` and
  ``codegen_cache``);
* a timed series of same-shape packets then runs serially on the
  resident programs, one ``run_packet`` call each, and
  ``packets_per_sec`` is the throughput trajectory metric; every
  region runs on the runtime's one lane core (``lane_cores``).
  Multi-worker throughput is ``bench_fabric_scaling.py``'s job.

Every packet's decoded bits are checked against the transmitted
payload, so the bench doubles as an end-to-end smoke test.  Writes
``BENCH_modem_throughput.json`` through ``reporting.write_bench_report``
and validates it against ``bench_report.schema.json``; exit status 0 on
success.

Run:  PYTHONPATH=src python benchmarks/bench_modem_throughput.py \\
          [--packets N] [--cache DIR] [--out DIR]
"""

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import numpy as np

import reporting
from repro.compiler.linker import schedule_cache_stats
from repro.runtime import ModemRuntime, generate_packets
from repro.sim.codegen import codegen_stats
from repro.sim.stats import ActivityStats
from repro.trace import schema_errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--packets", type=int, default=8, metavar="N", help="packet count (default 8)"
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="persistent schedule/codegen cache directory "
        "(default $REPRO_SCHEDULE_CACHE)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR", help="report directory (default benchmarks/out)"
    )
    parser.add_argument("--cfo", type=float, default=50e3, help="carrier offset in Hz")
    parser.add_argument("--seed", type=int, default=42, help="base packet seed")
    args = parser.parse_args(argv)
    if args.packets < 1:
        parser.error("--packets must be >= 1")

    cases = generate_packets(args.packets, base_seed=args.seed, cfo_hz=args.cfo)
    runtime = ModemRuntime(cache_dir=args.cache)

    t0 = time.perf_counter()
    runtime.run_packet(cases[0].rx)
    warmup_wall = time.perf_counter() - t0
    print(
        "warm-up: linked %d region programs in %.2fs (schedule cache: %s)"
        % (runtime.compiled_programs, warmup_wall, schedule_cache_stats())
    )

    outputs, timings = [], []
    t0 = time.perf_counter()
    for case in cases:
        t_packet = time.perf_counter()
        outputs.append(runtime.run_packet(case.rx))
        timings.append(time.perf_counter() - t_packet)
    wall = time.perf_counter() - t0

    bers = [
        float(np.mean(out.bits != case.bits)) for out, case in zip(outputs, cases)
    ]
    merged = ActivityStats()
    for out in outputs:
        merged.merge(out.stats)
    pps = len(outputs) / wall
    latency = reporting.latency_percentiles(timings)
    print(
        "%d packets: %.2fs -> %.2f packets/s (mean ber %g)"
        % (len(outputs), wall, pps, float(np.mean(bers)))
    )
    print(
        "per-packet latency: p50 %.3fs  p95 %.3fs  p99 %.3fs"
        % (latency["p50"], latency["p95"], latency["p99"])
    )
    if len(outputs) != len(cases):
        print("FAIL: %d/%d packets returned" % (len(outputs), len(cases)), file=sys.stderr)
        return 1
    if any(ber != 0.0 for ber in bers):
        print("FAIL: nonzero BER on clean channel: %r" % bers, file=sys.stderr)
        return 1

    extra = {
        "packets": len(outputs),
        "packets_per_sec": round(pps, 3),
        "latency_s": {k: round(v, 6) for k, v in latency.items()},
        "warmup_wall_s": round(warmup_wall, 6),
        "mean_ber": float(np.mean(bers)),
        "compiled_programs": runtime.compiled_programs,
        "lane_cores": len(runtime._cores),
        "cache_dir": args.cache,
        "schedule_cache": schedule_cache_stats(),
        "codegen_cache": codegen_stats(),
    }
    path = reporting.write_bench_report(
        "modem_throughput", out_dir=args.out, wall_s=wall, stats=merged, extra=extra
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
    print("wrote %s (schema ok)" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
