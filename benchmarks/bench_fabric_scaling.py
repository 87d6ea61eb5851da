#!/usr/bin/env python
"""Fabric scale-out: packets/s and latency vs worker count.

Runs the same packet batch three ways:

* a **serial baseline** on one warm :class:`~repro.runtime.ModemRuntime`
  on its default ``compiled`` tier (per-packet wall times feed the
  latency percentiles);
* a :class:`~repro.fabric.Fabric` at each ``--workers-list`` count, every
  worker forked from the same warm parent template (so spin-up performs
  zero ``ModuloScheduler.schedule`` calls — asserted from the report).

Every fabric output is checked bit-identical against the serial run.
``--min-speedup`` takes one of two forms:

* a number (default 3.0, the acceptance bar for 4 workers): the best
  speedup of the sweep must reach it, enforced only when the host has
  at least as many CPU cores as the largest worker count;
* per-worker-count floors ``N:X[,N:X...]``: each listed fabric size's
  own speedup must reach its floor, each enforced when the host has at
  least ``N`` cores.  A small host then still checks the sizes it can
  run in parallel (CI's 2-core runners check 1 and 2 workers).

An unenforced floor records the measured speedup and prints a SKIP
note, since forked workers time-slicing fewer cores cannot scale.

With ``--obs-check`` the largest fabric size runs twice more,
back-to-back: a control run, then a run with the live telemetry server
up and a greedy scraper thread hammering ``/metrics`` + ``/healthz``
for the whole batch.  The scraped run must stay bit-identical to the
serial baseline and within ``--obs-max-slowdown`` (default 2%) of the
control throughput — proving observation does not perturb the
observed.  Each mode takes its best of two attempts so one scheduler
hiccup cannot fail the gate.

Writes ``BENCH_fabric_scaling.json`` through
``reporting.write_bench_report`` and validates it against
``fabric_scaling.schema.json``; exit status 0 on success.

Run:  PYTHONPATH=src python benchmarks/bench_fabric_scaling.py \\
          [--packets N] [--workers-list 1,2,4] [--cache DIR] [--out DIR] \\
          [--obs-check]
"""

import argparse
import json
import os
import sys
import threading
import time
import urllib.request

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import numpy as np

import reporting
from repro.compiler.linker import schedule_cache_stats
from repro.fabric import Fabric
from repro.runtime import ModemRuntime, generate_packets
from repro.sim.stats import ActivityStats
from repro.trace import schema_errors


def _identical(fabric_out, serial_out) -> bool:
    return (
        list(fabric_out.bits) == list(serial_out.bits)
        and fabric_out.detect_pos == serial_out.detect_pos
        and fabric_out.stats == serial_out.stats
        and fabric_out.image == serial_out.image
    )


def _scrape_loop(url: str, stop: threading.Event, counts: dict) -> None:
    """Hammer the telemetry endpoints until stopped (the obs-check load)."""
    while not stop.is_set():
        for path in ("/metrics", "/healthz"):
            try:
                with urllib.request.urlopen(url + path, timeout=5) as resp:
                    resp.read()
                counts["scrapes"] += 1
            except OSError:
                counts["errors"] += 1
        stop.wait(0.01)


def _timed_run(fab, cases, serial_outputs) -> "tuple":
    """One fabric batch: (wall_s, all-results-bit-identical)."""
    t0 = time.perf_counter()
    ids = [fab.offer(case.rx).task_id for case in cases]
    results = fab.drain(timeout=600)
    wall = time.perf_counter() - t0
    ok = all(
        _identical(results[task_id], serial_out)
        for task_id, serial_out in zip(ids, serial_outputs)
    )
    return wall, ok


def _obs_check(args, template, cases, serial_outputs, n_workers) -> dict:
    """Control vs scraped-fabric throughput on *n_workers* workers.

    Best of two attempts per mode: a single scheduler hiccup on a busy
    host must not be able to fail the perturbation gate.
    """
    walls = {"control": [], "observed": []}
    identical = True
    scrapes = {"scrapes": 0, "errors": 0}
    for attempt in range(2):
        for mode in ("control", "observed"):
            fab = Fabric(
                workers=n_workers,
                template_runtime=template,
                cache_dir=args.cache,
                queue_depth=max(4, args.packets),
                name="obs-check-%s" % mode,
                obs_port=0 if mode == "observed" else None,
            )
            with fab:
                stop = threading.Event()
                scraper = None
                if mode == "observed":
                    scraper = threading.Thread(
                        target=_scrape_loop,
                        args=(fab.obs_url, stop, scrapes),
                        daemon=True,
                    )
                    scraper.start()
                wall, ok = _timed_run(fab, cases, serial_outputs)
                stop.set()
                if scraper is not None:
                    scraper.join(timeout=5)
            walls[mode].append(wall)
            identical = identical and ok
    pps_control = len(cases) / min(walls["control"])
    pps_observed = len(cases) / min(walls["observed"])
    slowdown = max(0.0, 1.0 - pps_observed / pps_control)
    return {
        "workers": n_workers,
        "control_packets_per_sec": round(pps_control, 3),
        "observed_packets_per_sec": round(pps_observed, 3),
        "slowdown": round(slowdown, 4),
        "max_slowdown": args.obs_max_slowdown,
        "scrapes": scrapes["scrapes"],
        "scrape_errors": scrapes["errors"],
        "bit_identical": identical,
    }


def _speedup_floors(text):
    """``X`` (a float) or ``N:X[,N:X...]`` (worker count -> floor)."""
    if ":" not in text:
        return float(text)
    floors = {}
    for item in text.split(","):
        n, _, floor = item.partition(":")
        floors[int(n)] = float(floor)
    if min(floors) < 1 or min(floors.values()) < 0:
        raise ValueError(text)
    return floors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--packets", type=int, default=8, metavar="N", help="batch size (default 8)"
    )
    parser.add_argument(
        "--workers-list",
        default="1,2,4",
        metavar="N,N,...",
        help="fabric sizes to sweep (default 1,2,4)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="persistent schedule-cache directory (default $REPRO_SCHEDULE_CACHE)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR", help="report directory (default benchmarks/out)"
    )
    parser.add_argument("--cfo", type=float, default=50e3, help="carrier offset in Hz")
    parser.add_argument("--seed", type=int, default=42, help="base packet seed")
    parser.add_argument(
        "--min-speedup",
        type=_speedup_floors,
        default=3.0,
        metavar="X | N:X,...",
        help="required best-fabric speedup over serial when the host has "
        "enough cores (default 3.0), or per-worker-count floors N:X",
    )
    parser.add_argument(
        "--obs-check",
        action="store_true",
        help="re-run the largest fabric with the telemetry server up and a "
        "scraper thread hammering it; fail if scraping perturbs results "
        "or costs more than --obs-max-slowdown throughput",
    )
    parser.add_argument(
        "--obs-max-slowdown",
        type=float,
        default=0.02,
        help="max fractional throughput loss tolerated under scraping "
        "(default 0.02 = 2%%)",
    )
    args = parser.parse_args(argv)
    if args.packets < 1:
        parser.error("--packets must be >= 1")
    try:
        worker_counts = sorted({int(n) for n in args.workers_list.split(",")})
    except ValueError:
        parser.error("--workers-list must be comma-separated integers")
    if not worker_counts or min(worker_counts) < 1:
        parser.error("--workers-list entries must be >= 1")
    if isinstance(args.min_speedup, dict):
        unswept = sorted(set(args.min_speedup) - set(worker_counts))
        if unswept:
            parser.error("--min-speedup names unswept worker counts %r" % unswept)

    cases = generate_packets(args.packets, base_seed=args.seed, cfo_hz=args.cfo)

    template = ModemRuntime(cache_dir=args.cache)
    t0 = time.perf_counter()
    template.warm_up(cases[0].rx)
    warmup_wall = time.perf_counter() - t0
    print(
        "warm-up: linked %d region programs in %.2fs (schedule cache: %s)"
        % (template.compiled_programs, warmup_wall, schedule_cache_stats())
    )

    # Serial baseline on the warm template: the reference outputs and the
    # denominator of every speedup below.
    serial_outputs = []
    serial_timings = []
    t0 = time.perf_counter()
    for case in cases:
        t_pkt = time.perf_counter()
        serial_outputs.append(template.run_packet(case.rx))
        serial_timings.append(time.perf_counter() - t_pkt)
    serial_wall = time.perf_counter() - t0
    serial_pps = len(cases) / serial_wall
    merged = ActivityStats()
    for out in serial_outputs:
        merged.merge(out.stats)
    bers = [
        float(np.mean(out.bits != case.bits))
        for out, case in zip(serial_outputs, cases)
    ]
    if any(ber != 0.0 for ber in bers):
        print("FAIL: nonzero serial BER on clean channel: %r" % bers, file=sys.stderr)
        return 1
    print(
        "serial baseline: %d packets in %.2fs -> %.2f packets/s"
        % (len(cases), serial_wall, serial_pps)
    )

    bit_identical = True
    scaling = []
    sweep_t0 = time.perf_counter()
    for n_workers in worker_counts:
        fab = Fabric(
            workers=n_workers,
            template_runtime=template,
            cache_dir=args.cache,
            queue_depth=max(4, args.packets),
            name="bench-%dw" % n_workers,
        )
        with fab:
            t0 = time.perf_counter()
            ids = [fab.offer(case.rx).task_id for case in cases]
            results = fab.drain(timeout=600)
            wall = time.perf_counter() - t0
            report = fab.report()
        for task_id, serial_out in zip(ids, serial_outputs):
            if not _identical(results[task_id], serial_out):
                bit_identical = False
                print(
                    "FAIL: task %d differs from serial output (workers=%d)"
                    % (task_id, n_workers),
                    file=sys.stderr,
                )
        misses = sum(
            w["spinup_schedule_misses"] or 0 for w in report["per_worker"]
        )
        codegen = sum(
            w["spinup_codegen_compilations"] or 0 for w in report["per_worker"]
        )
        pps = len(cases) / wall
        entry = {
            "workers": n_workers,
            "packets_per_sec": round(pps, 3),
            "wall_s": round(wall, 6),
            "speedup": round(pps / serial_pps, 3),
            "latency_s": {
                k: round(v, 6)
                for k, v in report["latency_s"].items()
                if k in ("p50", "p95", "p99")
            },
            "worker_crashes": report["counters"]["worker_crashes"],
            "spinup_schedule_misses": misses,
            "spinup_codegen_compilations": codegen,
        }
        scaling.append(entry)
        print(
            "%d worker(s): %.2fs -> %.2f packets/s (speedup %.2fx, "
            "p95 latency %.3fs, spin-up schedule misses %d)"
            % (
                n_workers,
                wall,
                pps,
                entry["speedup"],
                entry["latency_s"]["p95"],
                misses,
            )
        )
        if misses:
            print(
                "FAIL: forked workers scheduled %d regions at spin-up" % misses,
                file=sys.stderr,
            )
            return 1
    sweep_wall = time.perf_counter() - sweep_t0

    if not bit_identical:
        return 1

    cpu_count = os.cpu_count() or 1
    best_speedup = max(entry["speedup"] for entry in scaling)
    if isinstance(args.min_speedup, dict):
        checks = [(n, floor, entry["speedup"], "%d-worker" % n)
                  for n, floor in sorted(args.min_speedup.items())
                  for entry in scaling if entry["workers"] == n]
    else:
        checks = [(max(worker_counts), args.min_speedup, best_speedup, "best")]
    enforce = False
    for n_workers, floor, speedup, what in checks:
        if cpu_count < n_workers:
            print(
                "SKIP %s speedup floor: host has %d core(s) < %d workers; forked "
                "workers time-slice fewer cores (measured %.2fx)"
                % (what, cpu_count, n_workers, speedup)
            )
            continue
        enforce = True
        if speedup < floor:
            print(
                "FAIL: %s speedup %.2fx < required %.2fx on a %d-core host"
                % (what, speedup, floor, cpu_count),
                file=sys.stderr,
            )
            return 1

    obs_check = None
    if args.obs_check:
        obs_check = _obs_check(
            args, template, cases, serial_outputs, max(worker_counts)
        )
        print(
            "obs-check (%d workers): control %.2f pps vs observed %.2f pps "
            "under %d scrapes -> %.1f%% slowdown (limit %.1f%%)"
            % (
                obs_check["workers"],
                obs_check["control_packets_per_sec"],
                obs_check["observed_packets_per_sec"],
                obs_check["scrapes"],
                100 * obs_check["slowdown"],
                100 * args.obs_max_slowdown,
            )
        )
        if not obs_check["bit_identical"]:
            print("FAIL: results under scraping differ from serial", file=sys.stderr)
            return 1
        if obs_check["scrape_errors"]:
            print(
                "FAIL: %d scrape(s) errored mid-run" % obs_check["scrape_errors"],
                file=sys.stderr,
            )
            return 1
        if obs_check["slowdown"] > args.obs_max_slowdown:
            print(
                "FAIL: scraping cost %.1f%% throughput (> %.1f%% allowed)"
                % (100 * obs_check["slowdown"], 100 * args.obs_max_slowdown),
                file=sys.stderr,
            )
            return 1

    extra = {
        "packets": len(cases),
        "cpu_count": cpu_count,
        "bit_identical": bit_identical,
        "cache_dir": args.cache,
        "min_speedup": (
            {str(n): floor for n, floor in sorted(args.min_speedup.items())}
            if isinstance(args.min_speedup, dict) else args.min_speedup
        ),
        "best_speedup": best_speedup,
        "speedup_enforced": enforce,
        "serial": {
            "packets_per_sec": round(serial_pps, 3),
            "wall_s": round(serial_wall, 6),
            "latency_s": {
                k: round(v, 6)
                for k, v in reporting.latency_percentiles(serial_timings).items()
            },
        },
        "scaling": scaling,
        "obs_check": obs_check,
    }
    path = reporting.write_bench_report(
        "fabric_scaling",
        out_dir=args.out,
        wall_s=serial_wall + sweep_wall,
        stats=merged,
        extra=extra,
    )
    with open(path) as fh:
        report = json.load(fh)
    with open(os.path.join(_HERE, "fabric_scaling.schema.json")) as fh:
        schema = json.load(fh)
    errors = schema_errors(report, schema)
    if errors:
        print("FAIL: %s violates fabric_scaling.schema.json:" % path, file=sys.stderr)
        for err in errors:
            print("  " + err, file=sys.stderr)
        return 1
    print("wrote %s (schema ok)" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
