#!/usr/bin/env python
"""Ingest throughput: packets/s and shed rate vs offered load.

Streams a batch of synthetic waveforms over loopback UDP through an
:class:`~repro.ingest.IngestServer` three ways:

* **paced** — sender throttled well below line rate: the baseline
  everything should keep up with;
* **line_rate** — the sender blasts as fast as ``sendto`` allows: the
  loopback ingest ceiling (packets/s through parse + reassemble +
  submit + digest);
* **overload** — slow workers behind a depth-2 ``drop``-mode fabric:
  the fabric sheds, and the bench records the shed fraction — the
  drop-rate-vs-offered-load data point.

Every leg must balance the exactly-once ledger (released + lost ==
sent, submitted + shed == released, nothing buffered).  A digest stub
stands in for the modem: this bench measures the transport, not the
decode (``bench_fabric_scaling.py`` owns that trajectory).

Writes ``BENCH_ingest.json`` through ``reporting.write_bench_report``
and validates it against ``ingest.schema.json``; exit status 0 on
success.

Run:  PYTHONPATH=src python benchmarks/bench_ingest.py \\
          [--packets N] [--n-samples N] [--out DIR]
"""

import argparse
import json
import os
import sys
import time

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import reporting
from repro.fabric import Fabric
from repro.ingest import IngestServer, send_stream
from repro.runtime import BatchPacketResult
from repro.trace import schema_errors


class _DigestRunner:
    def run_batch_results(self, rxs, n_symbols=2, detect_hint=None):
        return [BatchPacketResult(output={"digest": rx.tobytes(), "n": int(rx.shape[1])})
                for rx in rxs]


def _digest_factory():
    return _DigestRunner()


class _SlowRunner:
    def run_batch_results(self, rxs, n_symbols=2, detect_hint=None):
        time.sleep(0.02 * len(rxs))
        return [BatchPacketResult(output={"n": int(rx.shape[1])}) for rx in rxs]


def _slow_factory():
    return _SlowRunner()


def _waveforms(n, n_samples, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((2, n_samples)) + 1j * rng.standard_normal((2, n_samples)))
        / 4
        for _ in range(n)
    ]


def _run_leg(name, waves, runner_factory, pace_s, queue_depth=16,
             backpressure="block"):
    """One offered-load point: send, drain, read the ledger."""
    fab = Fabric(
        workers=2,
        runner_factory=runner_factory,
        queue_depth=queue_depth,
        backpressure=backpressure,
    )
    with fab:
        with IngestServer(
            fab, udp_port=0, window=64, stream_buffer=len(waves)
        ) as server:
            t0 = time.perf_counter()
            report = send_stream(
                waves,
                udp=server.udp_address,
                stream_id=1,
                dtype="c64",
                pace_s=pace_s,
            )
            server.drain(idle_s=0.05, timeout=600)
            wall = time.perf_counter() - t0
        view = fab.report()["ingest"]["streams"]["1"]
        problems = server.accounting_problems({1: report.n_packets})
    shed = view["shed_overflow"] + view["shed_dropped"] + view["shed_rejected"]
    leg = {
        "name": name,
        "wall_s": round(wall, 6),
        "datagrams": report.datagrams,
        "released": view["released"],
        "submitted": view["submitted"],
        "shed": shed,
        "packets_per_sec": round(view["released"] / wall, 3),
        "shed_fraction": round(shed / max(1, view["released"]), 6),
        "accounting_ok": problems == [],
    }
    print(
        "%-10s %7.1f pkt/s  released=%d shed=%d wall=%.3fs ledger=%s"
        % (name, leg["packets_per_sec"], leg["released"], shed, wall,
           "ok" if leg["accounting_ok"] else problems)
    )
    return leg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=300, help="stream length")
    parser.add_argument(
        "--n-samples", type=int, default=600, help="samples per waveform"
    )
    parser.add_argument("--out", default=None, help="report directory")
    args = parser.parse_args(argv)

    waves = _waveforms(args.packets, args.n_samples)
    clock = reporting.BenchClock()
    legs = [
        _run_leg("paced", waves, _digest_factory, pace_s=0.002),
        _run_leg("line_rate", waves, _digest_factory, pace_s=0.0),
        _run_leg(
            "overload",
            waves,
            _slow_factory,
            pace_s=0.0,
            queue_depth=2,
            backpressure="drop",
        ),
    ]

    failures = []
    for leg in legs:
        if not leg["accounting_ok"]:
            failures.append("leg %s does not balance the ledger" % leg["name"])
    for leg in legs[:2]:
        if leg["released"] != args.packets:
            failures.append(
                "leg %s lost packets on loopback: released %d of %d"
                % (leg["name"], leg["released"], args.packets)
            )
    overload = legs[2]
    if overload["shed"] == 0:
        failures.append("overload leg shed nothing — not actually overloaded")

    extra = {
        "packets": args.packets,
        "n_samples": args.n_samples,
        "legs": legs,
        "line_rate_packets_per_sec": legs[1]["packets_per_sec"],
        "overload_shed_fraction": overload["shed_fraction"],
    }
    path = reporting.write_bench_report(
        "ingest", out_dir=args.out, wall_s=clock.elapsed(), extra=extra
    )
    with open(path) as fh:
        written = json.load(fh)
    with open(os.path.join(_HERE, "ingest.schema.json")) as fh:
        schema = json.load(fh)
    errors = schema_errors(written, schema)
    if errors:
        failures.append("%s violates ingest.schema.json: %s" % (path, errors))

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print(
        "ingest bench ok: line rate %.0f pkt/s, overload shed %.1f%% -> %s"
        % (
            legs[1]["packets_per_sec"],
            100 * overload["shed_fraction"],
            path,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
